"""The reference indirect queue of tests/helpers.py, and the pinned queue
work of the shipped merge and span conjunction."""

import math
import random

import pytest

from minq import CountingStream, Interval, ListStream, and_span, cmp_end, cmp_start, or_merge

from helpers import (
    EmptyQueueError,
    IndirectQueue,
    LinearScanQueue,
    advance,
    random_inputs,
)

iv = lambda l, r: Interval(l, r)


def loaded_queue(intervals, order):
    q = IndirectQueue(len(intervals), order)
    for i, item in enumerate(intervals):
        q.enqueue(i, item)
    return q


def top(q):
    return q.reference[q._heap[0]]


def span(q):
    """The span conjunction's candidate: the top's left to the right extreme."""
    return Interval(top(q).left, q.right_extreme)


def test_start_order_top_prefers_prolonging_interval():
    q = loaded_queue([iv(0, 0), iv(1, 1), iv(0, 2)], cmp_start)
    # [0..2] starts with [0..0] but prolongs it, so it is strictly smaller
    assert q._heap[0] == 2
    assert top(q) == iv(0, 2)


def test_equal_intervals_tie_break_to_smallest_index():
    q = loaded_queue([iv(0, 0), iv(1, 1), iv(0, 0)], cmp_start)
    assert q._heap[0] == 0
    q2 = loaded_queue([iv(3, 3), iv(3, 3)], cmp_end)
    assert q2._heap[0] == 0


def test_single_index():
    q = loaded_queue([iv(5, 6)], cmp_end)
    assert q._heap == [0]


def test_dequeue_all_then_empty_errors():
    q = loaded_queue([iv(0, 0), iv(1, 1), iv(2, 2)], cmp_end)
    seen = {q.dequeue() for _ in range(3)}
    assert seen == {0, 1, 2}
    assert q._heap == []
    with pytest.raises(EmptyQueueError):
        q.dequeue()
    with pytest.raises(EmptyQueueError):
        advance(q, [])


def test_advance_replaces_top_interval():
    streams = [ListStream([iv(5, 5)]), ListStream([])]
    q = loaded_queue([iv(0, 0), iv(1, 1)], cmp_end)
    assert q._heap[0] == 0
    advance(q, streams)
    assert q.reference[0] == iv(5, 5)
    assert len(q._heap) == 2


def test_advance_dequeues_exhausted_list():
    streams = [ListStream([]), ListStream([])]
    q = loaded_queue([iv(0, 0), iv(1, 1)], cmp_end)
    advance(q, streams)
    assert q._heap == [1]


def test_right_extreme_is_running_max():
    q = loaded_queue([iv(0, 9), iv(1, 1)], cmp_start)
    assert q.right_extreme == 9
    streams = [ListStream([iv(2, 3)]), ListStream([])]
    advance(q, streams)  # top is [0..9], replaced by [2..3]
    assert q.reference[0] == iv(2, 3)
    assert q.right_extreme == 9  # never decreases


def test_span_of():
    q = loaded_queue([iv(0, 0), iv(1, 1), iv(0, 0)], cmp_start)
    assert span(q) == iv(0, 1)
    assert span(loaded_queue([iv(3, 7)], cmp_start)) == iv(3, 7)
    assert span(loaded_queue([iv(2, 2), iv(1, 1)], cmp_start)) == iv(1, 2)


def test_queue_refuses_other_orders():
    # advance writes out the comparisons of these two orders only.
    with pytest.raises(ValueError):
        IndirectQueue(2, lambda a, b: 0)


@pytest.mark.parametrize("order", [cmp_end, cmp_start])
def test_differential_against_linear_scan(order):
    rng = random.Random(order is cmp_end)
    for _ in range(200):
        m = rng.randint(1, 6)
        q = IndirectQueue(m, order)
        ref = LinearScanQueue(m, order)
        outside = list(range(m))

        def rand_iv():
            l = rng.randint(0, 30)
            return iv(l, l + rng.randint(0, 5))

        for _ in range(50):
            choices = ["enqueue"] if outside else []
            if len(ref):
                choices += ["dequeue", "advance", "inspect"]
            op = rng.choice(choices)
            if op == "enqueue":
                i = outside.pop(rng.randrange(len(outside)))
                item = rand_iv()
                q.enqueue(i, item)
                ref.enqueue(i, item)
            elif op == "dequeue":
                got, expected = q.dequeue(), ref.dequeue()
                assert got == expected
                outside.append(got)
            elif op == "advance":
                # Every list holds the same next element, fresh or none, so
                # only the choice of the top decides what is read.
                expected = ref.top_index()
                item = rand_iv() if rng.random() < 0.75 else None
                for step in (lambda s: advance(q, s), ref.advance):
                    streams = [CountingStream(ListStream([item] if item else [])) for _ in range(m)]
                    step(streams)
                    assert [s.reads for s in streams] == [int(i == expected) for i in range(m)]
                if item is None:
                    outside.append(expected)
            else:
                assert q._heap[0] == ref.top_index()
                assert q.reference == ref.reference
                assert q.right_extreme == ref.right_extreme
                assert len(q._heap) == len(ref)


def test_top_monotone_under_start_order_advances():
    rng = random.Random(17)
    for _ in range(100):
        m = rng.randint(1, 4)
        lists = []
        for _ in range(m):
            n = rng.randint(1, 8)
            positions = sorted(rng.sample(range(40), n))
            lists.append([iv(p, p + rng.randint(0, 2)) for p in positions])
            # keep rights strictly increasing too
            fixed = []
            right = -1
            for item in lists[-1]:
                r = max(item.right, right + 1)
                fixed.append(iv(item.left, r))
                right = r
            lists[-1] = fixed
        streams = [ListStream(a) for a in lists]
        q = IndirectQueue(m, cmp_start)
        for i, s in enumerate(streams):
            q.enqueue(i, s.next())
        prev = top(q)
        while len(q._heap) == m:
            advance(q, streams)
            if len(q._heap) == m:
                assert cmp_start(prev, top(q)) <= 0
                prev = top(q)


def test_span_contains_enqueued_slots_and_is_left_tight():
    rng = random.Random(23)
    for _ in range(200):
        m = rng.randint(1, 5)
        items = []
        for i in range(m):
            l = rng.randint(0, 20)
            items.append(iv(l, l + rng.randint(0, 6)))
        s = span(loaded_queue(items, cmp_start))
        assert all(s.left <= item.left and item.right <= s.right for item in items)
        assert s.left == min(item.left for item in items)


def test_mutation_comparison_budget():
    rng = random.Random(31)
    for m in range(1, 8):
        limit = (math.ceil(math.log2(m)) if m > 1 else 0) + 1
        q = IndirectQueue(m, cmp_end)
        for i in range(m):
            l = rng.randint(0, 50)
            q.enqueue(i, iv(l, l + rng.randint(0, 3)))
        for _ in range(200):
            if not q._heap:
                break
            if rng.random() < 0.3:
                item = None  # the top's list is exhausted: advance drops it
            else:
                old = top(q)
                left = old.left + rng.randint(1, 3)
                right = max(left, old.right + rng.randint(1, 3))
                item = iv(left, right)
            advance(q, [ListStream([item] if item else []) for _ in range(m)])
        assert q.max_mutation_comparisons <= limit


def test_operation_counts_pinned_on_criterion_5_inputs():
    # Criterion 5 only bounds these counts; the exact totals pin the heap's
    # behaviour, so the shipped generators, read through the adapters'
    # QueueCounts, must make the very moves of the reference queue's advance.
    # The span conjunction loads nothing when an operand is empty.
    rng = random.Random(5)
    totals = {or_merge: [0, 0, 0], and_span: [0, 0, 0]}
    for _ in range(2000):
        inputs = random_inputs(rng)
        for op, total in totals.items():
            stream = op([ListStream(a) for a in inputs])
            while stream.next() is not None:
                pass
            queue = stream.queue
            total[0] += queue.mutations
            total[1] += queue.comparisons
            total[2] = max(total[2], queue.max_mutation_comparisons)
    assert totals[or_merge] == [33_565, 41_510, 4]
    assert totals[and_span] == [16_252, 24_253, 4]
