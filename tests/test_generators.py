"""The shipped generators against the reference classes of tests/helpers.py.

The pair generators run on random antichains given as ``(left, right)``
pairs, and on singleton inputs in the engine's leaf form, ``zip(run,
run)`` of a position list. Each must yield the class's outputs after the
same per-input reads, end after the same reads (the terminal read
included) and, for the merge and the span conjunction, report the same
queue work, within criterion 5's ceilings.
"""

import math
import random

import pytest

from minq import CountingStream, ListStream, and_span, block, or_merge, ordered_and
from minq.operators import (
    QueueCounts,
    and_pairs,
    block_pairs,
    difference_pairs,
    lowpass_pairs,
    or_pairs,
    ordered_pairs,
)

from helpers import (
    AndSpan,
    BlockConcat,
    CountedIterator,
    Difference,
    LowPassFilter,
    OrderedSpan,
    OrMerge,
    random_inputs,
    singleton_antichain,
    singletons,
)

SETS = 10_000


def operators(k):
    """(name, pair generator, reference class); lowpass keeps width ``k``."""
    return [
        ("or", or_pairs, OrMerge),
        ("and", and_pairs, AndSpan),
        ("block", lambda its, _: block_pairs(its), BlockConcat),
        ("ordered_and", lambda its, _: ordered_pairs(its), OrderedSpan),
        (
            "difference",
            lambda its, _: difference_pairs(*its),
            lambda streams: Difference(*streams),
        ),
        (
            "lowpass",
            lambda its, _: lowpass_pairs(its[0], k),
            lambda streams: LowPassFilter(streams[0], k),
        ),
    ]


def operands(name, inputs):
    """The inputs an operator takes: two for difference, one for lowpass."""
    if name == "difference":
        return [inputs[0], inputs[1] if len(inputs) > 1 else []]
    if name == "lowpass":
        return inputs[:1]
    return inputs


def queue_counts(work):
    return (work.mutations, work.comparisons, work.max_mutation_comparisons)


def run_class(operator, antichains, rows_read=True):
    """Outputs as pairs, read rows and queue work at each output, then the final reads.

    Without ``rows_read`` a row holds no reads, only the output and the work.
    """
    counters = [CountingStream(ListStream(a)) for a in antichains]
    stream = operator(counters)
    queued = hasattr(stream, "queue")
    rows = []
    while (item := stream.next()) is not None:
        work = queue_counts(stream.queue) if queued else None
        rows.append(((item.left, item.right), rows_read and tuple(c.reads for c in counters), work))
    assert stream.next() is None
    work = queue_counts(stream.queue) if queued else None
    return rows, tuple(c.reads for c in counters), work


def counted_leaf(positions, leaves):
    """The engine's leaf over ``positions``, ``zip(run, run)``, its first iterator counted.

    zip pulls its first iterator first and stops when it ends, so that one
    makes the leaf's reads.
    """
    return zip(CountedIterator(positions, leaves), positions)


def run_generator(generator, lists, queued, rows_read=True, source=CountedIterator):
    """:func:`run_class` for a generator over ``source`` iterators of ``lists``."""
    leaves = []
    counts = QueueCounts()
    rows = []
    for item in generator([source(a, leaves) for a in lists], counts):
        work = queue_counts(counts) if queued else None
        rows.append((item, rows_read and tuple(leaf.reads for leaf in leaves), work))
    work = queue_counts(counts) if queued else None
    return rows, tuple(leaf.reads for leaf in leaves), work


def within_criterion_5(work, lists):
    m = len(lists)
    cap = (math.ceil(math.log2(m)) if m > 1 else 0) + 1
    return work[0] <= sum(map(len, lists)) + m and work[2] <= cap


def test_pair_generators_equal_their_classes_on_random_inputs():
    rng = random.Random(0xFA1125)
    for _ in range(SETS):
        inputs = random_inputs(rng)
        k = rng.randint(1, 8)
        for name, generator, operator in operators(k):
            take = operands(name, inputs)
            expected = run_class(operator, take)
            pairs = [[(iv.left, iv.right) for iv in a] for a in take]
            queued = expected[2] is not None
            assert run_generator(generator, pairs, queued) == expected, (name, take)
            if queued:
                assert within_criterion_5(expected[2], take)


def test_generators_equal_their_classes_on_engine_leaves():
    rng = random.Random(0x5EED)
    for _ in range(SETS):
        m = rng.randint(1, 5)
        lists = [[iv.left for iv in singleton_antichain(rng)] for _ in range(m)]
        for name, generator, operator in operators(1):
            take = operands(name, lists)
            expected = run_class(operator, [singletons(p) for p in take])
            queued = expected[2] is not None
            got = run_generator(generator, take, queued, source=counted_leaf)
            assert got == expected, (name, take)
            if queued:
                assert within_criterion_5(expected[2], take)


def test_or_pairs_sorts_like_the_merge():
    # Criterion 3's sorting reduction, up to n = 10,000 one-position lists
    # in the engine's leaf form. Criterion 5's comparison ceiling is for its
    # m <= 5 inputs; here the queue work must equal the merge's and
    # mutations stay within n + m.
    rng = random.Random(3)
    for n in (1, 2, 10, 100, 1000, 10_000):
        lists = [[v] for v in rng.sample(range(10 * n), n)]
        rows, reads, work = run_generator(
            or_pairs, lists, True, rows_read=n <= 100, source=counted_leaf
        )
        assert [left for (left, _), _, _ in rows] == sorted(v for (v,) in lists)
        expected = run_class(OrMerge, [singletons(p) for p in lists], rows_read=n <= 100)
        assert (rows, reads, work) == expected
        assert work[0] <= 2 * n


def test_adapters_need_an_operand():
    for operator in (or_merge, and_span, block, ordered_and):
        with pytest.raises(ValueError):
            operator([])
