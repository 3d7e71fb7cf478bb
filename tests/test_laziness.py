import random

from minq import (
    CountingStream,
    Interval,
    ListStream,
    and_span,
    block,
    check_read_bounds,
    difference,
    lowpass,
    materialize,
    or_merge,
    oracle_or,
    ordered_and,
    profile,
    star_compose,
)
from minq.streams import (
    _PrefixCache,
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
)

from helpers import CountedSingletons, random_inputs, singletons

iv = lambda l, r: Interval(l, r)


def test_or_on_sorted_singletons_is_exactly_lazy():
    inputs = [[iv(3, 3)], [iv(1, 1)], [iv(2, 2)]]
    prof = profile(or_merge, inputs)
    report = check_read_bounds(prof, inputs, "or")
    assert report.ok, str(report)
    # producing [1..1] costs exactly the initial fill
    assert prof.rho[0] == (1, 1, 1)


def test_difference_reads_one_subtrahend_element():
    inputs = [[iv(0, 2), iv(3, 5)], [iv(4, 4)]]
    prof = profile(lambda ss: difference(ss[0], ss[1]), inputs)
    assert prof.outputs == [iv(0, 2)]
    assert prof.rho[0] == (1, 1)
    report = check_read_bounds(prof, inputs, "difference")
    assert report.ok, str(report)


def test_block_profile_equals_chain_indices():
    inputs = [singletons((0, 3, 6)), singletons((1, 4, 7))]
    prof = profile(block, inputs)
    assert prof.outputs == [iv(0, 1), iv(3, 4), iv(6, 7)]
    assert prof.rho == [(1, 1), (2, 2), (3, 3)]
    assert check_read_bounds(prof, inputs, "block").ok


def test_eager_variant_is_reported():
    def eager_or(streams):
        caches = [_PrefixCache(s) for s in streams]
        for cache in caches:
            cache.next()
            cache.next()
        return or_merge([cache.replay() for cache in caches])

    inputs = [[iv(0, 0)], [iv(5, 5)]]
    prof = profile(eager_or, inputs)
    assert prof.outputs == [iv(0, 0), iv(5, 5)]
    report = check_read_bounds(prof, inputs, "or")
    assert not report.ok
    assert any("end-order count" in v for v in report.violations)
    lines = list(report.lines())
    assert lines[0].startswith("FAIL or:")


def test_read_bounds_hold_on_randomized_inputs():
    rng = random.Random(321)
    for _ in range(300):
        inputs = random_inputs(rng)
        for kind, op in (
            ("or", or_merge),
            ("and", and_span),
            ("block", block),
            ("ordered_and", ordered_and),
        ):
            prof = profile(op, inputs)
            report = check_read_bounds(prof, inputs, kind)
            assert report.ok, str(report)
        pair = [inputs[0], inputs[1] if len(inputs) > 1 else []]
        prof = profile(lambda ss: difference(ss[0], ss[1]), pair)
        assert check_read_bounds(prof, pair, "difference").ok
        k = rng.randint(1, 8)
        prof = profile(lambda ss: lowpass(ss[0], k), [inputs[0]])
        assert check_read_bounds(prof, [inputs[0]], "lowpass").ok


def test_an_empty_operand_costs_one_read_per_input():
    # The bare operators make their own emptiness check: a conjunction-style
    # operator reads each input once and ends, the span conjunction without
    # touching its queue, and an empty minuend leaves the subtrahend unread.
    rng = random.Random(606)
    for _ in range(300):
        inputs = random_inputs(rng)
        inputs[rng.randrange(len(inputs))] = []
        for op in (and_span, block, ordered_and):
            counted = [CountingStream(ListStream(a)) for a in inputs]
            stream = op(counted)
            assert stream.next() is None
            assert [c.reads for c in counted] == [1] * len(inputs)
            if op is and_span:
                assert stream.queue.mutations == 0
        counted = [CountingStream(ListStream([])), CountingStream(ListStream(inputs[0]))]
        assert difference(*counted).next() is None
        assert [c.reads for c in counted] == [1, 0]
        assert materialize(or_merge([ListStream(a) for a in inputs])) == oracle_or(inputs)


def test_prefix_of_huge_inputs_costs_a_few_reads():
    sources = [CountedSingletons(start=offset, step=3) for offset in range(3)]
    counted = [CountingStream(s) for s in sources]
    merged = or_merge(counted)
    got = [merged.next() for _ in range(5)]
    assert got == [iv(0, 0), iv(1, 1), iv(2, 2), iv(3, 3), iv(4, 4)]
    assert all(c.reads <= 4 for c in counted)


def test_and_prefix_of_huge_inputs_costs_a_few_reads():
    sources = [CountedSingletons(start=offset, step=2) for offset in range(2)]
    counted = [CountingStream(s) for s in sources]
    spans = and_span(counted)
    assert spans.next() == iv(0, 1)
    assert all(c.reads <= 2 for c in counted)


def test_ended_operators_stay_ended_without_reading():
    # A replay reads its live source directly once the cached prefix is
    # served, with no end guard of its own, which is only sound if an
    # operator that has returned None never pulls an input again.
    operators = {
        "or": or_merge,
        "and": and_span,
        "block": block,
        "ordered_and": ordered_and,
        "lowpass": lambda ss: lowpass(ss[0], 3),
        "difference": lambda ss: difference(ss[0], ss[1]),
    }
    forms = dict(operators)
    for name, op in operators.items():
        for check in (check_all_empty, check_any_empty, check_minuend_empty):
            forms[f"{name}*{check.__name__}"] = star_compose(check, op)
    rng = random.Random(404)
    for _ in range(300):
        inputs = random_inputs(rng)
        if len(inputs) < 2:
            inputs.append(inputs[0])
        for name, form in forms.items():
            counted = [CountingStream(ListStream(a)) for a in inputs]
            stream = form(counted)
            while stream.next() is not None:
                pass
            reads = [c.reads for c in counted]
            for _ in range(10):
                assert stream.next() is None, name
            assert [c.reads for c in counted] == reads, name
