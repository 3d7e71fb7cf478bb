import random

from minq import (
    CountingStream,
    Interval,
    ListStream,
    and_span,
    block,
    difference,
    from_positions,
    lowpass,
    materialize,
    or_merge,
    ordered_and,
    oracle_and,
    oracle_block,
    oracle_difference,
    oracle_lowpass,
    oracle_or,
    oracle_ordered_and,
)

from helpers import (
    HOT_OR_COLD,
    PEASE,
    PORRIDGE,
    RHYME_ANTICHAIN,
    random_inputs,
    singleton_antichain,
    singletons,
)

iv = lambda l, r: Interval(l, r)


def run(op, inputs, **kwargs):
    return materialize(op([ListStream(a) for a in inputs], **kwargs))


def test_or_merges_sorted_singletons():
    assert run(or_merge, [[iv(3, 3)], [iv(1, 1)], [iv(2, 2)]]) == [
        iv(1, 1), iv(2, 2), iv(3, 3)
    ]


def test_or_drops_non_minimal():
    assert run(or_merge, [[iv(0, 3)], [iv(1, 2)]]) == [iv(1, 2)]


def test_or_mixed():
    assert run(or_merge, [[iv(0, 1), iv(2, 5)], [iv(0, 1), iv(3, 4)]]) == [
        iv(0, 1), iv(3, 4)
    ]


def test_or_single_input_is_identity():
    a = [iv(0, 1), iv(2, 4)]
    assert run(or_merge, [a]) == a


def test_and_worked_remark_case():
    inputs = [[iv(0, 0), iv(2, 2)], [iv(1, 1)], [iv(0, 0), iv(2, 2)]]
    out = run(and_span, inputs)
    assert out[0] == iv(0, 1)
    assert out == [iv(0, 1), iv(1, 2)]


def test_and_reproduces_rhyme_antichain():
    streams = [from_positions(p) for p in (PEASE, PORRIDGE, HOT_OR_COLD)]
    assert materialize(and_span(streams)) == RHYME_ANTICHAIN


def test_and_single_input_is_identity():
    a = [iv(0, 2), iv(1, 5), iv(4, 9)]
    assert run(and_span, [a]) == a


def test_block_rhyme_bigram():
    assert run(block, [singletons(PEASE), singletons(PORRIDGE)]) == [
        iv(0, 1), iv(3, 4), iv(6, 7), iv(31, 32), iv(34, 35)
    ]


def test_block_gap_yields_nothing():
    assert run(block, [[iv(0, 0)], [iv(2, 2)]]) == []


def test_block_single_chain():
    assert run(block, [[iv(0, 1)], [iv(2, 2)], [iv(3, 5)]]) == [iv(0, 5)]


def test_ordered_and_skips_backwards_pairs():
    assert run(ordered_and, [[iv(2, 2), iv(5, 5)], [iv(3, 3)]]) == [iv(2, 3)]


def test_ordered_and_single_input_is_identity():
    a = [iv(0, 0), iv(2, 3)]
    assert run(ordered_and, [a]) == a


def test_ordered_and_three_lists():
    inputs = [singletons((0, 4)), singletons((1, 5)), singletons((2, 6))]
    assert run(ordered_and, inputs) == [iv(0, 2), iv(4, 6)]


def test_lowpass_filters_by_width():
    a = [iv(0, 2), iv(3, 5), iv(6, 17), iv(21, 32), iv(31, 33)]
    assert materialize(lowpass(ListStream(a), 3)) == [iv(0, 2), iv(3, 5), iv(31, 33)]
    assert materialize(lowpass(ListStream(a), 40)) == a
    assert materialize(lowpass(ListStream([iv(0, 1)]), 1)) == []


def test_difference_examples():
    assert materialize(
        difference(ListStream([iv(0, 2), iv(3, 5)]), ListStream([iv(4, 4)]))
    ) == [iv(0, 2)]
    m = [iv(0, 2), iv(3, 5)]
    assert materialize(difference(ListStream(m), ListStream([]))) == m
    assert materialize(
        difference(ListStream([iv(1, 1)]), ListStream([iv(1, 1)]))
    ) == []


def test_operators_tolerate_empty_inputs():
    assert run(or_merge, [[], []]) == []
    assert run(or_merge, [[], [iv(1, 1)]]) == [iv(1, 1)]
    assert run(and_span, [[], [iv(1, 1)]]) == []
    assert run(block, [[], [iv(1, 1)]]) == []
    assert run(ordered_and, [[], [iv(1, 1)]]) == []
    assert materialize(difference(ListStream([]), ListStream([iv(1, 1)]))) == []


def test_outputs_keep_returning_terminal():
    # After its first None an operator returns None again and reads nothing.
    operators = [
        or_merge,
        and_span,
        block,
        ordered_and,
        lambda streams: lowpass(streams[0], 1),
        lambda streams: difference(*streams),
    ]
    for op in operators:
        for inputs in ([[iv(0, 0)], [iv(1, 1)]], [[iv(0, 0)], []], [[], [iv(0, 0)]]):
            counters = [CountingStream(ListStream(a)) for a in inputs]
            stream = op(counters)
            while stream.next() is not None:
                pass
            reads = [c.reads for c in counters]
            for _ in range(3):
                assert stream.next() is None
            assert [c.reads for c in counters] == reads


def test_oracle_equivalence_randomized():
    rng = random.Random(2024)
    for _ in range(400):
        inputs = random_inputs(rng)
        assert run(or_merge, inputs) == oracle_or(inputs)
        assert run(and_span, inputs) == oracle_and(inputs)
        assert run(block, inputs) == oracle_block(inputs)
        assert run(ordered_and, inputs) == oracle_ordered_and(inputs)
        minuend = inputs[0]
        subtrahend = inputs[1] if len(inputs) > 1 else []
        assert materialize(
            difference(ListStream(minuend), ListStream(subtrahend))
        ) == oracle_difference(minuend, subtrahend)
        k = rng.randint(1, 8)
        assert materialize(lowpass(ListStream(minuend), k)) == oracle_lowpass(
            minuend, k
        )


def test_ordered_and_matches_oracle_on_singleton_inputs():
    # Singleton inputs are the phrasal-query case.
    rng = random.Random(19)
    for _ in range(200):
        m = rng.randint(1, 5)
        inputs = [singleton_antichain(rng) for _ in range(m)]
        assert run(ordered_and, inputs) == oracle_ordered_and(inputs)
