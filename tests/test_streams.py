import random

import pytest
from hypothesis import given, strategies as st

from minq import (
    CountingStream,
    Interval,
    ListStream,
    OrderViolation,
    and_span,
    difference,
    from_positions,
    materialize,
    or_merge,
    profile,
)
from minq.streams import materialize_pairs

from helpers import (
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
    random_inputs,
    star_compose,
)

iv = lambda l, r: Interval(l, r)


def test_from_positions():
    assert materialize(from_positions((1, 4, 7, 32, 35))) == [
        iv(1, 1), iv(4, 4), iv(7, 7), iv(32, 32), iv(35, 35)
    ]
    assert materialize(from_positions(())) == []
    assert materialize(from_positions((0, 3))) == [iv(0, 0), iv(3, 3)]


def test_from_positions_rejects_non_increasing():
    with pytest.raises(ValueError):
        from_positions((1, 1))
    with pytest.raises(ValueError):
        from_positions((2, 1))


def test_terminal_repeats():
    s = ListStream([iv(0, 0)])
    assert s.next() == iv(0, 0)
    assert s.next() is None
    assert s.next() is None


def test_materialize_validates_order():
    assert materialize(ListStream([iv(0, 1), iv(2, 3)])) == [iv(0, 1), iv(2, 3)]
    assert materialize(ListStream([])) == []
    with pytest.raises(OrderViolation):
        materialize(ListStream([iv(0, 3), iv(1, 2)]))
    with pytest.raises(OrderViolation):
        materialize(ListStream([iv(0, 3), iv(1, 3)]))
    assert materialize_pairs(iter([(0, 1), (2, 3)])) == [iv(0, 1), iv(2, 3)]
    assert materialize_pairs(iter([])) == []
    for bad in ([(0, 3), (1, 2)], [(0, 3), (1, 3)], [(0, 1), (2, 3), (2, 4)]):
        with pytest.raises(OrderViolation) as pairs_error:
            materialize_pairs(iter(bad))
        with pytest.raises(OrderViolation) as stream_error:
            materialize(ListStream([iv(*pair) for pair in bad]))
        assert str(pairs_error.value) == str(stream_error.value)


def test_materialize_pairs_names_the_first_fault():
    with pytest.raises(ValueError, match=r"^empty interval \[3\.\.1\]$") as error:
        materialize_pairs([(3, 1)])
    assert type(error.value) is ValueError
    # An empty pair after an order fault: the order fault comes first.
    with pytest.raises(OrderViolation, match=r"^\[0\.\.3\] followed by \[1\.\.2\]$"):
        materialize_pairs([(0, 3), (1, 2), (5, 4)])
    # An empty pair before an order fault: the empty pair comes first.
    with pytest.raises(ValueError, match=r"^empty interval \[5\.\.4\]$"):
        materialize_pairs([(0, 1), (5, 4), (2, 3)])
    got = materialize_pairs([(0, 1), (2, 3)])
    assert all(type(item) is Interval for item in got)


@given(
    positions=st.lists(
        st.integers(min_value=0, max_value=100), unique=True, max_size=20
    ).map(sorted)
)
def test_counting_stream_is_transparent(positions):
    plain = materialize(from_positions(positions))
    counted = CountingStream(from_positions(positions))
    assert materialize(counted) == plain
    assert counted.reads == len(positions) + 1  # terminal included


def test_counting_counts_terminal():
    c = CountingStream(ListStream([]))
    assert c.next() is None
    assert c.reads == 1


def test_profile_or_first_output():
    prof = profile(or_merge, [[iv(0, 0)], [iv(1, 1)]])
    assert prof.outputs == [iv(0, 0), iv(1, 1)]
    assert prof.rho[0] == (1, 1)


def test_profile_difference_reads_terminal_of_empty_subtrahend():
    prof = profile(lambda ss: difference(ss[0], ss[1]), [[iv(0, 1)], []])
    assert prof.outputs == [iv(0, 1)]
    assert prof.rho == [(1, 1)]


def test_first_output_reads_every_list():
    rng = random.Random(5)
    for _ in range(100):
        inputs = random_inputs(rng, allow_empty=False)
        for op in (or_merge, and_span):
            prof = profile(op, inputs)
            if prof.rho:
                assert all(r >= 1 for r in prof.rho[0])


def test_profile_rows_nondecreasing():
    rng = random.Random(6)
    for _ in range(50):
        inputs = random_inputs(rng)
        prof = profile(or_merge, inputs)
        for prev, row in zip(prof.rho, prof.rho[1:]):
            assert all(a <= b for a, b in zip(prev, row))


def test_star_short_circuits_and_with_empty_input():
    inputs = [[], [iv(1, 1)]]
    counters = [CountingStream(ListStream(a)) for a in inputs]
    out = star_compose(check_any_empty, and_span)(counters)
    assert out.next() is None
    assert [c.reads for c in counters] == [1, 1]


def test_star_defers_to_main():
    op = star_compose(check_any_empty, and_span)
    assert materialize(op([ListStream([iv(0, 0)]), ListStream([iv(1, 1)])])) == [
        iv(0, 1)
    ]


def test_star_or_all_empty():
    op = star_compose(check_all_empty, or_merge)
    assert materialize(op([ListStream([]), ListStream([])])) == []


def test_star_minuend_check_reads_only_minuend():
    counters = [CountingStream(ListStream([])), CountingStream(ListStream([iv(1, 1)]))]
    out = star_compose(
        check_minuend_empty, lambda ss: difference(ss[0], ss[1])
    )(counters)
    assert out.next() is None
    assert [c.reads for c in counters] == [1, 0]


def test_star_transparency_matches_bare_profile():
    rng = random.Random(7)
    for _ in range(300):
        inputs = random_inputs(rng, allow_empty=False)
        bare = profile(and_span, inputs)
        composed = profile(star_compose(check_any_empty, and_span), inputs)
        assert composed.outputs == bare.outputs
        assert composed.rho == bare.rho
