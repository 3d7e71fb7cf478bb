import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from minq import (
    Interval,
    NEG_INF,
    POS_INF,
    cmp_end,
    cmp_start,
    contains,
    length,
)

iv = lambda l, r: Interval(l, r)

intervals_st = st.tuples(
    st.integers(min_value=0, max_value=30), st.integers(min_value=0, max_value=30)
).map(lambda t: Interval(min(t), max(t)))


def test_empty_interval_rejected():
    with pytest.raises(ValueError, match=r"^empty interval \[3\.\.1\]$"):
        Interval(3, 1)


def test_sentinel_intervals_allowed():
    assert Interval(NEG_INF, NEG_INF).left == NEG_INF
    assert Interval(POS_INF, POS_INF).right == POS_INF
    assert Interval(NEG_INF, 5).right == 5


def test_immutable():
    for name in ("left", "right", "other"):
        with pytest.raises(AttributeError):
            setattr(iv(0, 1), name, 2)


def test_an_interval_is_its_pair():
    a = iv(2, 5)
    assert isinstance(a, tuple)
    assert (a.left, a.right) == (2, 5)
    assert a == (2, 5) and (2, 5) == a and a != (2, 6)
    assert hash(a) == hash((2, 5))
    assert {a: "x"}[(2, 5)] == "x"
    left, right = a
    assert (left, right) == (2, 5)
    assert repr(a) == "[2..5]"


@given(st.sets(st.integers(min_value=0, max_value=40), max_size=12))
def test_sorted_antichain_is_natural_order(lefts):
    # Lefts increasing, and rights increasing with them: an antichain.
    antichain = [iv(l, l + k) for k, l in enumerate(sorted(lefts))]
    shuffled = antichain[::2] + antichain[1::2]
    assert sorted(shuffled) == antichain


@pytest.mark.parametrize(
    "clone",
    [copy.copy, copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_are_equal_intervals(clone):
    for a in (iv(1, 2), iv(0, 0), Interval(NEG_INF, NEG_INF)):
        b = clone(a)
        assert type(b) is Interval and b == a and repr(b) == repr(a)


def test_contains():
    assert contains(iv(0, 3), iv(1, 2))
    assert contains(iv(1, 2), iv(1, 2))
    assert not contains(iv(0, 2), iv(1, 3))


def test_cmp_end_examples():
    assert cmp_end(iv(1, 3), iv(0, 4)) < 0
    assert cmp_end(iv(2, 4), iv(0, 4)) < 0  # same right, larger left sorts first
    assert cmp_end(iv(0, 4), iv(0, 4)) == 0


def test_cmp_start_examples():
    assert cmp_start(iv(0, 1), iv(2, 2)) < 0
    assert cmp_start(iv(0, 4), iv(0, 1)) < 0  # same left, larger right sorts first
    assert cmp_start(iv(3, 3), iv(3, 3)) == 0


def test_length():
    assert length(iv(0, 2)) == 3
    assert length(iv(5, 5)) == 1
    assert length(iv(3, 9)) == 7


def test_length_rejects_sentinels():
    with pytest.raises(ValueError):
        length(Interval(NEG_INF, NEG_INF))
    with pytest.raises(ValueError):
        length(Interval(0, POS_INF))


@pytest.mark.parametrize("cmp", [cmp_end, cmp_start])
@given(data=st.data())
def test_orders_are_total(cmp, data):
    a = data.draw(intervals_st)
    b = data.draw(intervals_st)
    c = data.draw(intervals_st)
    # antisymmetry and totality
    assert (cmp(a, b) == 0) == (a == b)
    assert cmp(a, b) == -cmp(b, a)
    # transitivity
    if cmp(a, b) <= 0 and cmp(b, c) <= 0:
        assert cmp(a, c) <= 0


@given(data=st.data())
def test_containment_implies_both_orders(data):
    a = data.draw(intervals_st)
    b = data.draw(intervals_st)
    if contains(a, b):
        assert cmp_end(b, a) <= 0
        assert cmp_start(a, b) <= 0
