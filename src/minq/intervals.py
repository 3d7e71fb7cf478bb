"""Closed integer intervals over an extended number line.

Positions are plain integers extended with the sentinels ``NEG_INF`` and
``POS_INF`` (float infinities, which order correctly against ints). An
``Interval`` is nonempty by construction: ``left <= right`` always holds.
The sentinel intervals ``[-inf..-inf]`` and ``[+inf..+inf]`` are legal
values but never appear in streams; the operators hold the sentinels as
plain scalars.

Two total orders drive the merge machinery:

* :func:`cmp_end` -- "ends before or is a suffix of": right extremes first,
  ties broken toward the larger left extreme.
* :func:`cmp_start` -- "starts before or prolongs": left extremes first,
  ties broken toward the larger right extreme.

All values here are immutable and freely shareable between threads.
"""

from operator import itemgetter

NEG_INF = float("-inf")
POS_INF = float("inf")

Position = int | float  # a finite int, or one of the two sentinels


class Interval(tuple):
    """A nonempty closed interval ``[left..right]`` of word positions.

    It is its ``(left, right)`` pair, a :class:`tuple`: it equals, hashes
    and sorts as that pair and unpacks into it, so sorting an antichain
    gives its natural order. Copies and pickles rebuild it through the
    emptiness check of :meth:`__new__`.
    """

    __slots__ = ()

    def __new__(cls, left: Position, right: Position):
        if left > right:
            raise ValueError(f"empty interval [{left}..{right}]")
        return tuple.__new__(cls, (left, right))

    left = property(itemgetter(0), doc="The first position.")
    right = property(itemgetter(1), doc="The last position.")

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self):
        return f"[{self[0]}..{self[1]}]"


def contains(a: Interval, b: Interval) -> bool:
    """True iff ``b`` lies entirely within ``a``."""
    return a.left <= b.left and b.right <= a.right


def cmp_end(a: Interval, b: Interval) -> int:
    """Three-way compare in the ends-before-or-is-a-suffix order.

    Returns a negative, zero or positive int. ``a`` sorts below ``b`` when
    ``a.right < b.right``, or when the right extremes tie and ``a.left >
    b.left`` (the contained suffix comes first).
    """
    if a.right != b.right:
        return -1 if a.right < b.right else 1
    if a.left != b.left:
        return -1 if a.left > b.left else 1
    return 0


def cmp_start(a: Interval, b: Interval) -> int:
    """Three-way compare in the starts-before-or-prolongs order.

    ``a`` sorts below ``b`` when ``a.left < b.left``, or when the left
    extremes tie and ``a.right > b.right`` (the containing prefix comes
    first).
    """
    if a.left != b.left:
        return -1 if a.left < b.left else 1
    if a.right != b.right:
        return -1 if a.right > b.right else 1
    return 0


def length(a: Interval) -> int:
    """Number of positions covered by ``a``; finite extremes required."""
    if a.left == NEG_INF or a.right == POS_INF:
        raise ValueError(f"length of sentinel interval {a!r}")
    return a.right - a.left + 1
