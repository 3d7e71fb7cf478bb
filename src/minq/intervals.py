"""Closed integer intervals over an extended number line.

Positions are plain integers extended with the sentinels ``NEG_INF`` and
``POS_INF`` (float infinities, which order correctly against ints). An
``Interval`` is nonempty by construction: ``left <= right`` always holds.
The sentinel intervals ``[-inf..-inf]`` and ``[+inf..+inf]`` are legal
values (they serve as initial/terminal operator state) but never appear in
streams.

Two total orders drive the merge machinery:

* :func:`cmp_end` -- "ends before or is a suffix of": right extremes first,
  ties broken toward the larger left extreme.
* :func:`cmp_start` -- "starts before or prolongs": left extremes first,
  ties broken toward the larger right extreme.

All values here are immutable and freely shareable between threads.
``Interval`` is built once per witness of a query's root, so its
constructor writes the two slots through the slot descriptors' setters;
``__setattr__`` still refuses every later write.
"""

NEG_INF = float("-inf")
POS_INF = float("inf")

Position = int | float  # a finite int, or one of the two sentinels


class Interval:
    """A nonempty closed interval ``[left..right]`` of word positions."""

    __slots__ = ("left", "right")

    def __init__(self, left: Position, right: Position):
        if left > right:
            raise ValueError(f"empty interval [{left}..{right}]")
        _set_left(self, left)
        _set_right(self, right)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Interval)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"[{self.left}..{self.right}]"


# The slot descriptors' setters; only Interval.__init__ writes through them.
_set_left = Interval.left.__set__
_set_right = Interval.right.__set__


def contains(a: Interval, b: Interval) -> bool:
    """True iff ``b`` lies entirely within ``a``."""
    return a.left <= b.left and b.right <= a.right


def span(a: Interval, b: Interval) -> Interval:
    """The least interval containing both ``a`` and ``b``."""
    return Interval(min(a.left, b.left), max(a.right, b.right))


def strictly_before(a: Interval, b: Interval) -> bool:
    """True iff every position of ``a`` precedes every position of ``b``."""
    return a.right < b.left


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
