"""Pull-based interval streams, position leaves and read accounting.

A stream hands out the intervals of an antichain in natural order (strictly
increasing left *and* right extremes) through :meth:`IntervalStream.next`,
and returns ``None`` forever once exhausted. Streams are single-consumer
and hold no locks; a stream may be handed between threads between calls.
Every operator also stops pulling an input once that input has returned
``None``, and stops pulling all inputs once it has returned ``None`` itself.

The engine evaluates over ``(left, right)`` int pairs instead (see
:mod:`minq.operators`), a term's positions read as ``(p, p)`` pairs
(:func:`minq.index.run`). An :class:`~minq.intervals.Interval` is such a
pair, so a stream's intervals feed a pair generator as they come;
:func:`materialize_pairs` checks a root's pairs and turns them into
intervals in one C-level pass, and :class:`PairStream` shows any pair
iterator as an interval stream. :func:`from_positions` checks a caller's
position list and streams it as singleton intervals.

:class:`CountingStream` records how many elements (the terminal ``None``
included) were pulled from a source, and :func:`profile` snapshots those
counters each time a downstream operator emits an output, yielding a
:class:`RhoProfile`: row ``p`` holds the per-input read counts at the
moment output ``p`` appeared. This is the measurable form of laziness used
throughout the test harness, and the only read counter: the engine's
per-document profiles (``minq query --show-rho``) run the same loop over
one lazy counting stream per input of the query's root.
"""

from dataclasses import dataclass, field
from functools import partial
from itertools import repeat, starmap
from operator import le, lt

from .intervals import Interval


class OrderViolation(ValueError):
    """An interval stream broke the natural-order invariant."""


class IntervalStream:
    """Base for pull-based antichain sources; subclasses override next()."""

    def next(self) -> Interval | None:
        raise NotImplementedError


class ListStream(IntervalStream):
    """Stream over a materialized sequence of intervals."""

    def __init__(self, items):
        self._items = list(items)
        self._cursor = 0

    def next(self):
        if self._cursor >= len(self._items):
            return None
        item = self._items[self._cursor]
        self._cursor += 1
        return item


class PairStream(IntervalStream):
    """The pairs of ``pairs`` as an interval stream of :class:`Interval`.

    ``pairs`` stays reachable, so a generator's frame (its operator state)
    can be inspected; ``queue`` holds the heap counts of a merge or span
    conjunction, and is ``None`` for the other operators.
    """

    def __init__(self, pairs, queue=None):
        self.pairs = pairs
        self.queue = queue
        self.next = partial(next, starmap(Interval, pairs), None)


def _check_increasing(positions):
    if not all(map(lt, positions[:-1], positions[1:])):
        # Rescan to name the first fault.
        for prev, cur in zip(positions, positions[1:]):
            if cur <= prev:
                raise ValueError(f"positions not strictly increasing: {prev} before {cur}")


def from_positions(positions) -> IntervalStream:
    """Stream of singleton intervals, one per position.

    ``positions`` must be a sequence of strictly increasing finite integers;
    anything else is rejected here rather than downstream. The stream reads
    the sequence itself, not a copy, so it must not change meanwhile.
    """
    _check_increasing(positions)
    return PairStream(zip(positions, positions))


def materialize_pairs(pairs) -> list[Interval]:
    """The intervals of a finite iterator of ``(left, right)`` pairs, checking them.

    Each pair must be nonempty, and the pairs in natural order; the first
    fault raises :class:`ValueError` (an empty interval) or
    :class:`OrderViolation`.
    """
    pairs = list(pairs)
    if pairs:
        lefts, rights = zip(*pairs)
        if not (
            all(map(le, lefts, rights))
            and all(map(lt, lefts, lefts[1:]))
            and all(map(lt, rights, rights[1:]))
        ):
            # Rescan to name the first fault.
            prev = None
            for item in starmap(Interval, pairs):
                if prev and (item[0] <= prev[0] or item[1] <= prev[1]):
                    raise OrderViolation(f"{prev!r} followed by {item!r}")
                prev = item
    return list(map(tuple.__new__, repeat(Interval), pairs))  # checked: no per-pair __new__


def _pairs(stream: IntervalStream):
    """The intervals of a stream, which are pairs, up to its first ``None`` and no further."""
    return iter(stream.next, None)


def materialize(stream: IntervalStream) -> list[Interval]:
    """Drain a finite stream, enforcing the natural-order invariant.

    The order is checked by :func:`materialize_pairs` once the stream is
    drained, so a violation is raised then, not at the faulty pull.
    """
    return materialize_pairs(_pairs(stream))


class CountingStream(IntervalStream):
    """Pass-through wrapper counting every pull, terminal included."""

    def __init__(self, inner: IntervalStream):
        self._inner = inner
        self.reads = 0

    def next(self):
        self.reads += 1
        return self._inner.next()


@dataclass
class RhoProfile:
    """Read counts per input list, snapshotted at each emitted output.

    ``rho[p][i]`` is the number of elements pulled from input ``i`` by the
    time output ``p`` (0-based row for the 1-based p-th output) was
    produced. Reads spent discovering the final terminal are deliberately
    not recorded.
    """

    m: int
    outputs: list[Interval] = field(default_factory=list)
    rho: list[tuple[int, ...]] = field(default_factory=list)


def profile(op, antichains) -> RhoProfile:
    """Run ``op`` over counted inputs and record reads at every output.

    ``op`` takes a list of streams and returns a stream; ``antichains`` is
    a list of materialized inputs.
    """
    return _profile(op, map(ListStream, antichains))


def _profile(op, inputs) -> RhoProfile:
    """:func:`profile` over the streams ``inputs``, each wrapped in a :class:`CountingStream`."""
    counters = list(map(CountingStream, inputs))
    out = op(counters)
    result = RhoProfile(m=len(counters))
    while (item := out.next()) is not None:
        result.outputs.append(item)
        result.rho.append(tuple(c.reads for c in counters))
    return result
