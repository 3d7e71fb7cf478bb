"""Pull-based interval streams and read accounting.

A stream hands out the intervals of an antichain in natural order (strictly
increasing left *and* right extremes) through :meth:`IntervalStream.next`,
and returns ``None`` forever once exhausted. Streams are single-consumer
and hold no locks; a stream may be handed between threads between calls.
Every operator also stops pulling an input once that input has returned
``None``, and stops pulling all inputs once it has returned ``None`` itself.

:class:`CountingStream` records how many elements (the terminal ``None``
included) were pulled from a source, and :func:`profile` snapshots those
counters each time a downstream operator emits an output, yielding a
:class:`RhoProfile`: row ``p`` holds the per-input read counts at the
moment output ``p`` appeared. This is the measurable form of laziness used
throughout the test harness.

:func:`star_compose` splices a cheap prefix check in front of a stream
algorithm: the check reads (and caches) a short prefix of every input and
may short-circuit the whole computation; otherwise the main algorithm runs
over the cached prefix followed by the live remainder, so the composite
reads exactly what the main algorithm would have read on its own. The
query engine uses none of this: each operator makes its own emptiness check.
"""

from dataclasses import dataclass, field

from .intervals import Interval


class OrderViolation(ValueError):
    """An interval stream broke the natural-order invariant."""


class IntervalStream:
    """Base for pull-based antichain sources; subclasses override next()."""

    def next(self) -> Interval | None:
        raise NotImplementedError

    def __iter__(self):
        while (item := self.next()) is not None:
            yield item


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


class _PositionStream(IntervalStream):
    def __init__(self, positions):
        self._positions = iter(positions)

    def next(self):
        for p in self._positions:
            return Interval(p, p)
        return None


def from_positions(positions) -> IntervalStream:
    """Stream of singleton intervals, one per position.

    ``positions`` must be strictly increasing finite integers; anything
    else is rejected here rather than downstream.
    """
    positions = tuple(positions)
    for prev, cur in zip(positions, positions[1:]):
        if cur <= prev:
            raise ValueError(f"positions not strictly increasing: {prev} before {cur}")
    return _PositionStream(positions)


def materialize(stream: IntervalStream) -> list[Interval]:
    """Drain a finite stream, enforcing the natural-order invariant."""
    items = []
    while (item := stream.next()) is not None:
        if items:
            prev = items[-1]
            if item.left <= prev.left or item.right <= prev.right:
                raise OrderViolation(f"{prev!r} followed by {item!r}")
        items.append(item)
    return items


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
    counters = [CountingStream(ListStream(a)) for a in antichains]
    out = op(counters)
    result = RhoProfile(m=len(counters))
    while (item := out.next()) is not None:
        result.outputs.append(item)
        result.rho.append(tuple(c.reads for c in counters))
    return result


class _PrefixCache(IntervalStream):
    """Records everything read from a source so it can be replayed."""

    def __init__(self, source: IntervalStream):
        self._source = source
        self.items: list[Interval] = []
        self.saw_terminal = False

    def next(self):
        if self.saw_terminal:
            return None
        item = self._source.next()
        if item is None:
            self.saw_terminal = True
        else:
            self.items.append(item)
        return item

    def replay(self) -> IntervalStream:
        return _ReplayStream(self)


class _ReplayStream(IntervalStream):
    """Yields a cached prefix, then continues from the live source."""

    def __init__(self, cache: _PrefixCache):
        self._cache = cache
        self._cursor = 0

    def next(self):
        cached = self._cache.items
        if self._cursor < len(cached):
            item = cached[self._cursor]
            self._cursor += 1
            return item
        if self._cache.saw_terminal:
            return None
        return self._cache._source.next()


class _StarStream(IntervalStream):
    """Runs the check on the first pull, then reads from its result."""

    def __init__(self, check, main, streams):
        self._check = check
        self._main = main
        self._streams = list(streams)
        self._inner = None

    def next(self):
        if self._inner is None:
            caches = [_PrefixCache(s) for s in self._streams]
            short = self._check(caches)
            if short is not None:
                self._inner = ListStream(short)
            else:
                self._inner = self._main([c.replay() for c in caches])
        return self._inner.next()


def star_compose(check, main):
    """Compose a prefix check with a stream algorithm.

    ``check`` receives one readable cache per input; it returns a complete
    output list to short-circuit, or ``None`` to defer. ``main`` then runs
    over cached-prefix-then-live inputs. Nothing is read until the first
    pull on the composed stream, and when ``check`` defers, the composite's
    reads (hence its profile) match ``main`` run directly, provided the
    check reads no more from any input than ``main`` needs for its first
    output.
    """

    def composed(streams) -> IntervalStream:
        return _StarStream(check, main, streams)

    return composed


def check_any_empty(caches):
    """Short-circuit to the empty result if any input is empty.

    Reads exactly one element from every input. Suits operators whose
    result is empty as soon as one operand is (span-style conjunctions,
    concatenations, ordered conjunctions, length filters).
    """
    empty = False
    for cache in caches:
        if cache.next() is None:
            empty = True
    return [] if empty else None


def check_all_empty(caches):
    """Short-circuit to the empty result only if every input is empty."""
    nonempty = False
    for cache in caches:
        if cache.next() is not None:
            nonempty = True
    return None if nonempty else []


def check_minuend_empty(caches):
    """Difference-shaped check: reads one element from the minuend only."""
    return [] if caches[0].next() is None else None
