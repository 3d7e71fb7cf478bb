"""The six lazy operators over antichain streams.

Each operator is an :class:`~minq.streams.IntervalStream` that pulls from
its inputs as little as possible per emitted interval:

* :func:`or_merge` / :func:`and_span` ride an indirect priority queue (end
  order for the merge, start order for the span conjunction) and advance it
  one element at a time.
* :func:`block`, :func:`ordered_and` and :func:`difference` advance their
  inputs greedily, keeping one current interval per list.
* :func:`lowpass` is a plain length filter.

Inputs must be valid antichain streams; outputs are again antichains in
natural order, duplicate-free. Empty inputs are tolerated: the merge drops
them and everything else terminates. Construction reads nothing; the first
pull reads one element from every input (difference: from the minuend), so
an empty operand ends the span conjunction, block and ordered conjunction
after exactly those reads, without touching the later elements of any other
operand.

Operator state is one reference slot plus a few scalars per input list, so
space stays linear in the operand count no matter how long the inputs are.
Instances are single-consumer and own their input streams; independent
operator trees can run on different threads.
"""

from .intervals import (
    Interval,
    NEG_INF,
    POS_INF,
    cmp_end,
    cmp_start,
    contains,
    length,
)
from .queue import IndirectQueue, advance
from .streams import IntervalStream

_BOTTOM = Interval(NEG_INF, NEG_INF)


def _require_inputs(streams):
    if not streams:
        raise ValueError("operator needs at least one input stream")
    return list(streams)


def _first_reads(streams):
    """The first element of every input, or ``None`` if any input is empty.

    Reads exactly one element from every input, also from those after an
    empty one, so a conjunction-style operator that ends on an empty
    operand has read the same from each input whichever one was empty.
    """
    firsts = [stream.next() for stream in streams]
    return None if None in firsts else firsts


class _QueueOperator(IntervalStream):
    """Inputs, queue and output state shared by the two queue-driven operators.

    The first pull reads every input's first interval and loads the queue
    with those that exist. ``next`` reads the queue's ``_heap`` and
    ``reference`` directly, since the top test runs once per posting read.
    """

    def __init__(self, streams, order):
        self._streams = _require_inputs(streams)
        self.queue = IndirectQueue(len(self._streams), order)
        self._last_left = NEG_INF
        self._started = False
        self._done = False

    def _start(self, firsts):
        queue = self.queue
        for i, first in enumerate(firsts):
            if first is not None:
                queue.load(i, first)
                queue.enqueue(i)
        self._started = True


class OrMerge(_QueueOperator):
    """Minimal intervals of the union of the inputs, merged lazily.

    Keeps the last returned interval and advances the queue while the top
    still contains it; because the top's right extreme only grows, that
    containment test collapses to a single left-extreme comparison.
    """

    def __init__(self, streams):
        super().__init__(streams, cmp_end)

    def next(self):
        if self._done:
            return None
        if not self._started:
            self._start([stream.next() for stream in self._streams])
        q = self.queue
        heap, ref, streams = q._heap, q.reference, self._streams
        last_left = self._last_left
        while heap and ref[heap[0]].left <= last_left:
            advance(q, streams)
        if not heap:
            self._done = True
            return None
        top = ref[heap[0]]
        self._last_left = top.left
        return top


class AndSpan(_QueueOperator):
    """Minimal intervals spanned by one interval per input.

    The queue is ordered by start; the candidate is the interval from the
    top's left extreme to the queue's right extreme, refined while further
    advances keep the span inside it. Both monotonicity shortcuts apply:
    the skip-past-last-output test compares left extremes only, and the
    still-contained test compares right extremes only. Output ends for good
    the moment the queue stops being full; with an empty operand the queue
    is never loaded.
    """

    def __init__(self, streams):
        super().__init__(streams, cmp_start)

    def next(self):
        if self._done:
            return None
        if not self._started:
            firsts = _first_reads(self._streams)
            if firsts is None:
                self._done = True
                return None
            self._start(firsts)
        q = self.queue
        heap, ref, streams = q._heap, q.reference, self._streams
        m = len(streams)
        last_left = self._last_left
        while len(heap) == m and ref[heap[0]].left == last_left:
            advance(q, streams)
        if len(heap) < m:
            self._done = True
            return None
        while True:
            # The candidate spans the top's left to the queue's right
            # extreme; it is the top itself when their right extremes meet.
            top = ref[heap[0]]
            right = q.right_extreme
            if top.right == right:
                candidate = top
                break
            advance(q, streams)
            if len(heap) < m or q.right_extreme != right:
                candidate = Interval(top.left, right)
                break
        self._last_left = candidate.left
        return candidate


class BlockConcat(IntervalStream):
    """Spans of chains of exactly adjacent intervals, one per input.

    The first attempt starts from every list's first interval; each later
    one advances the first list once. An attempt aligns each later list
    until its interval starts past the previous one's right extreme; an
    exact +1 adjacency extends the chain, a gap restarts from the first
    list.
    """

    def __init__(self, streams):
        self._streams = _require_inputs(streams)
        self._cur = None
        self._done = False

    def next(self):
        if self._done:
            return None
        cur = self._cur
        streams = self._streams
        m = len(streams)
        if cur is None:
            cur = self._cur = _first_reads(streams)
            if cur is None:
                self._done = True
                return None
        else:
            head = streams[0].next()
            if head is None:
                self._done = True
                return None
            cur[0] = head
        i = 1
        while i < m:
            while cur[i].left <= cur[i - 1].right:
                item = streams[i].next()
                if item is None:
                    self._done = True
                    return None
                cur[i] = item
            if cur[i].left == cur[i - 1].right + 1:
                i += 1
            else:
                head = streams[0].next()
                if head is None:
                    self._done = True
                    return None
                cur[0] = head
                i = 1
        return Interval(cur[0].left, cur[m - 1].right)


class OrderedSpan(IntervalStream):
    """Minimal spans of strictly-ordered non-overlapping chains.

    Greedily aligns list ``i`` until its interval starts past list
    ``i-1``'s; a completed chain becomes the candidate and its last
    component's left extreme the barrier. The candidate is final (and
    returned) as soon as any aligning read would have to land at or past
    the barrier, or an input runs dry. A candidate refines only while new
    chains keep the same right extreme.

    The first pull aligns the first chain from every list's first interval
    on its own: the loop's shortcut of taking an aligned ``cur[i]`` as the
    end of a chain holds only once ``cur[i:]`` has been aligned before.
    """

    def __init__(self, streams):
        self._streams = _require_inputs(streams)
        self._cur = None
        self._i = len(self._streams)  # the first chain is aligned up front
        self._done = False

    def next(self):
        if self._done:
            return None
        cur = self._cur
        streams = self._streams
        m = len(streams)
        if cur is None:
            cur = self._cur = _first_reads(streams)
            if cur is None:
                self._done = True
                return None
            # No barrier stands before the first candidate.
            for i in range(1, m):
                while cur[i].left <= cur[i - 1].right:
                    item = streams[i].next()
                    if item is None:
                        self._done = True
                        return None
                    cur[i] = item
        candidate = None
        barrier = POS_INF
        i = self._i
        try:
            while True:
                while True:
                    if cur[i - 1].right >= barrier:
                        return candidate
                    if i == m or cur[i].left > cur[i - 1].right:
                        break
                    while True:
                        if cur[i].right >= barrier:
                            return candidate
                        item = streams[i].next()
                        if item is None:
                            self._done = True
                            return candidate
                        cur[i] = item
                        if cur[i].left > cur[i - 1].right:
                            break
                    i += 1
                candidate = Interval(cur[0].left, cur[m - 1].right)
                barrier = cur[m - 1].left
                i = 1
                head = streams[0].next()
                if head is None:
                    self._done = True
                    return candidate
                cur[0] = head
        finally:
            self._i = i


class LowPassFilter(IntervalStream):
    """Passes through only intervals covering at most ``k`` positions."""

    def __init__(self, stream: IntervalStream, k: int):
        if k < 1:
            raise ValueError(f"lowpass threshold must be positive, got {k}")
        self._stream = stream
        self._k = k
        self._done = False

    def next(self):
        if self._done:
            return None
        while True:
            item = self._stream.next()
            if item is None:
                self._done = True
                return None
            if length(item) <= self._k:
                return item


class Difference(IntervalStream):
    """Minuend intervals containing no subtrahend interval.

    For each minuend interval, the subtrahend is advanced only while its
    current interval starts and ends strictly before the minuend's
    extremes; the minuend interval survives unless the stopping interval
    sits inside it.
    """

    def __init__(self, minuend: IntervalStream, subtrahend: IntervalStream):
        self._minuend = minuend
        self._subtrahend = subtrahend
        self._last_sub = _BOTTOM
        self._sub_exhausted = False
        self._done = False

    def next(self):
        if self._done:
            return None
        while True:
            item = self._minuend.next()
            if item is None:
                self._done = True
                return None
            while (
                not self._sub_exhausted
                and self._last_sub.left < item.left
                and self._last_sub.right < item.right
            ):
                sub = self._subtrahend.next()
                if sub is None:
                    self._sub_exhausted = True
                else:
                    self._last_sub = sub
            if self._sub_exhausted or not contains(item, self._last_sub):
                return item


def or_merge(streams) -> IntervalStream:
    return OrMerge(streams)

def and_span(streams) -> IntervalStream:
    return AndSpan(streams)

def block(streams) -> IntervalStream:
    return BlockConcat(streams)

def ordered_and(streams) -> IntervalStream:
    return OrderedSpan(streams)

def lowpass(stream, k: int) -> IntervalStream:
    return LowPassFilter(stream, k)

def difference(minuend, subtrahend) -> IntervalStream:
    return Difference(minuend, subtrahend)
