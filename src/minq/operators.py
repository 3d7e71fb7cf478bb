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
them and everything else terminates. Block and ordered conjunction may
read later inputs before they reach an empty one, so the evaluation layer
puts a :func:`~minq.streams.star_compose` emptiness check in front of those
two only. Construction reads nothing; the first pull does.

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


class _QueueOperator(IntervalStream):
    """Inputs, queue and output state shared by the two queue-driven operators.

    The first pull loads every input's first interval into the queue,
    leaving out inputs that are already exhausted. ``next`` reads the
    queue's ``_heap`` and ``reference`` directly, since the top test runs
    once per posting read.
    """

    def __init__(self, streams, order):
        self._streams = _require_inputs(streams)
        self.queue = IndirectQueue(len(self._streams), order)
        self._last_left = NEG_INF
        self._started = False
        self._done = False

    def _start(self):
        queue = self.queue
        for i, stream in enumerate(self._streams):
            first = stream.next()
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
            self._start()
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
    the moment the queue stops being full.
    """

    def __init__(self, streams):
        super().__init__(streams, cmp_start)

    def next(self):
        if self._done:
            return None
        if not self._started:
            self._start()
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

    Advances the first list once per attempt, then aligns each later list
    until its interval starts past the previous one's right extreme; an
    exact +1 adjacency extends the chain, a gap restarts from the first
    list.
    """

    def __init__(self, streams):
        self._streams = _require_inputs(streams)
        self._cur = [_BOTTOM] * len(self._streams)
        self._done = False

    def next(self):
        if self._done:
            return None
        cur = self._cur
        streams = self._streams
        m = len(streams)
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
    """

    def __init__(self, streams):
        self._streams = _require_inputs(streams)
        self._cur = [_BOTTOM] * len(self._streams)
        self._i = 1
        self._started = False
        self._done = False

    def _emit(self, candidate):
        if candidate is None:
            self._done = True
        return candidate

    def next(self):
        if self._done:
            return None
        cur = self._cur
        streams = self._streams
        m = len(streams)
        if not self._started:
            self._started = True
            head = streams[0].next()
            if head is None:
                self._done = True
                return None
            cur[0] = head
        candidate = None
        barrier = POS_INF
        i = self._i
        try:
            while True:
                while True:
                    if cur[i - 1].right >= barrier:
                        return self._emit(candidate)
                    if i == m or cur[i].left > cur[i - 1].right:
                        break
                    while True:
                        if cur[i].right >= barrier:
                            return self._emit(candidate)
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
