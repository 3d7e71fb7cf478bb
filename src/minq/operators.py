"""The six lazy operators over antichain streams.

Each operator is an :class:`~minq.streams.IntervalStream` that pulls from
its inputs as little as possible per emitted interval:

* ``or_merge`` / ``and_span`` ride an indirect priority queue (end order
  for the merge, start order for the span conjunction) and advance it one
  element at a time.
* ``block``, ``ordered_and`` and ``difference`` advance their inputs
  greedily, keeping one current interval per list.
* ``lowpass`` is a plain length filter.

The six names are the operator classes themselves (``or_merge`` is
:class:`OrMerge`, ``and_span`` :class:`AndSpan`, ``block``
:class:`BlockConcat`, ``ordered_and`` :class:`OrderedSpan`, ``lowpass``
:class:`LowPassFilter`, ``difference`` :class:`Difference`), so calling a
name constructs the operator.

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

Five of the operators also have an int kernel (``or_kernel``,
``and_kernel``, ``block_kernel``, ``ordered_kernel``, ``difference_kernel``):
a generator over position-list iterators that makes the class's reads on
singleton inputs without building an interval per read. The engine runs
one, wrapped in a :class:`KernelStream`, for a node whose operands are all
terms.
"""

from functools import partial

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

    The first pull reads every input's first interval and enqueues those
    that exist. ``next`` reads the queue's ``_heap`` and
    ``reference`` directly, since the top test runs once per posting read.
    """

    def __init__(self, streams, order):
        self._streams = _require_inputs(streams)
        self.queue = IndirectQueue(len(self._streams), order)
        self._last_left = NEG_INF
        self._started = False

    def _start(self, firsts):
        queue = self.queue
        for i, first in enumerate(firsts):
            if first is not None:
                queue.enqueue(i, first)
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
        if not self._started:
            self._start([stream.next() for stream in self._streams])
        q = self.queue
        heap, ref, streams = q._heap, q.reference, self._streams
        last_left = self._last_left
        while heap and ref[heap[0]].left <= last_left:
            advance(q, streams)
        if not heap:
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
    the moment the queue stops being full; with an empty operand nothing is
    enqueued.
    """

    def __init__(self, streams):
        super().__init__(streams, cmp_start)

    def next(self):
        if not self._started:
            firsts = _first_reads(self._streams)
            if firsts is None:
                self._started = True
                return None
            self._start(firsts)
        q = self.queue
        heap, ref, streams = q._heap, q.reference, self._streams
        m = len(streams)
        last_left = self._last_left
        while len(heap) == m and ref[heap[0]].left == last_left:
            advance(q, streams)
        if len(heap) < m:
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


or_merge = OrMerge
and_span = AndSpan
block = BlockConcat
ordered_and = OrderedSpan
lowpass = LowPassFilter
difference = Difference


# -- int kernels over term position lists --------------------------------
#
# When every operand of a node is a term, the engine runs one of these
# generators over iterators of the index's position lists (strictly
# increasing ints). Each makes exactly the reads of the class it
# stands in for, terminal read included, and builds an Interval only for
# what it yields. The queue kernels keep IndirectQueue's heap over
# ``position * m + list index`` keys: one int comparison then decides the
# same order and tie-break (smaller list index first) as the comparator on
# singletons, so the heap makes the same moves and the same counts, which
# the kernel publishes on ``counts`` each time it yields or ends.


class QueueCounts:
    """Queue work of a queue kernel, named as on :class:`IndirectQueue`."""

    __slots__ = ("mutations", "comparisons", "max_mutation_comparisons")

    def __init__(self):
        self.mutations = self.comparisons = self.max_mutation_comparisons = 0


class KernelStream(IntervalStream):
    """A kernel run over position lists, as an interval stream."""

    def __init__(self, kernel, position_lists):
        if not position_lists:
            raise ValueError("operator needs at least one input stream")
        self.counts = QueueCounts()
        gen = kernel([iter(positions) for positions in position_lists], self.counts)
        self.next = partial(next, gen, None)


def _enqueue_all(firsts, counts):
    """The heap of keys over the first positions, and the sift-up comparisons.

    Enqueues in list order, skipping missing lists, as ``_start`` does.
    """
    m = len(firsts)
    heap = []
    comparisons = most = 0
    for i, p in enumerate(firsts):
        if p is None:
            continue
        key = p * m + i
        slot = len(heap)
        heap.append(key)
        used = 0
        while slot:
            parent = (slot - 1) >> 1
            above = heap[parent]
            used += 1
            if key > above:
                break
            heap[slot] = above
            slot = parent
        heap[slot] = key
        comparisons += used
        if used > most:
            most = used
    counts.mutations = len(heap)
    counts.comparisons = comparisons
    counts.max_mutation_comparisons = most
    return heap


def or_kernel(iterators, counts):
    """:class:`OrMerge` over singletons of position lists."""
    m = len(iterators)
    heap = _enqueue_all([next(it, None) for it in iterators], counts)
    mutations = counts.mutations
    comparisons = counts.comparisons
    most = counts.max_mutation_comparisons
    bound = NEG_INF  # keys below it are at or before the last output
    while True:
        while heap and heap[0] < bound:
            i = heap[0] % m
            p = next(iterators[i], None)
            key = heap.pop() if p is None else p * m + i
            mutations += 1
            if heap:
                n = len(heap)
                slot, child, used = 0, 1, 0
                while child < n:
                    best = heap[child]
                    if child + 1 < n:
                        used += 1
                        other = heap[child + 1]
                        if other < best:
                            child += 1
                            best = other
                    used += 1
                    if best > key:
                        break
                    heap[slot] = best
                    slot = child
                    child = 2 * slot + 1
                heap[slot] = key
                comparisons += used
                if used > most:
                    most = used
        counts.mutations = mutations
        counts.comparisons = comparisons
        counts.max_mutation_comparisons = most
        if not heap:
            return
        p = heap[0] // m
        bound = (p + 1) * m
        yield Interval(p, p)


def and_kernel(iterators, counts):
    """:class:`AndSpan` over singletons of position lists."""
    m = len(iterators)
    firsts = [next(it, None) for it in iterators]
    if None in firsts:
        return
    heap = _enqueue_all(firsts, counts)
    mutations = counts.mutations
    comparisons = counts.comparisons
    most = counts.max_mutation_comparisons
    right = max(firsts)  # the queue's right extreme
    bound = NEG_INF  # keys below it start at the last output's left
    while True:
        top = heap[0]
        if top < bound:
            left = None  # skipping past the last output
        else:
            left = top // m
            if left == right:
                bound = (left + 1) * m
                counts.mutations = mutations
                counts.comparisons = comparisons
                counts.max_mutation_comparisons = most
                yield Interval(left, left)
                continue
            span_right = right
        i = top % m
        p = next(iterators[i], None)
        if p is None:
            key = heap.pop()
        else:
            key = p * m + i
            if p > right:
                right = p
        mutations += 1
        n = len(heap)
        slot, child, used = 0, 1, 0
        while child < n:
            best = heap[child]
            if child + 1 < n:
                used += 1
                other = heap[child + 1]
                if other < best:
                    child += 1
                    best = other
            used += 1
            if best > key:
                break
            heap[slot] = best
            slot = child
            child = 2 * slot + 1
        if n:
            heap[slot] = key
        comparisons += used
        if used > most:
            most = used
        if p is None or (left is not None and right != span_right):
            counts.mutations = mutations
            counts.comparisons = comparisons
            counts.max_mutation_comparisons = most
            if left is not None:
                bound = (left + 1) * m
                yield Interval(left, span_right)
            if p is None:
                return


def block_kernel(iterators, counts):
    """:class:`BlockConcat` over singletons of position lists."""
    m = len(iterators)
    cur = [next(it, None) for it in iterators]
    if None in cur:
        return
    first = iterators[0]
    while True:
        i = 1
        while i < m:
            prev = cur[i - 1]
            p = cur[i]
            if p <= prev:
                it = iterators[i]
                while True:
                    p = next(it, None)
                    if p is None:
                        return
                    if p > prev:
                        break
                cur[i] = p
            if p == prev + 1:
                i += 1
            else:
                head = next(first, None)
                if head is None:
                    return
                cur[0] = head
                i = 1
        yield Interval(cur[0], cur[m - 1])
        head = next(first, None)
        if head is None:
            return
        cur[0] = head


def _ordered_step(cur, iterators, i):
    """One :meth:`OrderedSpan.next` from alignment point ``i``.

    Returns the candidate (``None`` if there is none), the alignment point
    to resume from, and whether an input ran dry.
    """
    m = len(cur)
    candidate = None
    barrier = POS_INF
    while True:
        while True:
            prev = cur[i - 1]
            if prev >= barrier:
                return candidate, i, False
            if i == m or cur[i] > prev:
                break
            it = iterators[i]
            while True:
                if cur[i] >= barrier:
                    return candidate, i, False
                p = next(it, None)
                if p is None:
                    return candidate, i, True
                cur[i] = p
                if p > prev:
                    break
            i += 1
        candidate = Interval(cur[0], cur[m - 1])
        barrier = cur[m - 1]
        i = 1
        head = next(iterators[0], None)
        if head is None:
            return candidate, i, True
        cur[0] = head


def ordered_kernel(iterators, counts):
    """:class:`OrderedSpan` over singletons of position lists."""
    m = len(iterators)
    cur = [next(it, None) for it in iterators]
    if None in cur:
        return
    for i in range(1, m):
        while cur[i] <= cur[i - 1]:
            p = next(iterators[i], None)
            if p is None:
                return
            cur[i] = p
    i = m
    while True:
        candidate, i, ended = _ordered_step(cur, iterators, i)
        if candidate is None:
            return
        yield candidate
        if ended:
            return


def difference_kernel(iterators, counts):
    """:class:`Difference` over singletons of two position lists."""
    minuend, subtrahend = iterators
    last = NEG_INF
    exhausted = False
    for p in minuend:
        while not exhausted and last < p:
            s = next(subtrahend, None)
            if s is None:
                exhausted = True
            else:
                last = s
        if exhausted or last != p:
            yield Interval(p, p)
