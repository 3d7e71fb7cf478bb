"""Shared fixtures-in-spirit: worked-example data, random generators, the
reference queues and operator classes, prefix-check composition and the
per-token reference index build."""

import random
import re
import struct
import zlib
from array import array

from minq import (
    Interval,
    NEG_INF,
    POS_INF,
    PositionalIndex,
    cmp_end,
    cmp_start,
    contains,
    length,
)
from minq.index import OFFSET_STRIDE, DocInfo, TermPostings, source_digest
from minq.streams import IntervalStream, ListStream

# Term positions of the rhyme corpus (tests/data/rhyme.txt).
PEASE = (0, 3, 6, 31, 34)
PORRIDGE = (1, 4, 7, 32, 35)
HOT_OR_COLD = (2, 5, 17, 21, 33, 36)

# AND of the three singleton sets above.
RHYME_ANTICHAIN = [
    Interval(l, r)
    for l, r in [
        (0, 2), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (6, 17),
        (7, 31), (21, 32), (31, 33), (32, 34), (33, 35), (34, 36),
    ]
]


def singletons(positions):
    return [Interval(p, p) for p in positions]


def random_antichain(rng: random.Random, max_len=12, max_pos=63, allow_empty=True):
    """Antichain in natural order: strictly increasing lefts and rights."""
    sizes = [0, 1, 1, 2, 2, 3, 3, 4, 5, 6, 8, max_len]
    n = rng.choice(sizes if allow_empty else sizes[1:])
    out = []
    left = rng.randint(0, 5) if n else 0
    right = left - 1
    for _ in range(n):
        r = max(left, right + 1)
        if rng.random() < 0.4:
            r += rng.randint(0, 4)
        if r > max_pos:
            break
        out.append(Interval(left, r))
        right = r
        left += rng.randint(1, 4)
        if left > max_pos:
            break
    if not allow_empty and not out:
        out = [Interval(0, 0)]
    return out


def singleton_antichain(rng: random.Random, max_len=12, max_pos=63):
    n = rng.randint(0, max_len)
    return singletons(sorted(rng.sample(range(max_pos + 1), n)))


def random_inputs(rng: random.Random, max_m=5, allow_empty=True):
    m = rng.randint(1, max_m)
    gen = singleton_antichain if rng.random() < 0.3 else random_antichain
    if gen is singleton_antichain:
        inputs = [gen(rng) for _ in range(m)]
        if not allow_empty:
            inputs = [a or [Interval(0, 0)] for a in inputs]
        return inputs
    return [gen(rng, allow_empty=allow_empty) for _ in range(m)]


class CountedIterator:
    """Iterator over a list (positions or pairs) that counts its ``next`` calls.

    It appends itself to ``leaves`` when made, so a run's leaves can be
    read back in the order they were opened.
    """

    def __init__(self, positions, leaves):
        self._inner = list.__iter__(positions)
        self.reads = 0
        leaves.append(self)

    def __iter__(self):
        return self

    def __next__(self):
        self.reads += 1
        return next(self._inner)


class CountedSingletons(IntervalStream):
    """Endless-feeling singleton source for space/laziness probes."""

    def __init__(self, start=0, step=2, limit=10**6):
        self._next = start
        self._step = step
        self._left = limit
        self.pulled = 0

    def next(self):
        self.pulled += 1
        if self._left == 0:
            return None
        self._left -= 1
        value = self._next
        self._next += self._step
        return Interval(value, value)


# Reference implementations of the operators: an indirect priority queue
# over a reference array of per-list intervals, and one instrumented class
# per operator over interval streams, as the paper states them. The shipped
# generators in minq.operators must make the very same reads, outputs and
# queue counts (tests/test_generators.py).
#
# The queue holds *indices* into a reference array with one interval slot
# per input list; priorities come from cmp_end (the merge) or cmp_start (the
# span conjunction), ties broken toward the smallest list index. enqueue
# stores each list's first interval, and every later read goes through
# advance, which stores the top list's next interval or drops the list. The
# queue also keeps right_extreme, the running maximum right extreme over
# every interval ever stored. The heap is binary; only the top is ever
# changed or removed. Mutation and comparison counts are tracked.


class EmptyQueueError(Exception):
    """dequeue/advance requested on a queue holding no indices."""


class IndirectQueue:
    def __init__(self, size: int, compare):
        if compare is not cmp_end and compare is not cmp_start:
            raise ValueError("the queue orders by cmp_end or cmp_start only")
        self.reference: list[Interval | None] = [None] * size
        self.right_extreme = NEG_INF
        self._cmp = compare
        self._heap: list[int] = []
        self.mutations = 0
        self.comparisons = 0
        self.max_mutation_comparisons = 0

    def enqueue(self, index: int, interval: Interval) -> None:
        """Store ``interval`` in slot ``index`` and add the index to the heap."""
        self.reference[index] = interval
        if interval.right > self.right_extreme:
            self.right_extreme = interval.right
        heap = self._heap
        heap.append(index)
        self._account(self._sift_up(len(heap) - 1))

    def dequeue(self) -> int:
        heap = self._heap
        if not heap:
            raise EmptyQueueError("dequeue of empty queue")
        result = heap[0]
        last = heap.pop()
        used = 0
        if heap:
            heap[0] = last
            used = self._sift_down(0)
        self._account(used)
        return result

    def _account(self, used):
        self.comparisons += used
        if used > self.max_mutation_comparisons:
            self.max_mutation_comparisons = used
        self.mutations += 1

    def _sift_up(self, slot: int) -> int:
        """Move the index at ``slot`` up into place; returns the comparisons made."""
        heap, ref, cmp = self._heap, self.reference, self._cmp
        index = heap[slot]
        item = ref[index]
        used = 0
        while slot > 0:
            parent = (slot - 1) // 2
            above = heap[parent]
            c = cmp(item, ref[above])
            used += 1
            if c > 0 or (c == 0 and index > above):
                break
            heap[slot] = above
            slot = parent
        heap[slot] = index
        return used

    def _sift_down(self, slot: int) -> int:
        """Move the index at ``slot`` down into place; returns the comparisons made.

        The moving index is held aside while smaller children shift up into
        the hole, so each level costs the same one or two comparisons as a
        swap-based sift but writes each moved index once.
        """
        heap, ref, cmp = self._heap, self.reference, self._cmp
        n = len(heap)
        index = heap[slot]
        item = ref[index]
        used = 0
        child = 2 * slot + 1
        while child < n:
            best = heap[child]
            best_item = ref[best]
            if child + 1 < n:
                other = heap[child + 1]
                other_item = ref[other]
                c = cmp(other_item, best_item)
                used += 1
                if c < 0 or (c == 0 and other < best):
                    child += 1
                    best, best_item = other, other_item
            c = cmp(best_item, item)
            used += 1
            if c > 0 or (c == 0 and best > index):
                break
            heap[slot] = best
            slot = child
            child = 2 * slot + 1
        heap[slot] = index
        return used


def advance(queue: IndirectQueue, streams) -> None:
    """Replace the top slot with its list's next interval, or drop the list.

    Reads exactly one element from the list bound to the top index: a real
    interval lands in the reference array and is sifted into place (one
    mutation), a terminal dequeues the index for good. The sift and its
    accounting run inline, with the comparisons of the queue's order
    written out, making the same heap moves and counts as
    :meth:`_sift_down`.
    """
    heap = queue._heap
    if not heap:
        raise EmptyQueueError("advance on empty queue")
    index = heap[0]
    item = streams[index].next()
    if item is None:
        queue.dequeue()
        return
    ref = queue.reference
    ref[index] = item
    left, right = item.left, item.right
    if right > queue.right_extreme:
        queue.right_extreme = right
    n = len(heap)
    slot, child, used = 0, 1, 0
    if queue._cmp is cmp_end:
        while child < n:
            best = heap[child]
            b = ref[best]
            if child + 1 < n:
                used += 1
                other = heap[child + 1]
                o = ref[other]
                if o.right < b.right or o.right == b.right and (
                    o.left > b.left or o.left == b.left and other < best
                ):
                    child += 1
                    best, b = other, o
            used += 1
            if b.right > right or b.right == right and (
                b.left < left or b.left == left and best > index
            ):
                break
            heap[slot] = best
            slot = child
            child = 2 * slot + 1
        heap[slot] = index
    else:
        while child < n:
            best = heap[child]
            b = ref[best]
            if child + 1 < n:
                used += 1
                other = heap[child + 1]
                o = ref[other]
                if o.left < b.left or o.left == b.left and (
                    o.right > b.right or o.right == b.right and other < best
                ):
                    child += 1
                    best, b = other, o
            used += 1
            if b.left > left or b.left == left and (
                b.right < right or b.right == right and best > index
            ):
                break
            heap[slot] = best
            slot = child
            child = 2 * slot + 1
        heap[slot] = index
    queue.comparisons += used
    if used > queue.max_mutation_comparisons:
        queue.max_mutation_comparisons = used
    queue.mutations += 1


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


class LinearScanQueue:
    """Array-backed variant: O(1) mutations, O(m) top retrieval.

    Same contract and tie-breaking as :class:`IndirectQueue` and
    :func:`advance`; kept as the obviously-correct reference for
    differential tests.
    """

    def __init__(self, size: int, compare):
        self.reference: list[Interval | None] = [None] * size
        self.right_extreme = NEG_INF
        self._cmp = compare
        self._members: list[int] = []

    def __len__(self):
        return len(self._members)

    def top_index(self):
        if not self._members:
            raise EmptyQueueError("top of empty queue")
        best = self._members[0]
        for index in self._members[1:]:
            c = self._cmp(self.reference[index], self.reference[best])
            if c < 0 or (c == 0 and index < best):
                best = index
        return best

    def _store(self, index, interval):
        self.reference[index] = interval
        if interval.right > self.right_extreme:
            self.right_extreme = interval.right

    def enqueue(self, index, interval):
        self._store(index, interval)
        self._members.append(index)

    def dequeue(self):
        result = self.top_index()
        self._members.remove(result)
        return result

    def advance(self, streams):
        index = self.top_index()
        item = streams[index].next()
        if item is None:
            self._members.remove(index)
        else:
            self._store(index, item)


# Prefix-check composition: the general form of the empty-operand check
# that and_span, block and ordered_and make themselves. Star transparency
# (acceptance criterion 7) and the engine's reference compile run on it.


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


# Letters, digits, the underscore, the benchmark corpus's accented letters,
# a dotted capital I (it folds to two code points), combining marks,
# punctuation and whitespace: the characters tokenizer properties draw on.
TEXT_CHARS = "aZ09_éèüöåøñçÉÜİ\u0301\u0307-.,'!? \t\n"

_REFERENCE_WORD = re.compile(r"[^\W_]+")


def reference_tokenize(text):
    """Tokenization one match at a time over the case-folded text."""
    return [
        (m.group(), pos)
        for pos, m in enumerate(_REFERENCE_WORD.finditer(text.casefold()))
    ]


def reference_build(documents):
    """Index built one token at a time, as the obviously-correct reference."""
    docs, by_term = [], {}
    for path, text in documents:
        doc_id = len(docs)
        tokens = reference_tokenize(text)
        folded = text.casefold()
        starts = [m.start() for m in _REFERENCE_WORD.finditer(folded)]
        offsets = array("Q", starts[::OFFSET_STRIDE] + [len(folded)])
        digest = source_digest(text.encode("utf-8"), len(tokens), offsets)
        docs.append(DocInfo(path=path, word_count=len(tokens), digest=digest, offsets=offsets))
        for term, pos in tokens:
            by_term.setdefault(term, {}).setdefault(doc_id, []).append(pos)
    return PositionalIndex(docs, {term: postings_of(runs) for term, runs in by_term.items()})


def u32s(values=()) -> array:
    """An array of unsigned ints, as :class:`TermPostings` columns are compared."""
    return array("I", values)


def postings_of(runs):
    """The :class:`TermPostings` of a dict of doc id -> positions, in doc order."""
    starts, positions = [0], []
    for run in runs.values():
        positions.extend(run)
        starts.append(len(positions))
    return TermPostings(u32s(runs), u32s(starts), u32s(positions))


# IVX4 files taken apart and put back together, written here from the
# format's description rather than with minq.index, so that the tests check
# the format and not the code against itself.
IVX4_BLOCK = 1 << 16  # numbers per block of byte planes


def u32_planes(values) -> bytes:
    """u32s as an IVX4 stream holds them: per block, its four little-endian byte planes."""
    out = []
    for at in range(0, len(values), IVX4_BLOCK):
        block = values[at : at + IVX4_BLOCK]
        raw = struct.pack(f"<{len(block)}I", *block)
        out += [raw[k::4] for k in range(4)]
    return b"".join(out)


def u32s_from_planes(data: bytes) -> list[int]:
    """The u32s of a stream of byte planes; the inverse of :func:`u32_planes`."""
    values = []
    for at in range(0, len(data), 4 * IVX4_BLOCK):
        block = data[at : at + 4 * IVX4_BLOCK]
        n = len(block) // 4
        values += [sum(block[k * n + i] << 8 * k for k in range(4)) for i in range(n)]
    return values


def ivx4_sealed(body: bytes) -> bytes:
    """``body`` (a header and frames) with its CRC-32 footer."""
    return body + struct.pack("<I", zlib.crc32(body))


def ivx4_frame(packed: bytes) -> bytes:
    """A deflated stream after its u32 byte length."""
    return struct.pack("<I", len(packed)) + packed


def ivx4_file(header: bytes, streams) -> bytes:
    """A sealed IVX4 file of a 16-byte header and the streams' inflated bytes."""
    return ivx4_sealed(header + b"".join(ivx4_frame(zlib.compress(s, 1)) for s in streams))


def ivx4_streams(data: bytes) -> tuple[bytes, list[bytes]]:
    """The header and inflated streams of an IVX4 file; its footer and framing must hold."""
    assert struct.unpack("<I", data[-4:])[0] == zlib.crc32(data[:-4])
    at, streams = 16, []
    while at < len(data) - 4:
        (size,) = struct.unpack_from("<I", data, at)
        inflater = zlib.decompressobj()
        streams.append(inflater.decompress(data[at + 4 : at + 4 + size]))
        assert inflater.eof and not inflater.unused_data
        at += 4 + size
    assert at == len(data) - 4 and len(streams) == 8
    return data[:16], streams
