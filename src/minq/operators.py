"""The six lazy operators, as generators over ``(left, right)`` int pairs.

Each operator is one generator over iterators of antichains given as
``(left, right)`` tuples in natural order, and it yields its own antichain
the same way; a term's positions enter as singleton ``(p, p)`` pairs
(:func:`minq.index.run`). It pulls from its inputs as little as possible
per yielded pair:

* ``or_pairs`` / ``and_pairs`` keep a binary heap with one key per input
  list (end order for the merge, start order for the span conjunction) and
  replace the top one read at a time;
* ``block_pairs``, ``ordered_pairs`` and ``difference_pairs`` advance their
  inputs greedily, keeping one current pair per list;
* ``lowpass_pairs`` is a plain length filter.

Nothing is read before the first pull; the first pull reads one element
from every input (difference: from the minuend), so an empty operand ends
the span conjunction, block and ordered conjunction after exactly those
reads. An input that has ended is never pulled again, nor is any input
once the operator has ended. State is one pair or heap key plus a few
scalars per input list, so space stays linear in the operand count.

The heap keys are tuples, ``(right, -left, i)`` for the merge and ``(left,
-right, i)`` for the span conjunction: one tuple comparison decides the
interval order, ties going to the smaller list index ``i``. The sifts are
written out in each generator and counted once per comparison; the counts
are published on a :class:`QueueCounts` each time the generator yields or
ends.

The public names ``or_merge``, ``and_span``, ``block``, ``ordered_and``,
``lowpass`` and ``difference`` adapt the generators to
:class:`~minq.streams.IntervalStream` inputs, whose intervals are already
pairs, and output, as a :class:`~minq.streams.PairStream`. The engine runs
none of them.
"""

from .intervals import NEG_INF, POS_INF
from .streams import IntervalStream, PairStream, _pairs


class QueueCounts:
    """Heap work of a merge or span conjunction.

    ``mutations`` counts stores and removals, ``comparisons`` the key
    comparisons they made and ``max_mutation_comparisons`` the most made
    by one mutation.
    """

    __slots__ = ("mutations", "comparisons", "max_mutation_comparisons")

    def __init__(self):
        self.mutations = self.comparisons = self.max_mutation_comparisons = 0


def _enqueue_all(keys, counts):
    """The heap of ``keys``, each sifted up in turn; counts the work on ``counts``."""
    heap = []
    comparisons = most = 0
    for key in keys:
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


def or_pairs(iterators, counts):
    """Minimal intervals of the union of the inputs, merged lazily.

    After each output the top is replaced while it starts at or before the
    output; because the top's right extreme only grows, that test is the
    containment test.
    """
    firsts = [next(it, None) for it in iterators]
    heap = _enqueue_all(
        [(first[1], -first[0], i) for i, first in enumerate(firsts) if first is not None],
        counts,
    )
    mutations = counts.mutations
    comparisons = counts.comparisons
    most = counts.max_mutation_comparisons
    n = len(heap)
    stop = POS_INF  # minus the last output's left extreme
    while True:
        while n and heap[0][1] >= stop:
            i = heap[0][2]
            pair = next(iterators[i], None)
            if pair is None:
                key = heap.pop()
                n -= 1
            else:
                key = (pair[1], -pair[0], i)
            mutations += 1
            if n:
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
        if not n:
            return
        right, stop, _ = heap[0]
        yield -stop, right


def and_pairs(iterators, counts):
    """Minimal intervals spanned by one interval per input.

    The candidate spans the top's left extreme to the largest right extreme
    read so far; it is refined while further replacements keep that right
    extreme, and it is the top itself when their right extremes meet. Tops
    starting where the last output started are skipped. Output ends for good
    the moment an input ends.
    """
    firsts = [next(it, None) for it in iterators]
    if None in firsts:
        return
    m = len(firsts)
    heap = _enqueue_all([(first[0], -first[1], i) for i, first in enumerate(firsts)], counts)
    mutations = counts.mutations
    comparisons = counts.comparisons
    most = counts.max_mutation_comparisons
    right = max(first[1] for first in firsts)
    last = NEG_INF  # the last output's left extreme
    while True:
        left, top_right, i = heap[0]
        if left == last:
            span = None  # skipping past the last output
        elif -top_right == right:
            last = left
            counts.mutations = mutations
            counts.comparisons = comparisons
            counts.max_mutation_comparisons = most
            yield left, right
            continue
        else:
            span = right
        pair = next(iterators[i], None)
        n = m
        if pair is None:
            key = heap.pop()
            n -= 1
        else:
            key = (pair[0], -pair[1], i)
            if pair[1] > right:
                right = pair[1]
        mutations += 1
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
        if pair is None or (span is not None and right != span):
            counts.mutations = mutations
            counts.comparisons = comparisons
            counts.max_mutation_comparisons = most
            if span is not None:
                last = left
                yield left, span
            if pair is None:
                return


def block_pairs(iterators):
    """Spans of chains of exactly adjacent intervals, one per input.

    The first attempt starts from every list's first pair; each later one
    reads the first list once. An attempt aligns each later list until its
    pair starts past the previous one's right extreme; an exact +1
    adjacency extends the chain, a gap restarts from the first list.
    """
    cur = [next(it, None) for it in iterators]
    if None in cur:
        return
    m = len(cur)
    first = iterators[0]
    while True:
        i = 1
        while i < m:
            prev = cur[i - 1][1]
            left = cur[i][0]
            if left <= prev:
                it = iterators[i]
                while True:
                    pair = next(it, None)
                    if pair is None:
                        return
                    if pair[0] > prev:
                        break
                cur[i] = pair
                left = pair[0]
            if left == prev + 1:
                i += 1
            else:
                head = next(first, None)
                if head is None:
                    return
                cur[0] = head
                i = 1
        yield cur[0][0], cur[m - 1][1]
        head = next(first, None)
        if head is None:
            return
        cur[0] = head


def ordered_pairs(iterators):
    """Minimal spans of strictly ordered non-overlapping chains.

    The first chain is aligned from every list's first pair. Later, list
    ``i`` is aligned until its pair starts past list ``i-1``'s; a completed
    chain becomes the candidate and its last component's left extreme the
    barrier, and the next chain starts from the first list's next pair. The
    candidate is yielded as soon as an aligning read would have to land at
    or past the barrier, or an input ends; it is refined only while new
    chains keep its right extreme. An aligned pair in list ``i`` completes
    a chain, since lists after ``i`` were aligned for the previous one.
    """
    cur = [next(it, None) for it in iterators]
    if None in cur:
        return
    m = len(cur)
    for i in range(1, m):
        prev = cur[i - 1][1]
        while cur[i][0] <= prev:
            pair = next(iterators[i], None)
            if pair is None:
                return
            cur[i] = pair
    i = m
    barrier = POS_INF  # finite exactly while a candidate is held
    while True:
        prev = cur[i - 1][1]
        if prev >= barrier:
            yield candidate
            barrier = POS_INF
        if i < m and cur[i][0] <= prev:
            it = iterators[i]
            while True:
                if cur[i][1] >= barrier:
                    yield candidate
                    barrier = POS_INF
                pair = next(it, None)
                if pair is None:
                    if barrier < POS_INF:
                        yield candidate
                    return
                cur[i] = pair
                if pair[0] > prev:
                    break
            i += 1
            continue
        candidate = (cur[0][0], cur[m - 1][1])
        barrier = cur[m - 1][0]
        i = 1
        head = next(iterators[0], None)
        if head is None:
            yield candidate
            return
        cur[0] = head


def lowpass_pairs(pairs, k):
    """Only the pairs covering at most ``k`` positions."""
    if k < 1:
        raise ValueError(f"lowpass threshold must be positive, got {k}")
    return (pair for pair in pairs if pair[1] - pair[0] < k)


def difference_pairs(minuend, subtrahend):
    """Minuend pairs containing no subtrahend pair.

    For each minuend pair the subtrahend is read only while its current
    pair starts and ends strictly before the minuend pair's extremes; the
    minuend pair survives unless the pair it stops at lies inside it. Once
    the subtrahend ends, every later minuend pair survives.
    """
    sub_left = sub_right = NEG_INF
    for pair in minuend:
        left, right = pair
        while sub_left < left and sub_right < right:
            sub = next(subtrahend, None)
            if sub is None:
                yield pair
                yield from minuend
                return
            sub_left, sub_right = sub
        if sub_left < left or right < sub_right:
            yield pair


# -- adapters from interval streams ---------------------------------------


def _inputs(streams):
    if not streams:
        raise ValueError("operator needs at least one input stream")
    return [_pairs(stream) for stream in streams]


def or_merge(streams) -> PairStream:
    counts = QueueCounts()
    return PairStream(or_pairs(_inputs(streams), counts), counts)


def and_span(streams) -> PairStream:
    counts = QueueCounts()
    return PairStream(and_pairs(_inputs(streams), counts), counts)


def block(streams) -> PairStream:
    return PairStream(block_pairs(_inputs(streams)))


def ordered_and(streams) -> PairStream:
    return PairStream(ordered_pairs(_inputs(streams)))


def lowpass(stream: IntervalStream, k: int) -> PairStream:
    return PairStream(lowpass_pairs(_pairs(stream), k))


def difference(minuend: IntervalStream, subtrahend: IntervalStream) -> PairStream:
    return PairStream(difference_pairs(_pairs(minuend), _pairs(subtrahend)))
