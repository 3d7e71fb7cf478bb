"""Indirect priority queue over a reference array of per-list intervals.

The queue holds *indices* into a reference array with one interval slot per
input list; priorities come from a three-way comparator over the slots,
with ties broken toward the smallest list index so that runs are exactly
reproducible. It is used the way the paper's merge and span conjunction use
it: :meth:`~IndirectQueue.enqueue` stores each list's first interval, and
every later read goes through :func:`advance`, the one top replacement,
which stores the top list's next interval or drops the list.

The queue also maintains ``right_extreme``, the running maximum right
extreme over every interval ever stored in the reference array; the span
conjunction's candidate stretches from the top's left extreme to it.

The backing structure is a binary min-heap over indices, giving O(log m)
mutations and O(1) top access. Only the top is ever changed or removed, so
no index is ever looked up by its heap position. Mutation and comparison
counts are tracked so tests can pin the operation-count bounds. Instances
are single-threaded.

:func:`advance` is the operators' per-read step, so it works on ``_heap``
and ``reference`` directly: it reads the top list's next interval, stores
it and sifts it down in one pass (the comparator called inline, the
comparisons counted once per sift). ``_heap`` is never rebound, so
operators read the top as ``reference[_heap[0]]`` and test ``len(_heap)``.
"""

from .intervals import Interval, NEG_INF


class EmptyQueueError(Exception):
    """dequeue/advance requested on a queue holding no indices."""


class IndirectQueue:
    def __init__(self, size: int, compare):
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
    mutation), a terminal dequeues the index for good.
    """
    heap = queue._heap
    if not heap:
        raise EmptyQueueError("advance on empty queue")
    index = heap[0]
    item = streams[index].next()
    if item is None:
        queue.dequeue()
        return
    queue.reference[index] = item
    if item.right > queue.right_extreme:
        queue.right_extreme = item.right
    queue._account(queue._sift_down(0))
