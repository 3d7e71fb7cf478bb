"""Indirect priority queue over a reference array of per-list intervals.

The queue holds *indices* into a reference array with one interval slot per
input list; priorities come from a three-way comparator over the slots,
with ties broken toward the smallest list index so that runs are exactly
reproducible. Only the top slot may change value between :meth:`change`
notifications.

The queue also maintains ``right_extreme``, the running maximum right
extreme over every interval ever loaded into the reference array, so that
:meth:`span_of` can produce the interval stretching from the current top's
left extreme to that maximum.

The backing structure is a binary min-heap over indices plus an inverse
position map, giving O(log m) mutations and O(1) top access. Mutation and
comparison counts are tracked so tests can pin the operation-count bounds.
Instances are single-threaded.

:func:`advance` is the operators' per-read step, so it works on ``_heap``
and ``reference`` directly: it reads the top list's next interval, stores
it and sifts it down in one pass (the comparator called inline, the
comparisons counted once per sift), with the same heap moves and counts
that :meth:`load` plus :meth:`change` make. ``_heap`` is never rebound, so
operators may hold on to it and test ``heap[0]`` and ``len(heap)``.
"""

from .intervals import Interval, NEG_INF


class EmptyQueueError(Exception):
    """top/dequeue requested on a queue holding no indices."""


class IndirectQueue:
    def __init__(self, size: int, compare):
        self.reference: list[Interval | None] = [None] * size
        self.right_extreme = NEG_INF
        self._cmp = compare
        self._heap: list[int] = []
        self._pos = [-1] * size
        self.mutations = 0
        self.comparisons = 0
        self.max_mutation_comparisons = 0

    def load(self, index: int, interval: Interval) -> None:
        """Place an interval in a reference slot, tracking right_extreme."""
        self.reference[index] = interval
        if interval.right > self.right_extreme:
            self.right_extreme = interval.right

    def size(self) -> int:
        return len(self._heap)

    def top_index(self) -> int:
        if not self._heap:
            raise EmptyQueueError("top of empty queue")
        return self._heap[0]

    def top(self) -> Interval:
        return self.reference[self.top_index()]

    def span_of(self) -> Interval:
        """Interval from the top's left extreme to the queue right extreme."""
        return Interval(self.top().left, self.right_extreme)

    def enqueue(self, index: int) -> None:
        heap, pos = self._heap, self._pos
        pos[index] = len(heap)
        heap.append(index)
        self._account(self._sift_up(len(heap) - 1))

    def dequeue(self) -> int:
        heap = self._heap
        if not heap:
            raise EmptyQueueError("dequeue of empty queue")
        result = heap[0]
        self._pos[result] = -1
        last = heap.pop()
        used = 0
        if heap:
            heap[0] = last
            self._pos[last] = 0
            used = self._sift_down(0)
        self._account(used)
        return result

    def change(self) -> None:
        """Restore heap order after the top slot's value was replaced."""
        if not self._heap:
            raise EmptyQueueError("change on empty queue")
        self._account(self._sift_down(0))

    def _account(self, used):
        self.comparisons += used
        if used > self.max_mutation_comparisons:
            self.max_mutation_comparisons = used
        self.mutations += 1

    def _slot_less(self, a: int, b: int) -> bool:
        c = self._cmp(self.reference[a], self.reference[b])
        return c < 0 or (c == 0 and a < b)

    def _sift_up(self, slot: int) -> int:
        """Move the index at ``slot`` up into place; returns the comparisons made."""
        heap, pos = self._heap, self._pos
        used = 0
        while slot > 0:
            parent = (slot - 1) // 2
            used += 1
            if not self._slot_less(heap[slot], heap[parent]):
                break
            heap[slot], heap[parent] = heap[parent], heap[slot]
            pos[heap[slot]] = slot
            pos[heap[parent]] = parent
            slot = parent
        return used

    def _sift_down(self, slot: int) -> int:
        """Move the index at ``slot`` down into place; returns the comparisons made.

        The moving index is held aside while smaller children shift up into
        the hole, so each level costs the same one or two comparisons as a
        swap-based sift but writes each moved index once.
        """
        heap, pos, ref, cmp = self._heap, self._pos, self.reference, self._cmp
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
            pos[best] = slot
            slot = child
            child = 2 * slot + 1
        heap[slot] = index
        pos[index] = slot
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
