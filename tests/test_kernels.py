"""The int kernels against the operator classes they stand in for.

On singleton inputs a kernel must yield the same intervals after the same
per-input reads, end after the same reads (the terminal read included)
and, for the queue kernels, report the same queue work, within criterion
5's ceilings.
"""

import math
import random

import pytest

from minq import CountingStream, ListStream, and_span, block, difference, or_merge, ordered_and
from minq.operators import (
    KernelStream,
    and_kernel,
    block_kernel,
    difference_kernel,
    or_kernel,
    ordered_kernel,
)

from helpers import CountedIterator, singleton_antichain, singletons

SETS = 10_000

PAIRS = [
    (or_kernel, or_merge),
    (and_kernel, and_span),
    (block_kernel, block),
    (ordered_kernel, ordered_and),
    (difference_kernel, lambda streams: difference(*streams)),
]


def queue_counts(work):
    return (work.mutations, work.comparisons, work.max_mutation_comparisons)


def run_class(operator, lists, rows_read=True):
    """Outputs, read rows and queue work at each output, then the final reads.

    Without ``rows_read`` a row holds no reads, only the output and the work.
    """
    counters = [CountingStream(ListStream(singletons(p))) for p in lists]
    stream = operator(counters)
    rows = []
    while (item := stream.next()) is not None:
        work = queue_counts(stream.queue) if hasattr(stream, "queue") else None
        rows.append((item, rows_read and tuple(c.reads for c in counters), work))
    assert stream.next() is None
    work = queue_counts(stream.queue) if hasattr(stream, "queue") else None
    return rows, tuple(c.reads for c in counters), work


def run_kernel(kernel, lists, rows_read=True):
    leaves = []

    class Positions(list):
        def __iter__(self):
            return CountedIterator(self, leaves)

    stream = KernelStream(kernel, [Positions(p) for p in lists])
    queued = kernel in (or_kernel, and_kernel)
    rows = []
    while (item := stream.next()) is not None:
        work = queue_counts(stream.counts) if queued else None
        rows.append((item, rows_read and tuple(leaf.reads for leaf in leaves), work))
    assert stream.next() is None
    work = queue_counts(stream.counts) if queued else None
    return rows, tuple(leaf.reads for leaf in leaves), work


def test_kernels_equal_their_classes_on_random_singleton_inputs():
    rng = random.Random(0x5EED)
    for _ in range(SETS):
        m = rng.randint(1, 5)
        lists = [[iv.left for iv in singleton_antichain(rng)] for _ in range(m)]
        n = sum(map(len, lists))
        cap = (math.ceil(math.log2(m)) if m > 1 else 0) + 1
        for kernel, operator in PAIRS:
            take = lists
            if kernel is difference_kernel:
                take = [lists[0], lists[1] if m > 1 else []]
            expected = run_class(operator, take)
            assert run_kernel(kernel, take) == expected, (kernel.__name__, take)
            work = expected[2]
            if work is not None:
                assert work[0] <= n + m and work[2] <= cap


def test_or_kernel_sorts_like_the_merge():
    # Criterion 3's sorting reduction, up to n = 10,000 one-position lists.
    # Criterion 5's comparison ceiling is for its m <= 5 inputs; here the
    # queue work must equal the merge's and mutations stay within n + m.
    rng = random.Random(3)
    for n in (1, 2, 10, 100, 1000, 10_000):
        lists = [[v] for v in rng.sample(range(10 * n), n)]
        rows, reads, work = run_kernel(or_kernel, lists, rows_read=n <= 100)
        assert [item.left for item, _, _ in rows] == sorted(v for (v,) in lists)
        assert (rows, reads, work) == run_class(or_merge, lists, rows_read=n <= 100)
        assert work[0] <= 2 * n


def test_kernel_needs_an_operand():
    for kernel, _ in PAIRS:
        with pytest.raises(ValueError):
            KernelStream(kernel, [])
