"""Shared fixtures-in-spirit: worked-example data, random generators, the
linear-scan reference queue, prefix-check composition and the per-token
reference index build."""

import hashlib
import random
import re

from minq import EmptyQueueError, Interval, NEG_INF, PositionalIndex
from minq.index import DocInfo, TermPostings
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
    """Iterator over a position list that counts its ``next`` calls.

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


class LinearScanQueue:
    """Array-backed variant: O(1) mutations, O(m) top retrieval.

    Same contract and tie-breaking as :class:`minq.IndirectQueue` and
    :func:`minq.advance`; kept as the obviously-correct reference for
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
        digest = hashlib.blake2b(text.encode("utf-8"), digest_size=16).digest()
        docs.append(DocInfo(path=path, word_count=len(tokens), digest=digest))
        for term, pos in tokens:
            by_term.setdefault(term, {}).setdefault(doc_id, []).append(pos)
    return PositionalIndex(docs, {term: postings_of(runs) for term, runs in by_term.items()})


def postings_of(runs):
    """The :class:`TermPostings` of a dict of doc id -> positions, in doc order."""
    entries, starts, positions = {}, [0], []
    for doc_id, run in runs.items():
        entries[doc_id] = len(entries)
        positions.extend(run)
        starts.append(len(positions))
    return TermPostings(entries, starts, positions)
