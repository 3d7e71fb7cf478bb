"""Per-document query evaluation, snippets, ranking and search.

:func:`plan` compiles a query AST once into a callable that builds, per
document, a tree of lazy generators over the index's position lists (see
:mod:`minq.operators`) and returns its witnesses as ``(left, right)``
pairs. One table maps each operator node type to its operands, its
candidate-document rule, its score-bound rule, its pair generator and its
int kernel. A node whose operands are all terms runs its int kernel over
the position lists; any other node runs its pair generator over its
operands' pairs, a term under it read as ``(p, p)`` pairs. Only the root's
pairs become :class:`~minq.intervals.Interval` objects. A profile (``minq
query --show-rho``) runs that same root over one counting iterator per
operand. Each generator first reads every operand once
(difference: the minuend), so an empty operand (an absent term, say) ends
it at once unless the operator is the merge or the operand a subtrahend.

Document-level filtering is conservative: it may admit documents without
witnesses (evaluation weeds them out) but never drops one with witnesses.
Evaluation is document-at-a-time; distinct documents are independent and
may be processed in parallel. The query path creates no reference cycles,
so everything a query builds, and an index dropped afterwards, is freed by
reference counting even while the cyclic collector is paused.

:func:`search` without ``top`` evaluates and ranks every candidate. With
``top`` it evaluates candidates in decreasing order of an upper bound on
their score (:func:`score_bounds`, one rule per node type in the table),
keeps the best ``top`` in a heap, and stops at the first candidate that
could not enter them even at its bound; the results are exactly those of
ranking every candidate and cutting to ``top``. Snippets are extracted only
for the returned results, so the source files of the other matches are
never opened. A returned document's source is read once, its digest
checked, and only the slices of its text around its snippets split, found
through the index's sampled word offsets. One that is missing raises
:class:`OSError`; one that is no longer UTF-8, or whose word count or
content digest no longer matches the index, raises
:class:`StaleSourceError`.
"""

import os
from dataclasses import dataclass
from functools import partial, reduce
from heapq import heappush, heappushpop
from itertools import repeat
from math import inf
from operator import neg

from .index import OFFSET_STRIDE, source_digest, words
from .intervals import Interval, length
from .operators import (
    QueueCounts,
    and_kernel,
    and_pairs,
    and_span,
    block,
    block_kernel,
    block_pairs,
    difference,
    difference_kernel,
    difference_pairs,
    lowpass,
    lowpass_pairs,
    or_kernel,
    or_merge,
    or_pairs,
    ordered_and,
    ordered_kernel,
    ordered_pairs,
)
from .query import And, Block, LowPass, Minus, Or, OrderedAnd, Term
from .streams import (
    IntervalStream,
    PairStream,
    RhoProfile,
    from_positions,
    materialize_pairs,
    position_pairs,
)

# The engine calls none of or_merge, and_span, block, ordered_and, lowpass,
# difference, from_positions or star_compose (a placeholder); they stay bound
# here only because bench/tracer.py rebinds each of them at install.
star_compose = None

SATURATION_LENGTH = 8


def _children(node):
    return node.children


def _union(doc_sets):
    return set().union(*doc_sets)


def _intersection(doc_sets):
    return set.intersection(*doc_sets)


def _first(doc_sets):
    return next(doc_sets)


# Bound lists are combined two at a time by comprehensions, which cost about
# a third of map(sum, ...) or map(min, ...) passes (CPython 3.11).
def _sums(bounds):
    return reduce(_add, bounds)


def _mins(bounds):
    return reduce(_min, bounds)


def _add(a, b):
    return [x + y for x, y in zip(a, b)]


def _min(a, b):
    return [x if x < y else y for x, y in zip(a, b)]


# node type -> (its operand nodes, rule over an iterator of their doc-id
# sets, rule over an iterator of their score-bound lists, pair generator over
# their pair iterators, int kernel over their position-list iterators when
# every operand is a term).
_NODES = {
    Or: (
        _children, _union, _sums,
        lambda n, s: or_pairs(s, QueueCounts()), lambda n, s: or_kernel(s, QueueCounts()),
    ),
    And: (
        _children, _intersection, _sums,
        lambda n, s: and_pairs(s, QueueCounts()), lambda n, s: and_kernel(s, QueueCounts()),
    ),
    Block: (
        _children, _intersection, _mins,
        lambda n, s: block_pairs(s), lambda n, s: block_kernel(s),
    ),
    OrderedAnd: (
        _children, _intersection, _mins,
        lambda n, s: ordered_pairs(s), lambda n, s: ordered_kernel(s),
    ),
    LowPass: (
        lambda n: (n.child,), _first, _first,
        lambda n, s: lowpass_pairs(s[0], n.k), None,
    ),
    Minus: (
        lambda n: (n.minuend, n.subtrahend), _first, _first,
        lambda n, s: difference_pairs(*s), lambda n, s: difference_kernel(*s),
    ),
}


def plan(ast, index):
    """Compile ``ast`` once: a callable from a document id to its witnesses.

    The witnesses come as an iterator of ``(left, right)`` pairs. Each
    term's postings are looked up here, once; per document, a term costs
    one dict get and one list slice (see :mod:`minq.index`). Plans are
    built from :func:`functools.partial` over module functions, so they
    hold no reference cycle.
    """
    if isinstance(ast, Term):
        return partial(_pair_leaf, *index.term_postings(ast.term))
    operands, _, _, generator, kernel = _NODES[type(ast)]
    nodes = operands(ast)
    if kernel is not None and all(isinstance(node, Term) for node in nodes):
        postings = [index.term_postings(node.term) for node in nodes]
        return partial(_kernel_node, kernel, ast, postings)
    return partial(_pair_node, generator, ast, [plan(node, index) for node in nodes])


def _pair_leaf(entries, starts, positions, doc_id):
    e = entries.get(doc_id, -1)
    return position_pairs(positions[starts[e] : starts[e + 1]])


def _kernel_node(kernel, ast, postings, doc_id):
    lists = []
    for entries, starts, positions in postings:
        e = entries.get(doc_id, -1)
        lists.append(iter(positions[starts[e] : starts[e + 1]]))
    return kernel(ast, lists)


def _pair_node(generator, ast, inputs, doc_id):
    return generator(ast, [make(doc_id) for make in inputs])


def _witnesses(make, doc_id):
    return materialize_pairs(make(doc_id)), None


def _profile_plan(ast, index):
    """Like :func:`plan`, but to (witnesses, profile of the root's inputs).

    The root is the one :func:`plan` builds, run over one counting
    iterator per operand: over the terms' position lists for an int kernel,
    over the child plans' pairs for a pair generator. A term root is
    profiled as the single input of an identity.
    """
    root = plan(ast, index)
    if root.func is _pair_leaf:
        return partial(_profiled, _identity, ast, [root])
    operator, ast, inputs = root.args
    if root.func is _kernel_node:
        inputs = [partial(_position_list, *postings) for postings in inputs]
    return partial(_profiled, operator, ast, inputs)


def _position_list(entries, starts, positions, doc_id):
    e = entries.get(doc_id, -1)
    return iter(positions[starts[e] : starts[e + 1]])


def _identity(ast, inputs):
    return inputs[0]


def _profiled(operator, ast, inputs, doc_id):
    reads = [0] * len(inputs)
    counted = [_counted(make(doc_id), reads, i) for i, make in enumerate(inputs)]
    pairs, rho = [], []
    for pair in operator(ast, counted):
        pairs.append(pair)
        rho.append(tuple(reads))
    witnesses = materialize_pairs(pairs)
    return witnesses, RhoProfile(len(inputs), witnesses, rho)


def _counted(items, reads, i):
    """``items``, counting each pull, the terminal one included, into ``reads[i]``."""
    for item in items:
        reads[i] += 1
        yield item
    reads[i] += 1


def compile_query(ast, index, doc_id: int) -> IntervalStream:
    """The lazy stream of the query's witnesses within one document."""
    return PairStream(plan(ast, index)(doc_id))


def evaluate(ast, index, doc_id: int) -> list[Interval]:
    """Materialized witnesses of the query within one document."""
    return materialize_pairs(plan(ast, index)(doc_id))


def evaluate_with_profile(ast, index, doc_id: int):
    """Witnesses plus the read profile of the root operator's inputs.

    A term root is profiled as the single input of an identity operator.
    """
    return _profile_plan(ast, index)(doc_id)


def _docs(ast, index) -> set[int]:
    # Not a closure in candidate_docs: a recursive closure holds itself and
    # the index in a reference cycle, which only the cyclic collector frees.
    if isinstance(ast, Term):
        return index.term_docs(ast.term)
    operands, combine, _, _, _ = _NODES[type(ast)]
    return combine(_docs(node, index) for node in operands(ast))


def candidate_docs(ast, index) -> list[int]:
    """Sorted ids of documents that could possibly hold witnesses."""
    return sorted(_docs(ast, index))


def score_bounds(ast, index, docs: list[int]) -> list[int]:
    """Per document of ``docs``, an upper bound on the query's witness count.

    A term's bound is its number of positions in the document, exact since
    each is a witness. The witnesses of a merge are some of its operands';
    distinct span-conjunction witnesses have distinct left extremes, each
    the left extreme of an operand witness inside it; so both are bounded by
    the sum of their operands' bounds. By minimality no operand witness is
    part of two block or ordered-conjunction witnesses: the minimum of the
    operands' bounds. A low-pass keeps some of its child's witnesses and a
    difference some of its minuend's. The cost is one pass over ``docs`` per
    node, whatever the terms' document counts.
    """
    if isinstance(ast, Term):
        entries, starts, _ = index.term_postings(ast.term)
        return [
            starts[e + 1] - starts[e] if e >= 0 else 0
            for e in map(entries.get, docs, repeat(-1))
        ]
    operands, _, combine, _, _ = _NODES[type(ast)]
    return combine(score_bounds(node, index, docs) for node in operands(ast))


def snippets(witnesses: list[Interval], k: int) -> list[Interval]:
    """Up to k shortest pairwise non-overlapping witnesses.

    Repeatedly picks the shortest remaining interval (leftmost on ties) and
    discards everything overlapping it.
    """
    if k < 1:
        raise ValueError(f"snippet count must be positive, got {k}")
    chosen = []
    for candidate in sorted(witnesses, key=lambda iv: (length(iv), iv.left)):
        if len(chosen) == k:
            break
        if all(
            candidate.right < pick.left or pick.right < candidate.left
            for pick in chosen
        ):
            chosen.append(candidate)
    return chosen


def rank(witnesses) -> float:
    """Sum of per-witness credits, each saturating at 1 for short spans.

    A witness of length at most :data:`SATURATION_LENGTH` contributes 1,
    longer ones proportionally less. A replacement must keep every credit
    at most 1: :func:`search` with ``top`` relies on no score exceeding
    the witness count, which :func:`score_bounds` bounds from above.
    """
    return float(
        sum(min(1.0, SATURATION_LENGTH / (iv.right - iv.left + 1)) for iv in witnesses)
    )


@dataclass
class QueryResult:
    doc_id: int
    score: float
    witnesses: list[Interval]
    snippets: list[tuple[Interval, list[str]]]
    profile: RhoProfile | None = None


class StaleSourceError(ValueError):
    """A source file no longer holds the text the index was built from."""


def document_words(index, doc_id: int, *, spans) -> list[list[str]]:
    """The words of a document in each half-open ``(start, stop)`` span, from its source.

    The file is read once and its digest, of its bytes and word count,
    checked before any word is split. On a match each span's words are
    split only from the slice of the text between the sampled word offsets
    around it (see :mod:`minq.index`); the text is case-folded whole first
    when its folding changes its length, since the offsets index the
    folded text. A slice that does not start and end at word starts, or
    does not hold the expected number of words, voids them: the whole text
    is then split and its word count checked, as it is on a digest
    mismatch, so a source with fewer words than a span needs never yields
    a short list and a bad offset never shows wrong words.

    Raises :class:`StaleSourceError` if the file's bytes are no longer
    UTF-8, or its word count or content digest differs from the indexed
    one, since positions would then point at the wrong words.
    """
    doc = index.docs[doc_id]
    data = _read(doc.path)
    count = doc.word_count
    changed = source_digest(data, count) != doc.digest
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise StaleSourceError(
            f"stale source {doc.path}: byte {exc.start} is not UTF-8; re-index it"
        ) from None
    if not changed:
        found = _window_words(text, count, doc.offsets, spans)
        if found is not None:
            return found
    found = words(text)
    if len(found) != count:
        raise StaleSourceError(
            f"stale source {doc.path}: {len(found)} words, index has {count}; re-index it"
        )
    if changed:
        raise StaleSourceError(f"stale source {doc.path}: its text has changed; re-index it")
    return [found[start:stop] for start, stop in spans]


def _window_words(text: str, count: int, offsets, spans) -> list[list[str]] | None:
    """Each span's words, split from between its enclosing sampled offsets.

    None if a span ends past word ``count`` or a slice fails its checks.
    """
    if offsets[-1] != len(text):  # folding changes the length: offsets index the folded text
        text = text.casefold()
    found = []
    for start, stop in spans:
        if stop > count:
            return None
        first, last = start // OFFSET_STRIDE, -(-stop // OFFSET_STRIDE)
        left, right = offsets[first], offsets[last]
        split = words(text[left:right])
        skip = first * OFFSET_STRIDE
        if (
            len(split) != min(last * OFFSET_STRIDE, count) - skip
            or not _word_starts(text, left)
            or not (right == len(text) or _word_starts(text, right))
        ):
            return None
        found.append(split[start - skip : stop - skip])
    return found


def _word_starts(text: str, at: int) -> bool:
    """Whether a word starts at ``text[at]`` once folded, one character at a time.

    For one character, :meth:`str.isalnum` is the word class of
    :func:`~minq.index.words`; ``text[-1:0]`` is empty.
    """
    return text[at : at + 1].casefold().isalnum() and not text[at - 1 : at].casefold().isalnum()


def _read(path) -> bytes:
    """The bytes of a file, without a buffered file object; errors name ``path``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        # Joined once: growing a bytes object chunk by chunk copies it each time.
        return b"".join(iter(partial(os.read, fd, 1 << 16), b""))
    except OSError as exc:  # os.read on a directory names no file, unlike open()
        exc.filename = path
        raise
    finally:
        os.close(fd)


def search(
    index,
    ast,
    top: int | None = None,
    snippet_count: int = 0,
    with_profile: bool = False,
) -> list[QueryResult]:
    """Evaluate a query over its candidate documents, best score first.

    Results are ordered by ``(-score, doc_id)``. Without ``top``, or with
    ``top`` at least the number of candidates, every candidate is evaluated
    and ranked, in document order. Otherwise candidates are evaluated in
    ``(-bound, doc_id)`` order, the bound being
    :func:`score_bounds` (which :func:`rank` never exceeds); the best
    ``top`` so far are kept in a heap, and the search stops at the first
    candidate that sorts after the ``top``-th result even at its bound,
    since neither it nor any later candidate can enter. The results are
    those of ranking every candidate and cutting to ``top``. Only then are
    snippets extracted, so only the returned documents' source files are
    read, each once, and split only around the snippet windows
    (:func:`document_words`). Raises :class:`ValueError` for a negative
    ``top`` or ``snippet_count`` before evaluating anything.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must not be negative, got {top}")
    if snippet_count < 0:
        raise ValueError(f"snippet count must not be negative, got {snippet_count}")
    if top == 0:
        return []
    run = _profile_plan(ast, index) if with_profile else partial(_witnesses, plan(ast, index))
    docs = candidate_docs(ast, index)
    if top is None or top >= len(docs):
        # No cut falls inside the candidates, so bounds could stop nothing.
        top, order = len(docs), zip(repeat(0), docs)
    else:
        order = sorted(zip(map(neg, score_bounds(ast, index, docs)), docs))
    # Heap of the best (score, -doc_id, witnesses, profile) so far, worst at
    # [0]; no two entries tie on the first two fields. `last` is the worst
    # one's (-score, doc_id) once the heap is full.
    best, last = [], (inf,)
    for key in order:
        if key > last:
            break
        doc_id = key[1]
        witnesses, prof = run(doc_id)
        if witnesses:
            entry = (rank(witnesses), -doc_id, witnesses, prof)
            if len(best) < top:
                heappush(best, entry)
            else:
                heappushpop(best, entry)
            if len(best) == top:
                last = (-best[0][0], -best[0][1])
    best.sort(reverse=True)
    results = [
        QueryResult(doc_id=-neg_id, score=score, witnesses=witnesses, snippets=[], profile=prof)
        for score, neg_id, witnesses, prof in best
    ]
    if snippet_count:
        for result in results:
            windows = snippets(result.witnesses, snippet_count)
            spans = [(w.left, w.right + 1) for w in windows]
            # By keyword: tracing proxies unpack (index, doc_id) from the positional ones.
            found = document_words(index, result.doc_id, spans=spans)
            result.snippets = list(zip(windows, found))
    return results
