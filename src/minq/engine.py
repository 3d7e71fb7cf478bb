"""Per-document query evaluation, snippets, ranking and search.

A query AST compiles, per document, into a tree of lazy operators over
singleton-interval streams built from term positions. Every operator is
wrapped with a one-read-per-list emptiness check through
:func:`~minq.streams.star_compose`, so empty operands (absent terms
included) short-circuit without disturbing the main algorithms' read
discipline.

Document-level filtering is conservative: it may admit documents without
witnesses (evaluation weeds them out) but never drops one with witnesses.
Evaluation is document-at-a-time; distinct documents are independent and
may be processed in parallel.

:func:`search` ranks every match and cuts to ``top`` before it extracts
snippets, so snippets are extracted only for the returned results and the
source files of the other matches are never opened. A returned document's
source that is missing raises :class:`OSError`; one whose word count no
longer matches the index raises :class:`StaleSourceError`.
"""

from dataclasses import dataclass

from .index import tokenize
from .intervals import Interval, length
from .operators import and_span, block, difference, lowpass, or_merge, ordered_and
from .query import And, Block, LowPass, Minus, Or, OrderedAnd, Term
from .streams import (
    CountingStream,
    IntervalStream,
    ListStream,
    RhoProfile,
    check_all_empty,
    check_any_empty,
    check_minuend_empty,
    from_positions,
    materialize,
    star_compose,
)

SATURATION_LENGTH = 8


def _compile_children(node, index, doc_id):
    return [compile_query(child, index, doc_id) for child in node.children]


def compile_query(ast, index, doc_id: int) -> IntervalStream:
    """Build the lazy operator tree for one document."""
    if isinstance(ast, Term):
        return from_positions(index.positions(ast.term, doc_id))
    if isinstance(ast, Or):
        return star_compose(check_all_empty, or_merge)(
            _compile_children(ast, index, doc_id)
        )
    if isinstance(ast, And):
        return star_compose(check_any_empty, and_span)(
            _compile_children(ast, index, doc_id)
        )
    if isinstance(ast, Block):
        return star_compose(check_any_empty, block)(
            _compile_children(ast, index, doc_id)
        )
    if isinstance(ast, OrderedAnd):
        return star_compose(check_any_empty, ordered_and)(
            _compile_children(ast, index, doc_id)
        )
    if isinstance(ast, LowPass):
        return star_compose(
            check_any_empty, lambda streams: lowpass(streams[0], ast.k)
        )([compile_query(ast.child, index, doc_id)])
    if isinstance(ast, Minus):
        return star_compose(
            check_minuend_empty, lambda streams: difference(streams[0], streams[1])
        )(
            [
                compile_query(ast.minuend, index, doc_id),
                compile_query(ast.subtrahend, index, doc_id),
            ]
        )
    raise TypeError(f"not a query node: {ast!r}")


def evaluate(ast, index, doc_id: int) -> list[Interval]:
    """Materialized witnesses of the query within one document."""
    return materialize(compile_query(ast, index, doc_id))


def evaluate_with_profile(ast, index, doc_id: int):
    """Witnesses plus the read profile of the root operator's inputs."""
    if isinstance(ast, Term):
        children = [from_positions(index.positions(ast.term, doc_id))]
        rebuild = lambda streams: streams[0]
    elif isinstance(ast, Minus):
        children = [
            compile_query(ast.minuend, index, doc_id),
            compile_query(ast.subtrahend, index, doc_id),
        ]
        rebuild = star_compose(
            check_minuend_empty, lambda streams: difference(streams[0], streams[1])
        )
    elif isinstance(ast, LowPass):
        children = [compile_query(ast.child, index, doc_id)]
        rebuild = star_compose(
            check_any_empty, lambda streams: lowpass(streams[0], ast.k)
        )
    else:
        children = _compile_children(ast, index, doc_id)
        op = {
            Or: star_compose(check_all_empty, or_merge),
            And: star_compose(check_any_empty, and_span),
            Block: star_compose(check_any_empty, block),
            OrderedAnd: star_compose(check_any_empty, ordered_and),
        }[type(ast)]
        rebuild = op
    counters = [CountingStream(child) for child in children]
    out = rebuild(counters)
    witnesses = []
    prof = RhoProfile(m=len(counters))
    while (item := out.next()) is not None:
        witnesses.append(item)
        prof.outputs.append(item)
        prof.rho.append(tuple(c.reads for c in counters))
    return witnesses, prof


def candidate_docs(ast, index) -> list[int]:
    """Sorted ids of documents that could possibly hold witnesses."""

    def docs(node) -> set[int]:
        if isinstance(node, Term):
            return index.term_docs(node.term)
        if isinstance(node, Or):
            out = set()
            for child in node.children:
                out |= docs(child)
            return out
        if isinstance(node, (And, Block, OrderedAnd)):
            out = docs(node.children[0])
            for child in node.children[1:]:
                out &= docs(child)
            return out
        if isinstance(node, LowPass):
            return docs(node.child)
        if isinstance(node, Minus):
            return docs(node.minuend)
        raise TypeError(f"not a query node: {node!r}")

    return sorted(docs(ast))


def snippets(witnesses, k: int) -> list[Interval]:
    """Up to k shortest pairwise non-overlapping witnesses.

    Repeatedly picks the shortest remaining interval (leftmost on ties) and
    discards everything overlapping it. Streams are drained only until the
    selection cannot change: k single-position intervals settle it early.
    """
    if k < 1:
        raise ValueError(f"snippet count must be positive, got {k}")
    if not isinstance(witnesses, IntervalStream):
        witnesses = ListStream(list(witnesses))
    seen = []
    units = 0
    while (item := witnesses.next()) is not None:
        seen.append(item)
        if length(item) == 1:
            units += 1
            if units == k:
                break
    chosen = []
    for candidate in sorted(seen, key=lambda iv: (length(iv), iv.left)):
        if len(chosen) == k:
            break
        if all(
            candidate.right < pick.left or pick.right < candidate.left
            for pick in chosen
        ):
            chosen.append(candidate)
    return chosen


def rank(witnesses, word_count: int) -> float:
    """Sum of per-witness credits, each saturating at 1 for short spans.

    A witness of length at most :data:`SATURATION_LENGTH` contributes 1,
    longer ones proportionally less. ``word_count`` is accepted so
    alternative schemes can normalize by document size; this one does not.
    """
    return float(sum(min(1.0, SATURATION_LENGTH / length(iv)) for iv in witnesses))


@dataclass
class QueryResult:
    doc_id: int
    score: float
    witnesses: list[Interval]
    snippets: list[tuple[Interval, list[str]]]
    profile: RhoProfile | None = None


class StaleSourceError(ValueError):
    """A source file no longer tokenizes to the word count the index holds."""


def document_words(index, doc_id: int) -> list[str]:
    """Re-tokenized words of a document, read back from its source path.

    Raises :class:`StaleSourceError` if the file's word count differs from
    the indexed one, since positions would then point at the wrong words.
    """
    path = index.docs[doc_id].path
    with open(path, "r", encoding="utf-8") as src:
        words = [term for term, _ in tokenize(src.read())]
    expected = index.word_count(doc_id)
    if len(words) != expected:
        raise StaleSourceError(
            f"stale source {path}: {len(words)} words, index has {expected}; re-index it"
        )
    return words


def search(
    index,
    ast,
    top: int | None = None,
    snippet_count: int = 0,
    with_profile: bool = False,
) -> list[QueryResult]:
    """Evaluate a query over every candidate document, best score first.

    Every candidate is evaluated and ranked, the matches are sorted by
    ``(-score, doc_id)`` and cut to ``top``, and only then are snippets
    extracted, so only the returned documents' source files are read.
    Raises :class:`ValueError` for a negative ``top`` or ``snippet_count``
    before evaluating anything.
    """
    if top is not None and top < 0:
        raise ValueError(f"top must not be negative, got {top}")
    if snippet_count < 0:
        raise ValueError(f"snippet count must not be negative, got {snippet_count}")
    results = []
    for doc_id in candidate_docs(ast, index):
        if with_profile:
            witnesses, prof = evaluate_with_profile(ast, index, doc_id)
        else:
            witnesses, prof = evaluate(ast, index, doc_id), None
        if not witnesses:
            continue
        score = rank(witnesses, index.word_count(doc_id))
        results.append(
            QueryResult(
                doc_id=doc_id,
                score=score,
                witnesses=witnesses,
                snippets=[],
                profile=prof,
            )
        )
    results.sort(key=lambda r: (-r.score, r.doc_id))
    if top is not None:
        results = results[:top]
    if snippet_count:
        for result in results:
            words = document_words(index, result.doc_id)
            result.snippets = [
                (window, words[window.left : window.right + 1])
                for window in snippets(ListStream(result.witnesses), snippet_count)
            ]
    return results
