"""Per-document query evaluation, snippets, ranking and search.

:func:`plan` compiles a query AST once into a callable that builds, per
document, a tree of lazy generators over the index's position lists (see
:mod:`minq.operators`) and returns its witnesses as ``(left, right)``
pairs. One table maps each operator node type to its operands, its
candidate-document rule, its interval-stream operator, its pair generator
and its int kernel. A node whose operands are all terms runs its int kernel
over the position lists; any other node runs its pair generator over its
operands' pairs, a term under it read as ``(p, p)`` pairs. Only the root's
pairs become :class:`~minq.intervals.Interval` objects, except under
profiling, where the root runs its interval-stream operator over counted
streams of its operands. Each generator first reads every operand once
(difference: the minuend), so an empty operand (an absent term, say) ends
it at once unless the operator is the merge or the operand a subtrahend.

Document-level filtering is conservative: it may admit documents without
witnesses (evaluation weeds them out) but never drops one with witnesses.
Evaluation is document-at-a-time; distinct documents are independent and
may be processed in parallel. The query path creates no reference cycles,
so everything a query builds, and an index dropped afterwards, is freed by
reference counting even while the cyclic collector is paused.

:func:`search` ranks every match and cuts to ``top`` before it extracts
snippets, so snippets are extracted only for the returned results and the
source files of the other matches are never opened. A returned document's
source that is missing raises :class:`OSError`; one whose word count or
content digest no longer matches the index raises :class:`StaleSourceError`.
"""

from dataclasses import dataclass
from functools import partial

from .index import source_digest, words
from .intervals import Interval, length
from .operators import (
    PairStream,
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
    RhoProfile,
    from_positions,
    materialize_pairs,
    position_pairs,
    profile_streams,
)

star_compose = None  # placeholder: bench/tracer.py rebinds this name at install

SATURATION_LENGTH = 8


def _children(node):
    return node.children


def _union(doc_sets):
    return set().union(*doc_sets)


def _intersection(doc_sets):
    return set.intersection(*doc_sets)


def _first(doc_sets):
    return next(doc_sets)


# node type -> (its operand nodes, rule over an iterator of their doc-id
# sets, operator over their interval streams, pair generator over their pair
# iterators, int kernel over their position-list iterators when every
# operand is a term). The operators, which only a profiled root runs, are
# module globals looked up when called, so they can be rebound from outside.
_NODES = {
    Or: (
        _children, _union, lambda n, s: or_merge(s),
        lambda n, s: or_pairs(s, QueueCounts()), lambda n, s: or_kernel(s, QueueCounts()),
    ),
    And: (
        _children, _intersection, lambda n, s: and_span(s),
        lambda n, s: and_pairs(s, QueueCounts()), lambda n, s: and_kernel(s, QueueCounts()),
    ),
    Block: (
        _children, _intersection, lambda n, s: block(s),
        lambda n, s: block_pairs(s), lambda n, s: block_kernel(s),
    ),
    OrderedAnd: (
        _children, _intersection, lambda n, s: ordered_and(s),
        lambda n, s: ordered_pairs(s), lambda n, s: ordered_kernel(s),
    ),
    LowPass: (
        lambda n: (n.child,), _first, lambda n, s: lowpass(s[0], n.k),
        lambda n, s: lowpass_pairs(s[0], n.k), None,
    ),
    Minus: (
        lambda n: (n.minuend, n.subtrahend), _first, lambda n, s: difference(*s),
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


def _stream_plan(ast, index):
    """Like :func:`plan`, but to an interval stream.

    A term is a :func:`~minq.streams.from_positions` stream, any other node
    a :class:`~minq.operators.PairStream` over its plan.
    """
    if isinstance(ast, Term):
        return partial(_leaf, *index.term_postings(ast.term))
    return partial(_stream, plan(ast, index))


def _leaf(entries, starts, positions, doc_id):
    e = entries.get(doc_id, -1)
    return from_positions(positions[starts[e] : starts[e + 1]])


def _stream(make, doc_id):
    return PairStream(make(doc_id))


def _witnesses(make, doc_id):
    return materialize_pairs(make(doc_id)), None


def _profiled(ast, operator, inputs, doc_id):
    prof = profile_streams(partial(operator, ast), [make(doc_id) for make in inputs])
    return prof.outputs, prof


def _profile_plan(ast, index):
    """Like :func:`plan`, but to (witnesses, profile of the root's inputs).

    The root runs its interval-stream operator over counted interval
    streams of its operands; a term root is profiled as the single input
    of an identity operator.
    """
    if isinstance(ast, Term):
        inputs, operator = (ast,), _identity
    else:
        operands, _, operator, _, _ = _NODES[type(ast)]
        inputs = operands(ast)
    return partial(_profiled, ast, operator, [_stream_plan(node, index) for node in inputs])


def _identity(node, streams):
    return streams[0]


def compile_query(ast, index, doc_id: int) -> IntervalStream:
    """The lazy stream of the query's witnesses within one document."""
    return _stream_plan(ast, index)(doc_id)


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
    longer ones proportionally less.
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


def document_words(index, doc_id: int) -> list[str]:
    """Re-tokenized words of a document, read back from its source path.

    Raises :class:`StaleSourceError` if the file's word count or content
    digest differs from the indexed one, since positions would then point
    at the wrong words.
    """
    doc = index.docs[doc_id]
    with open(doc.path, "rb") as src:
        data = src.read()
    found = words(data.decode("utf-8"))
    if len(found) != doc.word_count:
        raise StaleSourceError(
            f"stale source {doc.path}: {len(found)} words, index has {doc.word_count}; "
            "re-index it"
        )
    if source_digest(data) != doc.digest:
        raise StaleSourceError(f"stale source {doc.path}: its text has changed; re-index it")
    return found


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
    run = _profile_plan(ast, index) if with_profile else partial(_witnesses, plan(ast, index))
    found = []
    for doc_id in candidate_docs(ast, index):
        witnesses, prof = run(doc_id)
        if witnesses:
            found.append((rank(witnesses), doc_id, witnesses, prof))
    found.sort(key=lambda r: (-r[0], r[1]))
    if top is not None:
        found = found[:top]
    results = [
        QueryResult(doc_id=doc_id, score=score, witnesses=witnesses, snippets=[], profile=prof)
        for score, doc_id, witnesses, prof in found
    ]
    if snippet_count:
        for result in results:
            words = document_words(index, result.doc_id)
            result.snippets = [
                (window, words[window.left : window.right + 1])
                for window in snippets(result.witnesses, snippet_count)
            ]
    return results
