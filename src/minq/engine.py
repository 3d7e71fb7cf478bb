"""Per-document query evaluation, snippets, ranking and search.

:func:`plan` compiles a query AST once into a callable that builds, per
document, a tree of lazy streams over the index's position lists. One table
maps each operator node type to its operands, its operator, its
candidate-document rule and its int kernel. A node whose operands are all
terms runs its kernel (see :mod:`minq.operators`); any other node runs its
operator class over singleton-interval streams. The operators are used
bare: each first reads every operand once (difference: the minuend), so an
empty operand (an absent term, say) ends it at once unless the operator is
the merge or the operand a subtrahend. A kernel makes the very same reads.

Document-level filtering is conservative: it may admit documents without
witnesses (evaluation weeds them out) but never drops one with witnesses.
Evaluation is document-at-a-time; distinct documents are independent and
may be processed in parallel. The query path creates no reference cycles,
so everything a query builds, and an index dropped afterwards, is freed by
reference counting even while the cyclic collector is paused.

:func:`search` ranks every match and cuts to ``top`` before it extracts
snippets, so snippets are extracted only for the returned results and the
source files of the other matches are never opened. A returned document's
source that is missing raises :class:`OSError`; one whose word count no
longer matches the index raises :class:`StaleSourceError`.
"""

from dataclasses import dataclass
from functools import partial

from .index import words
from .intervals import Interval, length
from .operators import (
    KernelStream,
    and_kernel,
    and_span,
    block,
    block_kernel,
    difference,
    difference_kernel,
    lowpass,
    or_kernel,
    or_merge,
    ordered_and,
    ordered_kernel,
)
from .query import And, Block, LowPass, Minus, Or, OrderedAnd, Term
from .streams import IntervalStream, RhoProfile, from_positions, materialize, profile_streams

star_compose = None  # placeholder: bench/tracer.py rebinds this name at install

SATURATION_LENGTH = 8

_NO_POSITIONS = ()


def _children(node):
    return node.children


def _union(doc_sets):
    return set().union(*doc_sets)


def _intersection(doc_sets):
    return set.intersection(*doc_sets)


def _first(doc_sets):
    return next(doc_sets)


# node type -> (its operand nodes, operator over their streams, rule over an
# iterator of their doc-id sets, int kernel over their position lists when
# every operand is a term). Operators are module globals looked up when
# called, so they can be rebound from outside.
_NODES = {
    Or: (_children, lambda n, s: or_merge(s), _union, or_kernel),
    And: (_children, lambda n, s: and_span(s), _intersection, and_kernel),
    Block: (_children, lambda n, s: block(s), _intersection, block_kernel),
    OrderedAnd: (_children, lambda n, s: ordered_and(s), _intersection, ordered_kernel),
    LowPass: (lambda n: (n.child,), lambda n, s: lowpass(s[0], n.k), _first, None),
    Minus: (
        lambda n: (n.minuend, n.subtrahend),
        lambda n, s: difference(*s),
        _first,
        difference_kernel,
    ),
}


def plan(ast, index):
    """Compile ``ast`` once: a callable from a document id to its stream.

    Each term's document-to-positions dict is looked up here, once. A node
    whose operands are all terms runs its int kernel over the index's
    position lists; every other node gets its instrumented operator, and a
    term under it a :func:`~minq.streams.from_positions` leaf. Plans are
    built from :func:`functools.partial` over module functions, so they
    hold no reference cycle.
    """
    if isinstance(ast, Term):
        return partial(_leaf, index.term_postings(ast.term))
    operands, operator, _, kernel = _NODES[type(ast)]
    nodes = operands(ast)
    if kernel is not None and all(isinstance(node, Term) for node in nodes):
        term_docs = [index.term_postings(node.term) for node in nodes]
        return partial(_kernel_node, kernel, term_docs)
    return partial(_operator_node, operator, ast, [plan(node, index) for node in nodes])


def _leaf(term_docs, doc_id):
    return from_positions(term_docs.get(doc_id, _NO_POSITIONS))


def _kernel_node(kernel, term_docs, doc_id):
    return KernelStream(kernel, [docs.get(doc_id, _NO_POSITIONS) for docs in term_docs])


def _operator_node(operator, ast, inputs, doc_id):
    return operator(ast, [make(doc_id) for make in inputs])


def _witnesses(make, doc_id):
    return materialize(make(doc_id)), None


def _profiled(ast, operator, inputs, doc_id):
    prof = profile_streams(partial(operator, ast), [make(doc_id) for make in inputs])
    return prof.outputs, prof


def _profile_plan(ast, index):
    """Like :func:`plan`, but to (witnesses, profile of the root's inputs).

    The root keeps its instrumented operator over counted inputs; a term
    root is profiled as the single input of an identity operator.
    """
    if isinstance(ast, Term):
        inputs, operator = (ast,), _identity
    else:
        operands, operator, _, _ = _NODES[type(ast)]
        inputs = operands(ast)
    return partial(_profiled, ast, operator, [plan(node, index) for node in inputs])


def _identity(node, streams):
    return streams[0]


def compile_query(ast, index, doc_id: int) -> IntervalStream:
    """The lazy stream of the query's witnesses within one document."""
    return plan(ast, index)(doc_id)


def evaluate(ast, index, doc_id: int) -> list[Interval]:
    """Materialized witnesses of the query within one document."""
    return materialize(plan(ast, index)(doc_id))


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
    operands, _, combine, _ = _NODES[type(ast)]
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
    """A source file no longer tokenizes to the word count the index holds."""


def document_words(index, doc_id: int) -> list[str]:
    """Re-tokenized words of a document, read back from its source path.

    Raises :class:`StaleSourceError` if the file's word count differs from
    the indexed one, since positions would then point at the wrong words.
    """
    path = index.docs[doc_id].path
    with open(path, "r", encoding="utf-8") as src:
        found = words(src.read())
    expected = index.word_count(doc_id)
    if len(found) != expected:
        raise StaleSourceError(
            f"stale source {path}: {len(found)} words, index has {expected}; re-index it"
        )
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
