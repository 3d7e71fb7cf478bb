"""Per-document query evaluation, snippets, ranking and search.

:func:`plan` compiles a query AST once into a callable that builds, per
document, a tree of lazy generators over the index's position lists (see
:mod:`minq.operators`) and returns its witnesses as ``(left, right)``
pairs. One table maps each operator node type to its operands, its
candidate-document rule, its score-bound rule and its pair generator.
Every node is one shape, the node's pair generator over its inputs' pair
iterators; a term is read as ``(p, p)`` pairs straight from
:func:`minq.index.run`, as only :mod:`minq.index` knows the postings
layout. Only the root's pairs become :class:`~minq.intervals.Interval`
objects, checked for order there. A profile (:func:`evaluate_with_profile`,
which ``minq query --show-rho`` calls for each printed document) runs
that same root through the loop of :func:`minq.streams.profile`, over one
counting stream per input. Each generator
first reads every operand once (difference: the minuend), so an empty
operand (an absent term, say) ends it at once unless the operator is the
merge or the operand a subtrahend.

Document-level filtering is conservative: it may admit documents without
witnesses (evaluation weeds them out) but never drops one with witnesses.
Evaluation is document-at-a-time; distinct documents are independent and
may be processed in parallel. The query path creates no reference cycles,
so everything a query builds, and an index dropped afterwards, is freed by
reference counting alone, even with the cyclic collector off.

:func:`search` without ``top`` evaluates and ranks every candidate. With
``top`` it evaluates candidates in decreasing order of an upper bound on
their score (:func:`score_bounds`, one rule per node type in the table),
keeps the best ``top`` in a heap, and stops at the first candidate that
could not enter them even at its bound; the results are exactly those of
ranking every candidate and cutting to ``top``. Snippets are extracted only
for the returned results, through :func:`minq.index.document_words`, so
the source files of the other matches are never opened.
"""

from dataclasses import dataclass
from functools import partial, reduce
from heapq import heappush, heappushpop
from itertools import repeat
from math import inf
from operator import neg

from .index import StaleSourceError, document_words, run  # search calls document_words as a global
from .intervals import Interval
from .operators import (
    QueueCounts,
    and_pairs,
    and_span,
    block,
    block_pairs,
    difference,
    difference_pairs,
    lowpass,
    lowpass_pairs,
    or_merge,
    or_pairs,
    ordered_and,
    ordered_pairs,
)
from .query import And, Block, LowPass, Minus, Or, OrderedAnd, Term
from .streams import IntervalStream, PairStream, _pairs, _profile, from_positions, materialize_pairs

# The engine calls none of or_merge, and_span, block, ordered_and, lowpass,
# difference, from_positions or star_compose (a placeholder); they stay bound
# here only because bench/tracer.py rebinds each of them at install.
star_compose = None

SATURATION_LENGTH = 8


def _children(node):
    return node.children


# Each rule takes its operands' documents as sorted sequences (a term's own
# array, read only) or sets, and never builds a set per operand.
def _union(doc_lists):
    return set().union(*doc_lists)


def _intersection(doc_lists):
    return set(next(doc_lists)).intersection(*doc_lists)


def _first(doc_lists):
    return next(doc_lists)


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


# node type -> (its operand nodes, rule over an iterator of their document
# lists or sets, rule over an iterator of their score-bound lists, pair
# generator over their pair iterators).
_NODES = {
    Or: (_children, _union, _sums, lambda n, s: or_pairs(s, QueueCounts())),
    And: (_children, _intersection, _sums, lambda n, s: and_pairs(s, QueueCounts())),
    Block: (_children, _intersection, _mins, lambda n, s: block_pairs(s)),
    OrderedAnd: (_children, _intersection, _mins, lambda n, s: ordered_pairs(s)),
    LowPass: (lambda n: (n.child,), _first, _first, lambda n, s: lowpass_pairs(s[0], n.k)),
    Minus: (
        lambda n: (n.minuend, n.subtrahend), _first, _first, lambda n, s: difference_pairs(*s)
    ),
}


def plan(ast, index):
    """Compile ``ast`` once: a callable from a document id to its witnesses.

    The witnesses come as an iterator of ``(left, right)`` pairs. Each
    term's postings are looked up here, once; per document, a term costs
    one :func:`~minq.index.run` call. Every operator node is
    ``partial(_node, generator, ast, inputs)``; plans are built from
    :func:`functools.partial` over module functions, so they hold no
    reference cycle.
    """
    if isinstance(ast, Term):
        return partial(run, index.term_postings(ast.term))
    operands, _, _, generator = _NODES[type(ast)]
    return partial(_node, generator, ast, [plan(node, index) for node in operands(ast)])


def _node(operator, ast, inputs, doc_id):
    made = []  # a loop: a list comprehension makes a function object per call (CPython 3.11)
    for make in inputs:
        made.append(make(doc_id))
    return operator(ast, made)


def compile_query(ast, index, doc_id: int) -> IntervalStream:
    """The lazy stream of the query's witnesses within one document."""
    return PairStream(plan(ast, index)(doc_id))


def evaluate(ast, index, doc_id: int) -> list[Interval]:
    """Materialized witnesses of the query within one document."""
    return materialize_pairs(plan(ast, index)(doc_id))


def evaluate_with_profile(ast, index, doc_id: int):
    """Witnesses plus the read profile of the root operator's inputs.

    The root is the one :func:`plan` builds, run by the loop of
    :func:`minq.streams.profile` over one lazy
    :class:`~minq.streams.CountingStream` per input; a term root is the
    single input of an identity. The witnesses' order is checked as
    :func:`evaluate` checks it.
    """
    root = plan(ast, index)
    operator, _, inputs = (_identity, ast, [root]) if root.func is run else root.args
    prof = _profile(partial(_root, operator, ast), [PairStream(make(doc_id)) for make in inputs])
    prof.outputs = materialize_pairs(prof.outputs)
    return prof.outputs, prof


def _identity(ast, inputs):
    return inputs[0]


def _root(operator, ast, counters):
    return PairStream(operator(ast, list(map(_pairs, counters))))


def _docs(ast, index):
    # Not a closure in candidate_docs: a recursive closure holds itself and
    # the index in a reference cycle, which only the cyclic collector frees.
    if isinstance(ast, Term):
        return index.term_docs(ast.term)
    operands, combine, _, _ = _NODES[type(ast)]
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
        return index.run_lengths(ast.term, docs)
    operands, _, combine, _ = _NODES[type(ast)]
    return combine(score_bounds(node, index, docs) for node in operands(ast))


def snippets(witnesses: list[Interval], k: int) -> list[Interval]:
    """Up to k shortest pairwise non-overlapping witnesses.

    Repeatedly picks the shortest remaining interval (leftmost on ties) and
    discards everything overlapping it.
    """
    if k < 1:
        raise ValueError(f"snippet count must be positive, got {k}")
    chosen = []
    # Indexing, as in rank: the left and right properties cost a call each.
    for candidate in sorted(witnesses, key=lambda iv: (iv[1] - iv[0], iv[0])):
        if len(chosen) == k:
            break
        if all(candidate[1] < pick[0] or pick[1] < candidate[0] for pick in chosen):
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
        # iv[1] - iv[0]: indexing a pair is faster than its properties or unpacking it.
        sum(min(1.0, SATURATION_LENGTH / (iv[1] - iv[0] + 1)) for iv in witnesses)
    )


@dataclass
class QueryResult:
    doc_id: int
    score: float
    witnesses: list[Interval]
    snippets: list[tuple[Interval, list[str]]]


def search(index, ast, top: int | None = None, snippet_count: int = 0) -> list[QueryResult]:
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
    make = plan(ast, index)
    docs = candidate_docs(ast, index)
    if top is None or top >= len(docs):
        # No cut falls inside the candidates, so bounds could stop nothing.
        top, order = len(docs), zip(repeat(0), docs)
    else:
        order = sorted(zip(map(neg, score_bounds(ast, index, docs)), docs))
    # Heap of the best (score, -doc_id, witnesses) so far, worst at [0]; no
    # two entries tie on the first two fields. `last` is the worst one's
    # (-score, doc_id) once the heap is full.
    best, last = [], (inf,)
    for key in order:
        if key > last:
            break
        doc_id = key[1]
        witnesses = materialize_pairs(make(doc_id))
        if witnesses:
            entry = (rank(witnesses), -doc_id, witnesses)
            if len(best) < top:
                heappush(best, entry)
            else:
                heappushpop(best, entry)
            if len(best) == top:
                last = (-best[0][0], -best[0][1])
    best.sort(reverse=True)
    results = [
        QueryResult(doc_id=-neg_id, score=score, witnesses=witnesses, snippets=[])
        for score, neg_id, witnesses in best
    ]
    if snippet_count:
        for result in results:
            windows = snippets(result.witnesses, snippet_count)
            spans = [(w[0], w[1] + 1) for w in windows]
            # By keyword: tracing proxies unpack (index, doc_id) from the positional ones.
            found = document_words(index, result.doc_id, spans=spans)
            result.snippets = list(zip(windows, found))
    return results
