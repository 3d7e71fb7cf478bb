"""Correctness checks the benchmark applies to what the program returns.

* :func:`oracle_witnesses` evaluates a query AST with the brute-force
  compositions of :mod:`minq.oracle` over positions the benchmark took from
  its own generated word lists, independent of the index.
* :func:`result_errors` checks one search result list against the corpus:
  order, scores, witness shape, witness end points and snippet words.
* :func:`format_results` renders results exactly as ``minq query`` prints
  them, for digests and for comparing with captured CLI output.
* :func:`bare_witnesses` runs the operator tree directly over prebuilt
  interval lists, without leaf streams or star composition.
"""

import hashlib

from minq.intervals import Interval
from minq.operators import and_span, block, difference, lowpass, or_merge, ordered_and
from minq.oracle import (
    oracle_and,
    oracle_block,
    oracle_difference,
    oracle_lowpass,
    oracle_or,
    oracle_ordered_and,
)
from minq.query import And, Block, LowPass, Minus, Or, OrderedAnd, Term
from minq.streams import ListStream, materialize

_SATURATION = 8


def terms_of(node):
    """Distinct term strings of a query, in first-seen order."""
    if isinstance(node, Term):
        return [node.term]
    if isinstance(node, LowPass):
        children = (node.child,)
    elif isinstance(node, Minus):
        children = (node.minuend, node.subtrahend)
    else:
        children = node.children
    seen = {}
    for child in children:
        for term in terms_of(child):
            seen.setdefault(term, None)
    return list(seen)


def positions_by_term(words, terms):
    wanted = set(terms)
    positions = {t: [] for t in terms}
    for pos, w in enumerate(words):
        if w in wanted:
            positions[w].append(pos)
    return positions


_ORACLES = {Or: oracle_or, And: oracle_and, Block: oracle_block, OrderedAnd: oracle_ordered_and}


def oracle_witnesses(node, positions):
    """Witnesses of ``node`` from the brute-force oracles."""
    if isinstance(node, Term):
        return [Interval(p, p) for p in positions[node.term]]
    if isinstance(node, LowPass):
        return oracle_lowpass(oracle_witnesses(node.child, positions), node.k)
    if isinstance(node, Minus):
        return oracle_difference(
            oracle_witnesses(node.minuend, positions),
            oracle_witnesses(node.subtrahend, positions),
        )
    return _ORACLES[type(node)]([oracle_witnesses(c, positions) for c in node.children])


_BARE = {Or: or_merge, And: and_span, Block: block, OrderedAnd: ordered_and}


def _bare_stream(node, lists):
    if isinstance(node, Term):
        return ListStream(lists[node.term])
    if isinstance(node, LowPass):
        return lowpass(_bare_stream(node.child, lists), node.k)
    if isinstance(node, Minus):
        return difference(_bare_stream(node.minuend, lists), _bare_stream(node.subtrahend, lists))
    return _BARE[type(node)]([_bare_stream(c, lists) for c in node.children])


def bare_witnesses(node, lists):
    """Witnesses from the six operators alone over ``{term: [Interval]}``."""
    return materialize(_bare_stream(node, lists))


def score_of(witnesses):
    return float(sum(min(1.0, _SATURATION / (w.right - w.left + 1)) for w in witnesses))


def format_results(results):
    """The lines ``minq query`` prints for ``results`` (no read profiles)."""
    lines = []
    for r in results:
        witnesses = " ".join(repr(iv) for iv in r.witnesses)
        lines.append(f"{r.doc_id}\t{r.score:.4f}\t{witnesses}\n")
        for window, words in r.snippets:
            lines.append(f"\t{window!r}\t{' '.join(words)}\n")
    return "".join(lines)


def result_errors(results, ast, docs, top, snippet_count):
    """Problems with one query's results, as a list of short strings."""
    errors = []
    terms = set(terms_of(ast))
    if top is not None and len(results) > top:
        errors.append(f"{len(results)} results above top {top}")
    keys = [(-r.score, r.doc_id) for r in results]
    if keys != sorted(keys) or len(set(r.doc_id for r in results)) != len(results):
        errors.append("results not in (score desc, doc id) order")
    for r in results:
        words = docs[r.doc_id]
        ws = r.witnesses
        if not ws:
            errors.append(f"doc {r.doc_id}: empty witness list")
            continue
        for a, b in zip(ws, ws[1:]):
            if not (a.left < b.left and a.right < b.right):
                errors.append(f"doc {r.doc_id}: witnesses {a!r} {b!r} out of order")
        for w in ws:
            if not (0 <= w.left <= w.right < len(words)):
                errors.append(f"doc {r.doc_id}: witness {w!r} outside document")
            elif words[w.left] not in terms or words[w.right] not in terms:
                errors.append(f"doc {r.doc_id}: witness {w!r} does not end on query terms")
        if r.score != score_of(ws):
            errors.append(f"doc {r.doc_id}: score {r.score} != {score_of(ws)}")
        if not snippet_count:
            if r.snippets:
                errors.append(f"doc {r.doc_id}: snippets not asked for")
            continue
        if not 1 <= len(r.snippets) <= snippet_count:
            errors.append(f"doc {r.doc_id}: {len(r.snippets)} snippets for k={snippet_count}")
        picked = [w for w, _ in r.snippets]
        witness_set = set(ws)
        for i, (window, snippet_words) in enumerate(r.snippets):
            if window not in witness_set:
                errors.append(f"doc {r.doc_id}: snippet {window!r} is not a witness")
            if snippet_words != words[window.left : window.right + 1]:
                errors.append(f"doc {r.doc_id}: snippet {window!r} words differ from the text")
            for other in picked[:i]:
                if not (window.right < other.left or other.right < window.left):
                    errors.append(f"doc {r.doc_id}: snippets {other!r} {window!r} overlap")
    return errors


class Digest:
    """Running SHA-256 over (query text, formatted results) pairs."""

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, text, formatted):
        self._hash.update(f"{len(text)}:{text}\n{len(formatted)}:{formatted}".encode("utf-8"))
        self.count += 1

    def hexdigest(self):
        return self._hash.hexdigest()[:16]
