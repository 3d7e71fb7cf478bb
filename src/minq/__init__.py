"""Lazy minimal-interval query evaluation.

Queries over a document evaluate to antichains of witness intervals: the
minimal regions satisfying the query. This package provides the interval
model, lazy stream operators with measurable read counts, brute-force
reference semantics, and a small positional-index search tool on top.
"""

from .intervals import (
    Interval,
    NEG_INF,
    POS_INF,
    cmp_end,
    cmp_start,
    contains,
    length,
)
from .streams import (
    CountingStream,
    IntervalStream,
    ListStream,
    OrderViolation,
    RhoProfile,
    from_positions,
    materialize,
    profile,
)
from .operators import and_span, block, difference, lowpass, or_merge, ordered_and
from .oracle import (
    NotProducible,
    ReadBoundReport,
    check_read_bounds,
    leftmost_sequences,
    minimal_filter,
    oracle_and,
    oracle_block,
    oracle_difference,
    oracle_lowpass,
    oracle_or,
    oracle_ordered_and,
)
from .index import (
    IndexFormatError,
    PositionalIndex,
    StaleSourceError,
    build_index,
    load_index,
    save_index,
    tokenize,
)
from .query import (
    And,
    Block,
    LowPass,
    Minus,
    Or,
    OrderedAnd,
    QuerySyntaxError,
    Term,
    parse_query,
)
from .engine import (
    QueryResult,
    candidate_docs,
    compile_query,
    evaluate,
    evaluate_with_profile,
    rank,
    search,
    snippets,
)

__all__ = [
    "Interval", "NEG_INF", "POS_INF", "cmp_end", "cmp_start", "contains",
    "length",
    "CountingStream", "IntervalStream", "ListStream", "OrderViolation",
    "RhoProfile", "from_positions", "materialize", "profile",
    "and_span", "block", "difference", "lowpass", "or_merge", "ordered_and",
    "NotProducible", "ReadBoundReport", "check_read_bounds",
    "leftmost_sequences", "minimal_filter", "oracle_and", "oracle_block",
    "oracle_difference", "oracle_lowpass", "oracle_or", "oracle_ordered_and",
    "IndexFormatError", "PositionalIndex", "build_index", "load_index",
    "save_index", "tokenize",
    "And", "Block", "LowPass", "Minus", "Or", "OrderedAnd",
    "QuerySyntaxError", "Term", "parse_query",
    "QueryResult", "StaleSourceError", "candidate_docs", "compile_query", "evaluate",
    "evaluate_with_profile", "rank", "search", "snippets",
]
