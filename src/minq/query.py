"""Query language: AST nodes and a recursive-descent parser.

Grammar, loosest binding first:

    query    :=  diff ('|' diff)*            alternation, variadic
    diff     :=  conj ('-' conj)*            difference, left-associative
    conj     :=  post (('&' post)+           conjunction, variadic
                      | ('<' post)+)         ordered conjunction, variadic
    post     :=  primary ('~' INT)*          proximity (width) filter
    primary  :=  CHUNK | '"' text '"' | '(' query ')'

A chunk is a run of anything but whitespace, quotes and the operator
characters ``|&<~-()``. Chunks and quoted phrases are split into words by
:func:`minq.index.words`, exactly like document text: a chunk of one word
is a term, and any other chunk or phrase with words is an exact-adjacency
block over them (``don't`` is the phrase ``don t``). '&' and '<' do not mix
at one level; parenthesize to combine them. Queries nested deeper than
:data:`MAX_DEPTH` levels are rejected with an offset.
"""

import re
from dataclasses import dataclass

from .index import words


class QuerySyntaxError(ValueError):
    """Bad query text; carries the 0-based character offset."""

    def __init__(self, offset: int, message: str):
        super().__init__(f"offset {offset}: {message}")
        self.offset = offset


@dataclass(frozen=True)
class Term:
    term: str


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Block:
    children: tuple


@dataclass(frozen=True)
class OrderedAnd:
    children: tuple


@dataclass(frozen=True)
class LowPass:
    child: object
    k: int


@dataclass(frozen=True)
class Minus:
    minuend: object
    subtrahend: object


MAX_DEPTH = 100
"""Deepest nesting a query may have. Each parenthesized group and each
operator node is one level, so a chain ``a-b-c`` or ``a~5~5`` is as deep as
it is long. Evaluation and the AST's own methods recurse once per level."""

_TOKEN = re.compile(
    r""""(?P<phrase>[^"]*)"
      | (?P<punct>[|&<~\-()])
      | (?P<chunk>[^\s"|&<~\-()]+)
      | (?P<quote>")""",
    re.VERBOSE,
)


def _lex(text: str):
    """(kind, text, offset) triples; no token matches whitespace, so it is skipped."""
    tokens = []
    for match in _TOKEN.finditer(text):
        kind = match.lastgroup
        if kind == "quote":
            raise QuerySyntaxError(match.start(), "unterminated phrase")
        tokens.append((kind, match.group(kind), match.start()))
    return tokens


class _Parser:
    """Recursive descent; each rule returns its node and that node's depth."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.open = 0  # parentheses entered and not yet closed

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def nest(self, offset, depth):
        """The depth one level above ``depth``, rejected past MAX_DEPTH."""
        if depth >= MAX_DEPTH:
            raise QuerySyntaxError(offset, f"query nests deeper than {MAX_DEPTH} levels")
        return depth + 1

    def parse(self):
        node, _ = self.or_expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise QuerySyntaxError(offset, f"unexpected {value!r}")
        return node

    def variadic(self, first, operator, operand, make):
        """``first`` followed by ``operator operand`` repeats, if any."""
        node, depth = first
        if self.peek()[:2] != ("punct", operator):
            return node, depth
        offset = self.peek()[2]
        children = [node]
        while self.peek()[:2] == ("punct", operator):
            self.take()
            child, child_depth = operand()
            children.append(child)
            depth = max(depth, child_depth)
        return make(tuple(children)), self.nest(offset, depth)

    def or_expr(self):
        return self.variadic(self.diff_expr(), "|", self.diff_expr, Or)

    def diff_expr(self):
        node, depth = self.conj_expr()
        while self.peek()[:2] == ("punct", "-"):
            offset = self.take()[2]
            subtrahend, sub_depth = self.conj_expr()
            node = Minus(node, subtrahend)
            depth = self.nest(offset, max(depth, sub_depth))
        return node, depth

    def conj_expr(self):
        first = self.postfix_expr()
        if self.peek()[:2] == ("punct", "<"):
            return self.variadic(first, "<", self.postfix_expr, OrderedAnd)
        return self.variadic(first, "&", self.postfix_expr, And)

    def postfix_expr(self):
        node, depth = self.primary()
        while self.peek()[:2] == ("punct", "~"):
            tilde = self.take()[2]
            kind, value, offset = self.take()
            if kind != "chunk" or not value.isdecimal():
                raise QuerySyntaxError(offset, "proximity filter needs an integer")
            try:
                k = int(value)
            except ValueError:  # past the interpreter's int-string digit limit
                raise QuerySyntaxError(
                    offset, f"proximity width is too long ({len(value)} digits)"
                ) from None
            if k <= 0:
                raise QuerySyntaxError(offset, f"proximity width must be positive, got {k}")
            node = LowPass(node, k)
            depth = self.nest(tilde, depth)
        return node, depth

    def primary(self):
        kind, value, offset = self.take()
        if kind in ("chunk", "phrase"):
            terms = words(value)
            if not terms:
                raise QuerySyntaxError(offset, f"no word in {value!r}")
            if kind == "chunk" and len(terms) == 1:
                return Term(terms[0]), 0
            return Block(tuple(map(Term, terms))), 1
        if (kind, value) == ("punct", "("):
            # Checked on the way in, so the recursion below stays shallow;
            # the group's own depth is at least its nesting anyway.
            self.nest(offset, self.open)
            self.open += 1
            node, depth = self.or_expr()
            kind, value, close = self.take()
            if (kind, value) != ("punct", ")"):
                raise QuerySyntaxError(close, "expected ')'")
            self.open -= 1
            return node, self.nest(offset, depth)
        raise QuerySyntaxError(offset, f"expected a term, got {value!r}" if value else "expected a term")


def parse_query(text: str):
    """Parse query text into an AST; raises QuerySyntaxError with offset.

    A query nested deeper than :data:`MAX_DEPTH` levels is a syntax error.
    """
    return _Parser(text).parse()
