"""Query language: AST nodes and a recursive-descent parser.

Grammar, loosest binding first:

    query    :=  diff ('|' diff)*            alternation, variadic
    diff     :=  conj ('-' conj)*            difference, left-associative
    conj     :=  post (('&' post)+           conjunction, variadic
                      | ('<' post)+)         ordered conjunction, variadic
    post     :=  primary ('~' INT)*          proximity (width) filter
    primary  :=  WORD | '"' words '"' | '(' query ')'

'&' and '<' do not mix at one level; parenthesize to combine them. Quoted
phrases become exact-adjacency blocks over their words. Query words are
tokenized exactly like document text.
"""

import re
from dataclasses import dataclass

from .index import tokenize


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


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<word>[^\W_]+)
      | (?P<phrase>"[^"]*")
      | (?P<punct>[|&<~\-()])
    )""",
    re.VERBOSE,
)


def _lex(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            offset = len(text) - len(stripped)
            raise QuerySyntaxError(offset, f"unexpected character {stripped[0]!r}")
        if match.lastgroup == "word":
            tokens.append(("word", match.group("word").lower(), match.start("word")))
        elif match.lastgroup == "phrase":
            body = match.group("phrase")[1:-1]
            tokens.append(("phrase", body, match.start("phrase")))
        else:
            tokens.append(("punct", match.group("punct"), match.start("punct")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.text))

    def take(self):
        token = self.peek()
        self.pos += 1
        return token

    def fail(self, message):
        raise QuerySyntaxError(self.peek()[2], message)

    def parse(self):
        node = self.or_expr()
        kind, value, offset = self.peek()
        if kind != "end":
            raise QuerySyntaxError(offset, f"unexpected {value!r}")
        return node

    def or_expr(self):
        children = [self.diff_expr()]
        while self.peek()[:2] == ("punct", "|"):
            self.take()
            children.append(self.diff_expr())
        if len(children) == 1:
            return children[0]
        return Or(tuple(children))

    def diff_expr(self):
        node = self.conj_expr()
        while self.peek()[:2] == ("punct", "-"):
            self.take()
            node = Minus(node, self.conj_expr())
        return node

    def conj_expr(self):
        first = self.postfix_expr()
        kind, value, _ = self.peek()
        if (kind, value) == ("punct", "&"):
            children = [first]
            while self.peek()[:2] == ("punct", "&"):
                self.take()
                children.append(self.postfix_expr())
            return And(tuple(children))
        if (kind, value) == ("punct", "<"):
            children = [first]
            while self.peek()[:2] == ("punct", "<"):
                self.take()
                children.append(self.postfix_expr())
            return OrderedAnd(tuple(children))
        return first

    def postfix_expr(self):
        node = self.primary()
        while self.peek()[:2] == ("punct", "~"):
            self.take()
            kind, value, offset = self.take()
            if kind != "word" or not value.isdecimal():
                raise QuerySyntaxError(offset, "proximity filter needs an integer")
            k = int(value)
            if k <= 0:
                raise QuerySyntaxError(offset, f"proximity width must be positive, got {k}")
            node = LowPass(node, k)
        return node

    def primary(self):
        kind, value, offset = self.take()
        if kind == "word":
            return Term(value)
        if kind == "phrase":
            words = [term for term, _ in tokenize(value)]
            if not words:
                raise QuerySyntaxError(offset, "empty phrase")
            return Block(tuple(Term(w) for w in words))
        if (kind, value) == ("punct", "("):
            node = self.or_expr()
            kind, value, offset = self.take()
            if (kind, value) != ("punct", ")"):
                raise QuerySyntaxError(offset, "expected ')'")
            return node
        raise QuerySyntaxError(offset, f"expected a term, got {value!r}" if value else "expected a term")


def parse_query(text: str):
    """Parse query text into an AST; raises QuerySyntaxError with offset."""
    return _Parser(text).parse()
