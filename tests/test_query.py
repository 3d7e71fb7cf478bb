import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from minq import (
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
from minq.index import words
from minq.query import MAX_DEPTH

from helpers import TEXT_CHARS


def test_caption_query_shape():
    assert parse_query("(hot | cold) & porridge & pease") == And(
        (Or((Term("hot"), Term("cold"))), Term("porridge"), Term("pease"))
    )


def test_phrase():
    assert parse_query('"pease porridge"') == Block((Term("pease"), Term("porridge")))


def test_precedence_exercise():
    assert parse_query('(a < b < c)~5 - "x y"') == Minus(
        LowPass(OrderedAnd((Term("a"), Term("b"), Term("c"))), 5),
        Block((Term("x"), Term("y"))),
    )


def test_minus_is_left_associative():
    assert parse_query("a - b - c") == Minus(Minus(Term("a"), Term("b")), Term("c"))


def test_or_lowest_precedence():
    assert parse_query("a | b & c") == Or((Term("a"), And((Term("b"), Term("c")))))


def test_terms_are_lowercased():
    assert parse_query("HoT") == Term("hot")


def test_terms_are_case_folded():
    assert parse_query("Straße") == Term("strasse")
    # Folding maps one character at a time: no final-sigma rule by context.
    assert parse_query("ΟΔΟΣ") == parse_query("οδοσ") == Term("οδοσ")


def test_chunk_of_several_words_is_a_phrase():
    assert parse_query("don't") == Block((Term("don"), Term("t")))
    assert parse_query("İstanbul") == parse_query("i\u0307stanbul") == Block(
        (Term("i"), Term("stanbul"))
    )
    assert parse_query("don't & pease~3") == And(
        (Block((Term("don"), Term("t"))), LowPass(Term("pease"), 3))
    )


def test_phrase_tokenized_like_documents():
    assert parse_query('"Pease-Porridge!"') == Block(
        (Term("pease"), Term("porridge"))
    )


def test_postfix_on_term():
    assert parse_query("a~3") == LowPass(Term("a"), 3)


def test_variadic_chains():
    assert parse_query("a | b | c") == Or((Term("a"), Term("b"), Term("c")))
    assert parse_query("a < b < c") == OrderedAnd((Term("a"), Term("b"), Term("c")))


@pytest.mark.parametrize(
    "bad",
    # "pease~²": '²' passes str.isdigit, but int() rejects it
    ["a &", "| a", "(a", "a)", '"', '""', "a ~", "a ~x", "pease~²", "a & b < c", "a @ b", ""],
)
def test_syntax_errors(bad):
    with pytest.raises(QuerySyntaxError):
        parse_query(bad)


def test_syntax_error_carries_offset():
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("ab @")
    assert err.value.offset == 3
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("a &")
    assert err.value.offset == 3


def test_nonpositive_width_rejected():
    with pytest.raises(QuerySyntaxError):
        parse_query("a~0")
    with pytest.raises(QuerySyntaxError):
        parse_query("a~-1")


def test_width_past_the_int_digit_limit_is_a_syntax_error():
    width = "9" * 5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit == 0 or limit >= len(width):
        assert parse_query("a~" + width) == LowPass(Term("a"), int(width))
        return
    with pytest.raises(QuerySyntaxError) as err:
        parse_query("a~" + width)
    assert err.value.offset == 2
    assert "too long (5000 digits)" in str(err.value)


def nested_queries(levels):
    """Parentheses, a difference chain and a width chain, ``levels`` deep."""
    return [
        "(" * levels + "a" + ")" * levels,
        "-".join(["a"] * (levels + 1)),
        "a" + "~5" * levels,
    ]


def test_depth_limit_admits_queries_at_the_limit():
    parens, chain, widths = map(parse_query, nested_queries(MAX_DEPTH))
    assert parens == Term("a")
    node, depth = chain, 0
    while isinstance(node, Minus):
        node, depth = node.minuend, depth + 1
    assert depth == MAX_DEPTH
    node, depth = widths, 0
    while isinstance(node, LowPass):
        node, depth = node.child, depth + 1
    assert depth == MAX_DEPTH
    # groups and operator nodes count alike
    parse_query("(" * (MAX_DEPTH - 1) + "a & b" + ")" * (MAX_DEPTH - 1))
    with pytest.raises(QuerySyntaxError):
        parse_query("(" * MAX_DEPTH + "a & b" + ")" * MAX_DEPTH)


@pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 1_199])
def test_depth_limit_rejects_deeper_queries_with_offset(levels):
    parens, chain, widths = nested_queries(levels)
    for text, offset in (
        (parens, MAX_DEPTH),  # the first '(' past the limit
        (chain, 2 * MAX_DEPTH + 1),  # the '-' that makes the 101st level
        (widths, 2 * MAX_DEPTH + 1),  # the '~' that makes the 101st level
    ):
        with pytest.raises(QuerySyntaxError) as err:
            parse_query(text)
        assert err.value.offset == offset
        assert "deeper than" in str(err.value)


def show(node):
    """Fully parenthesized query text for ``node``."""
    if isinstance(node, Term):
        return node.term
    if isinstance(node, Block):
        return '"' + " ".join(child.term for child in node.children) + '"'
    if isinstance(node, LowPass):
        return f"({show(node.child)})~{node.k}"
    if isinstance(node, Minus):
        return f"({show(node.minuend)} - {show(node.subtrahend)})"
    separator = {Or: " | ", And: " & ", OrderedAnd: " < "}[type(node)]
    return "(" + separator.join(map(show, node.children)) + ")"


# Terms as the parser yields them: case-folded runs of letters and digits.
_TERMS = st.text("abcxyz019éñø", min_size=1, max_size=4).map(Term)
_OPERANDS = lambda children: st.lists(children, min_size=2, max_size=4).map(tuple)
ASTS = st.recursive(
    _TERMS | st.lists(_TERMS, min_size=1, max_size=3).map(lambda ts: Block(tuple(ts))),
    lambda children: st.one_of(
        _OPERANDS(children).map(Or),
        _OPERANDS(children).map(And),
        _OPERANDS(children).map(OrderedAnd),
        st.builds(LowPass, children, st.integers(1, 10**6)),
        st.builds(Minus, children, children),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(ASTS)
def test_printed_ast_parses_back(ast):
    assert parse_query(show(ast)) == ast


def leaves(node):
    """The terms of a parsed chunk or phrase: a term, or a block of terms."""
    if isinstance(node, Term):
        return [node.term]
    assert isinstance(node, Block)
    return [child.term for child in node.children]


# A chunk as the query grammar defines it: anything but whitespace, quotes
# and operator characters.
_CHUNK = re.compile(r'[^\s"|&<~\-()]+')


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(TEXT_CHARS + "Σß") | st.characters(codec="utf-8"), max_size=40))
def test_lexer_agrees_with_tokenize(text):
    text = text.replace('"', "")
    for query, expected, phrase in [(f'"{text}"', words(text), True)] + [
        (chunk, words(chunk), False) for chunk in _CHUNK.findall(text)
    ]:
        if not expected:
            with pytest.raises(QuerySyntaxError):
                parse_query(query)
            continue
        node = parse_query(query)
        assert leaves(node) == expected
        assert isinstance(node, Block) == (phrase or len(expected) > 1)
    # Every indexed word, typed alone as a query, is that same term.
    for word in words(text):
        assert parse_query(word) == Term(word)
