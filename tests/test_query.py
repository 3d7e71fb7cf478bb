import pytest

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
