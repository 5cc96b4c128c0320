"""The s-expression reader and writer: round trips, errors, the nesting bound."""

import pytest

from ergodic.sexpr import MAX_DEPTH, SexprError, format_sexpr, parse_many, parse_sexpr


def nested(depth: int) -> str:
    """A formula whose parentheses nest `depth` deep: (not ... (rel R0 x0 x1) ...)."""
    return "(not " * (depth - 1) + "(rel R0 x0 x1)" + ")" * (depth - 1)


@pytest.mark.parametrize(
    "text",
    [
        "x0",
        "(rel R0 x0 x1)",
        "(forall x0 (schemeAnd n 3 (or (rel (P n) x0) (not (eq x0 x0)))))",
        "()",
        "(a () (b))",
        nested(MAX_DEPTH),
    ],
)
def test_format_inverts_parse(text):
    tree = parse_sexpr(text)
    assert format_sexpr(tree) == text
    assert parse_sexpr(format_sexpr(tree)) == tree


def test_whitespace_separates_and_brackets_split_words():
    assert parse_sexpr(" (and\n\t(rel R x0)(eq x0 x1) ) ") == [
        "and", ["rel", "R", "x0"], ["eq", "x0", "x1"]
    ]
    assert parse_many("(a b) c\n(d (e))") == [["a", "b"], "c", ["d", ["e"]]]
    assert parse_many("  ") == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty input"),
        (" \n ", "empty input"),
        ("(rel R0 x0", "unbalanced parentheses"),
        ("((a)", "unbalanced parentheses"),
        (")", "unexpected ')'"),
        ("(a))", "trailing tokens after form: [')']"),
        ("(a) (b)", "trailing tokens after form: ['(', 'b', ')']"),
    ],
)
def test_malformed_input_is_refused(text, message):
    with pytest.raises(SexprError) as err:
        parse_sexpr(text)
    assert str(err.value) == message


def test_parse_many_refuses_what_parse_sexpr_does():
    for text in ("(a) (b", "(a) )", nested(MAX_DEPTH + 1)):
        with pytest.raises(SexprError):
            parse_many(text)


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 1200, 100_000])
def test_nesting_past_the_bound_is_refused(depth):
    with pytest.raises(SexprError) as err:
        parse_sexpr(nested(depth))
    assert str(err.value) == f"nesting deeper than {MAX_DEPTH} levels"
