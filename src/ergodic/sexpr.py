"""S-expression reader/writer for fragment formulas.

Grammar (whitespace separated, case sensitive):

    form   := (rel REL var*) | (eq var var) | (not form)
            | (and form+) | (or form+)
            | (forall var form) | (exists var form)
            | (schemeAnd ivar N form) | (schemeOr ivar N form)
    REL    := name | (name ivar)     -- the second form is an indexed
                                        symbol template like (P n)
    N      := positive integer       -- materialized prefix length

Variables are bare names (conventionally x, y, x0 ...). A scheme's
index variable scopes over symbol templates in its body, not over term
positions.
"""

from __future__ import annotations


class SexprError(ValueError):
    pass


def tokenize(text: str) -> list[str]:
    out: list[str] = []
    word = []
    for ch in text:
        if ch in "()":
            if word:
                out.append("".join(word))
                word = []
            out.append(ch)
        elif ch.isspace():
            if word:
                out.append("".join(word))
                word = []
        else:
            word.append(ch)
    if word:
        out.append("".join(word))
    return out


def _parse_tokens(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise SexprError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        items = []
        pos += 1
        while True:
            if pos >= len(tokens):
                raise SexprError("unbalanced parentheses")
            if tokens[pos] == ")":
                return items, pos + 1
            item, pos = _parse_tokens(tokens, pos)
            items.append(item)
    if tok == ")":
        raise SexprError("unexpected ')'")
    return tok, pos + 1


def parse_sexpr(text: str):
    """Parse one s-expression into nested lists of strings."""
    tokens = tokenize(text)
    if not tokens:
        raise SexprError("empty input")
    tree, pos = _parse_tokens(tokens, 0)
    if pos != len(tokens):
        raise SexprError(f"trailing tokens after form: {tokens[pos:]}")
    return tree


def parse_many(text: str):
    """Parse a whitespace-separated sequence of s-expressions."""
    tokens = tokenize(text)
    out = []
    pos = 0
    while pos < len(tokens):
        tree, pos = _parse_tokens(tokens, pos)
        out.append(tree)
    return out


def format_sexpr(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + " ".join(format_sexpr(t) for t in tree) + ")"

