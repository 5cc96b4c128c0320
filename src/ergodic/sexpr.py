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

import re

# Deepest nesting of parentheses the reader accepts. Every formula walker
# downstream recurses once per level, so deeper input is refused here, as
# bad input, before it can exhaust the interpreter's stack.
MAX_DEPTH = 100

_TOKEN = re.compile(r"[()]|[^()\s]+")


class SexprError(ValueError):
    pass


def _read(tokens: list[str], pos: int):
    """The form starting at tokens[pos], and the position after it."""
    open_lists: list[list] = []
    for pos in range(pos, len(tokens)):
        item = tokens[pos]
        if item == "(":
            if len(open_lists) == MAX_DEPTH:
                raise SexprError(f"nesting deeper than {MAX_DEPTH} levels")
            open_lists.append([])
            continue
        if item == ")":
            if not open_lists:
                raise SexprError("unexpected ')'")
            item = open_lists.pop()
        if not open_lists:
            return item, pos + 1
        open_lists[-1].append(item)
    raise SexprError("unbalanced parentheses")


def parse_sexpr(text: str):
    """Parse one s-expression into nested lists of strings."""
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise SexprError("empty input")
    tree, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise SexprError(f"trailing tokens after form: {tokens[pos:]}")
    return tree


def parse_many(text: str):
    """Parse a whitespace-separated sequence of s-expressions."""
    tokens = _TOKEN.findall(text)
    out = []
    pos = 0
    while pos < len(tokens):
        tree, pos = _read(tokens, pos)
        out.append(tree)
    return out


def format_sexpr(tree) -> str:
    if isinstance(tree, str):
        return tree
    return "(" + " ".join(format_sexpr(t) for t in tree) + ")"

