"""Definitional expansion of fragment theories into flat relational form.

A fragment formula is an AST over atomic formulas, equality, booleans,
quantifiers, and countable conjunction/disjunction schemes cut off at a
materialized prefix. `morleyize` assigns a fresh relation symbol to
every subformula in the closure and emits:

  * universal defining axioms for atomic, negation, boolean, and
    scheme nodes (the scheme direction that survives first-order
    truncation),
  * one-point-extension defining axioms for quantifier nodes, folded
    into a single prenex form ∀x̄ ∀u ∃w (…) per node so every axiom is
    either universal or has exactly one existential witness variable,
  * a partial quantifier-free type per scheme node whose omission pins
    the scheme symbol to its intended infinitary meaning; the
    unmaterialized tail is carried as a generator so deeper prefixes
    can be produced on demand,
  * a propositional assertion symbol for every input sentence.

Evaluation of scheme nodes on finite structures uses the materialized
prefix only; this truncation is the module's documented semantic cut.

Which field of a node holds its subformulas is known to two functions
only: `parts` returns a node's immediate subformulas, left to right,
and `map_parts` rebuilds the node with a function applied to each.
Every walker over the AST recurses through them and spells out only
the node kinds whose meaning is its own.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace

import numpy as np

from . import sexpr
from .logic import (
    And,
    Eq,
    FiniteStructure,
    Not,
    Or,
    QfFormula,
    Rel,
    Signature,
    conj,
    iff,
    implies,
    prenex_holds,
    qf_grid,
)


class MorleyError(ValueError):
    pass


# ---------------------------------------------------------------------------
# fragment formula AST
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelRef:
    """A relation symbol reference: literal name or indexed template.

    `P` with index_var `n` resolves to P0, P1, ... when a surrounding
    scheme substitutes concrete indices.
    """

    base: str
    index_var: str | None = None

    def resolved(self) -> str:
        if self.index_var is not None:
            raise MorleyError(f"unresolved symbol template ({self.base} {self.index_var})")
        return self.base


@dataclass(frozen=True)
class FAtom:
    rel: RelRef
    args: tuple[str, ...]


@dataclass(frozen=True)
class FEq:
    left: str
    right: str


@dataclass(frozen=True)
class FNot:
    sub: "Fragment"


@dataclass(frozen=True)
class FAnd:
    subs: tuple["Fragment", ...]


@dataclass(frozen=True)
class FOr:
    subs: tuple["Fragment", ...]


@dataclass(frozen=True)
class FForall:
    var: str
    sub: "Fragment"


@dataclass(frozen=True)
class FExists:
    var: str
    sub: "Fragment"


@dataclass(frozen=True)
class FSchemeAnd:
    index_var: str
    prefix_len: int
    body: "Fragment"


@dataclass(frozen=True)
class FSchemeOr:
    index_var: str
    prefix_len: int
    body: "Fragment"


Fragment = (
    FAtom | FEq | FNot | FAnd | FOr | FForall | FExists | FSchemeAnd | FSchemeOr
)


def parts(phi: Fragment) -> tuple[Fragment, ...]:
    """The immediate subformulas of a fragment node, left to right."""
    if isinstance(phi, (FAnd, FOr)):
        return phi.subs
    if isinstance(phi, (FNot, FForall, FExists)):
        return (phi.sub,)
    if isinstance(phi, (FSchemeAnd, FSchemeOr)):
        return (phi.body,)
    if isinstance(phi, (FAtom, FEq)):
        return ()
    raise MorleyError(f"not a fragment formula: {phi!r}")


def map_parts(phi: Fragment, f) -> Fragment:
    """phi with f applied to each immediate subformula."""
    if isinstance(phi, (FAnd, FOr)):
        return type(phi)(tuple(map(f, phi.subs)))
    if isinstance(phi, (FNot, FForall, FExists)):
        return replace(phi, sub=f(phi.sub))
    if isinstance(phi, (FSchemeAnd, FSchemeOr)):
        return replace(phi, body=f(phi.body))
    parts(phi)  # a leaf, or refused
    return phi


def canonical_vars(phi: Fragment) -> tuple[str, ...]:
    """Free variables in first-occurrence (left-to-right) order.

    This order fixes the argument order of the relation symbol assigned
    to the formula; unlike a name sort it is stable under renaming the
    free variables, so alpha-variant formulas share one symbol.
    """
    seen: dict[str, None] = {}  # an insertion-ordered set

    def walk(sub: Fragment, bound: frozenset[str]) -> None:
        if isinstance(sub, (FAtom, FEq)):
            leaf = sub.args if isinstance(sub, FAtom) else (sub.left, sub.right)
            seen.update((a, None) for a in leaf if a not in bound)
            return
        if isinstance(sub, (FForall, FExists)):
            bound = bound | {sub.var}
        for s in parts(sub):
            walk(s, bound)

    walk(phi, frozenset())
    return tuple(seen)


def _map_index_var(phi: Fragment, ivar: str, ref) -> Fragment:
    """phi with every symbol template (P ivar) replaced by ref(P).

    A nested scheme that rebinds ivar shadows it.
    """
    if isinstance(phi, FAtom):
        return FAtom(ref(phi.rel.base), phi.args) if phi.rel.index_var == ivar else phi
    if isinstance(phi, (FSchemeAnd, FSchemeOr)) and phi.index_var == ivar:
        return phi
    return map_parts(phi, lambda s: _map_index_var(s, ivar, ref))


def scheme_instance(phi: FSchemeAnd | FSchemeOr, i: int) -> Fragment:
    """Instance i of the scheme body: each template (P ivar) becomes the symbol Pi."""
    return _map_index_var(phi.body, phi.index_var, lambda base: RelRef(f"{base}{i}"))


def _canonicalize(phi: Fragment, env: dict[str, str], counters: list[int]) -> Fragment:
    """Rewrite with canonical bound-variable and index-variable names.

    env maps in-scope variable names to canonical ones; counters =
    [next bound var id, next index var id]. Free-variable renaming is
    installed in env by the caller.
    """
    if isinstance(phi, FAtom):
        return FAtom(phi.rel, tuple(env[a] for a in phi.args))
    if isinstance(phi, FEq):
        return FEq(env[phi.left], env[phi.right])
    if isinstance(phi, (FForall, FExists)):
        fresh = f"b{counters[0]}"
        counters[0] += 1
        return type(phi)(fresh, _canonicalize(phi.sub, {**env, phi.var: fresh}, counters))
    if isinstance(phi, (FSchemeAnd, FSchemeOr)):
        fresh = f"i{counters[1]}"
        counters[1] += 1
        body = _map_index_var(phi.body, phi.index_var, lambda base: RelRef(base, fresh))
        return type(phi)(fresh, phi.prefix_len, _canonicalize(body, env, counters))
    return map_parts(phi, lambda s: _canonicalize(s, env, counters))


def canonical_form(phi: Fragment) -> Fragment:
    """Alpha-normal form: free vars v0.., bound vars b0.., index vars i0..

    Free variables are numbered in first-occurrence order, so any two
    formulas differing only in variable names become equal here.
    """
    env = {name: f"v{i}" for i, name in enumerate(canonical_vars(phi))}
    return _canonicalize(phi, env, [0, 0])


# ---------------------------------------------------------------------------
# s-expression bridge
# ---------------------------------------------------------------------------


def fragment_from_tree(tree) -> Fragment:
    if isinstance(tree, str):
        raise MorleyError(f"bare token {tree!r} is not a formula")
    if not tree:
        raise MorleyError("empty form")
    head = tree[0]
    if head == "rel":
        if len(tree) < 2:
            raise MorleyError("(rel REL args...) needs a symbol")
        ref = tree[1]
        if isinstance(ref, str):
            rel = RelRef(ref)
        elif len(ref) == 2 and all(isinstance(p, str) for p in ref):
            rel = RelRef(ref[0], ref[1])
        else:
            raise MorleyError(f"bad symbol reference {ref!r}")
        args = tree[2:]
        if not all(isinstance(a, str) for a in args):
            raise MorleyError("relation arguments must be variables")
        return FAtom(rel, tuple(args))
    if head == "eq":
        if len(tree) != 3 or not all(isinstance(a, str) for a in tree[1:]):
            raise MorleyError("(eq x y) needs two variables")
        return FEq(tree[1], tree[2])
    if head == "not":
        if len(tree) != 2:
            raise MorleyError("(not form) needs one subformula")
        return FNot(fragment_from_tree(tree[1]))
    if head in ("and", "or"):
        subs = tuple(fragment_from_tree(t) for t in tree[1:])
        if not subs:
            raise MorleyError(f"({head} ...) needs at least one subformula")
        return FAnd(subs) if head == "and" else FOr(subs)
    if head in ("forall", "exists"):
        if len(tree) != 3 or not isinstance(tree[1], str):
            raise MorleyError(f"({head} var form) malformed")
        cls = FForall if head == "forall" else FExists
        return cls(tree[1], fragment_from_tree(tree[2]))
    if head in ("schemeAnd", "schemeOr"):
        if len(tree) != 4 or not isinstance(tree[1], str) or not isinstance(tree[2], str):
            raise MorleyError(f"({head} ivar N form) malformed")
        if _PREFIX_LENGTH.fullmatch(tree[2]) is None:
            raise MorleyError(f"prefix length {tree[2]!r} is not a positive decimal")
        cls = FSchemeAnd if head == "schemeAnd" else FSchemeOr
        return cls(tree[1], int(tree[2]), fragment_from_tree(tree[3]))
    raise MorleyError(f"unknown form {head!r}")


_HEADS = {
    FAtom: "rel", FEq: "eq", FNot: "not", FAnd: "and", FOr: "or", FForall: "forall",
    FExists: "exists", FSchemeAnd: "schemeAnd", FSchemeOr: "schemeOr",
}


def fragment_to_tree(phi: Fragment):
    subs = [fragment_to_tree(s) for s in parts(phi)]
    if isinstance(phi, FAtom):
        rel = phi.rel.base if phi.rel.index_var is None else [phi.rel.base, phi.rel.index_var]
        labels = [rel, *phi.args]
    elif isinstance(phi, FEq):
        labels = [phi.left, phi.right]
    elif isinstance(phi, (FForall, FExists)):
        labels = [phi.var]
    elif isinstance(phi, (FSchemeAnd, FSchemeOr)):
        labels = [phi.index_var, str(phi.prefix_len)]
    else:
        labels = []
    return [_HEADS[type(phi)], *labels, *subs]


def parse_fragment(text: str) -> Fragment:
    return fragment_from_tree(sexpr.parse_sexpr(text))


def render_fragment(phi: Fragment) -> str:
    return sexpr.format_sexpr(fragment_to_tree(phi))


# ---------------------------------------------------------------------------
# finite-model evaluation (Tarskian, schemes truncated to their prefix)
# ---------------------------------------------------------------------------


def eval_fragment(structure: FiniteStructure, phi: Fragment, env: dict[str, int]) -> bool:
    if isinstance(phi, FAtom):
        sym = structure.signature.index_of(phi.rel.resolved())
        return structure.holds(sym, tuple(env[a] for a in phi.args))
    if isinstance(phi, FEq):
        return env[phi.left] == env[phi.right]
    if isinstance(phi, FNot):
        return not eval_fragment(structure, phi.sub, env)
    if isinstance(phi, (FForall, FExists)):
        hits = (
            eval_fragment(structure, phi.sub, {**env, phi.var: e})
            for e in range(structure.domain_size)
        )
    elif isinstance(phi, (FSchemeAnd, FSchemeOr)):
        hits = (eval_fragment(structure, scheme_instance(phi, i), env)
                for i in range(phi.prefix_len))
    else:
        hits = (eval_fragment(structure, s, env) for s in parts(phi))
    return all(hits) if isinstance(phi, (FAnd, FForall, FSchemeAnd)) else any(hits)


# ---------------------------------------------------------------------------
# the transform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClosureNode:
    index: int
    formula: Fragment  # canonical form
    name: str
    arity: int


@dataclass(frozen=True)
class Axiom:
    """Prenex sentence: quantifier prefix over a quantifier-free matrix.

    prefix is a string over {A, E}; variable i of the matrix is bound
    by prefix position i. Anything of shape A*E? is within contract;
    check_pi2minus audits exactly that.
    """

    prefix: str
    matrix: QfFormula
    kind: int
    source: int | None
    label: str

    @property
    def pithy(self) -> bool:
        return self.prefix.endswith("E")


@dataclass(frozen=True)
class QTypeLiteral:
    symbol: int  # index into L'
    args: tuple[int, ...]
    positive: bool


@dataclass(frozen=True)
class QType:
    source: int
    pattern: str  # "conj" (positive prefix, negative scheme) or "disj" (dual)
    arity: int
    literals: tuple[QTypeLiteral, ...]
    tail_index_var: str
    tail_body: str  # s-expression of the generator body
    tail_start: int


@dataclass(frozen=True)
class MorleyResult:
    base: Signature
    language: Signature
    nodes: tuple[ClosureNode, ...]
    axioms: tuple[Axiom, ...]
    qtypes: tuple[QType, ...]
    node_lookup: dict = field(compare=False, hash=False, repr=False, default=None)

    @property
    def universal_axioms(self) -> tuple[Axiom, ...]:
        return tuple(a for a in self.axioms if not a.pithy)

    @property
    def pithy_axioms(self) -> tuple[Axiom, ...]:
        return tuple(a for a in self.axioms if a.pithy)

    def node_symbol(self, index: int) -> int:
        """L' symbol index of closure node #index."""
        return len(self.base.symbols) + index

    def node_of(self, phi: Fragment) -> int:
        return self.node_lookup[canonical_form(phi)]

    def symbol_of(self, phi: Fragment) -> int:
        """L' symbol index of the closure node phi canonicalizes to."""
        return self.node_symbol(self.node_of(phi))


def subformula_closure(sentences: list[Fragment]) -> list[Fragment]:
    """Canonical subformulas in postorder of first appearance.

    Scheme nodes contribute their materialized prefix instances (and
    those instances' own subformulas) before the scheme node itself.
    """
    seen: dict[Fragment, int] = {}
    order: list[Fragment] = []

    def visit(phi: Fragment) -> None:
        if isinstance(phi, (FSchemeAnd, FSchemeOr)):
            subs = (scheme_instance(phi, i) for i in range(phi.prefix_len))
        else:
            subs = parts(phi)
        for s in subs:
            visit(s)
        canon = canonical_form(phi)
        if canon not in seen:
            seen[canon] = len(order)
            order.append(canon)

    for phi in sentences:
        visit(phi)
    return order


_KINDS = {FAtom: 1, FEq: 1, FNot: 2, FAnd: 3, FOr: 4, FSchemeAnd: 5, FSchemeOr: 6,
          FForall: 7, FExists: 8}


def definition(phi: Fragment, base: Signature, symbol) -> QfFormula:
    """phi's meaning as a QF formula over base symbols and symbol(child) of its children.

    Variable i is phi's i-th free variable (canonical_vars order). A
    scheme node is the And/Or of its materialized instances; a quantifier
    node is its child alone, with the bound variable last, left to quantify.
    """
    env = {v: i for i, v in enumerate(canonical_vars(phi))}
    if isinstance(phi, (FForall, FExists)):
        env[phi.var] = len(env)

    def child(sub: Fragment) -> Rel:
        return Rel(symbol(sub), tuple(env[v] for v in canonical_vars(sub)))

    if isinstance(phi, FAtom):
        name = phi.rel.resolved()
        try:
            sym = base.index_of(name)
        except ValueError:
            raise MorleyError(f"atomic symbol {name!r} not in the base language") from None
        if base.arity(sym) != len(phi.args):
            raise MorleyError(f"arity mismatch for {name!r}")
        return Rel(sym, tuple(env[a] for a in phi.args))
    if isinstance(phi, FEq):
        return Eq(env[phi.left], env[phi.right])
    if isinstance(phi, FNot):
        return Not(child(phi.sub))
    if isinstance(phi, (FForall, FExists)):
        return child(phi.sub)
    if isinstance(phi, (FSchemeAnd, FSchemeOr)):
        subs = tuple(child(scheme_instance(phi, i)) for i in range(phi.prefix_len))
    else:
        subs = tuple(map(child, parts(phi)))
    return And(subs) if isinstance(phi, (FAnd, FSchemeAnd)) else Or(subs)


MAX_ARITY = 16  # the most free variables a closure node may have


def morleyize(sentences: list[Fragment], base: Signature) -> MorleyResult:
    closure = subformula_closure(sentences)
    nodes: list[ClosureNode] = []
    lookup: dict[Fragment, int] = {}
    for idx, phi in enumerate(closure):
        arity = len(canonical_vars(phi))
        if arity > MAX_ARITY:
            raise MorleyError(
                f"free-variable supply exhausted: node has arity {arity} > {MAX_ARITY}"
            )
        nodes.append(ClosureNode(idx, phi, f"Rf{idx}", arity))
        lookup[phi] = idx

    nbase = len(base.symbols)
    language = Signature(base.symbols + tuple((node.name, node.arity) for node in nodes))

    def rsym(phi: Fragment) -> int:
        return nbase + lookup[canonical_form(phi)]

    axioms: list[Axiom] = []
    qtypes: list[QType] = []

    for node in nodes:
        phi = node.formula
        j, kind, label = node.arity, _KINDS[type(phi)], f"def:{node.name}"
        head = Rel(nbase + node.index, tuple(range(j)))
        body = definition(phi, base, rsym)
        if isinstance(phi, (FForall, FExists)):
            # the child on an extra universal variable j, and on the witness j + 1
            witness = Rel(body.sym, tuple(j + 1 if v == j else v for v in body.args))
            if kind == 7:
                matrix = conj(implies(head, body), implies(witness, head))
            else:
                matrix = conj(implies(body, head), implies(head, witness))
            axioms.append(Axiom("A" * (j + 1) + "E", matrix, kind, node.index, label))
        elif isinstance(phi, (FSchemeAnd, FSchemeOr)):
            for i, part in enumerate(body.subs):
                matrix = implies(head, part) if kind == 5 else implies(part, head)
                axioms.append(Axiom("A" * j, matrix, kind, node.index, f"{label}[{i}]"))
            lits = [QTypeLiteral(part.sym, part.args, kind == 5) for part in body.subs]
            lits.append(QTypeLiteral(head.sym, head.args, kind != 5))
            qtypes.append(QType(node.index, "conj" if kind == 5 else "disj", j, tuple(lits),
                                phi.index_var, render_fragment(phi.body), phi.prefix_len))
        else:
            axioms.append(Axiom("A" * j, iff(head, body), kind, node.index, label))

    for phi in sentences:
        if canonical_vars(phi):
            continue  # open formulas seed the closure but assert nothing
        axioms.append(
            Axiom("", Rel(rsym(phi), ()), 0, lookup[canonical_form(phi)], "assert")
        )

    return MorleyResult(base, language, tuple(nodes), tuple(axioms), tuple(qtypes), lookup)


# ---------------------------------------------------------------------------
# expansion, reduct, audits
# ---------------------------------------------------------------------------


def canonical_expand(structure: FiniteStructure, result: MorleyResult) -> FiniteStructure:
    """Expand an L-structure to L' by each closure node's definition.

    Nodes come in closure postorder, so a node's definition reads base
    tables and tables already filled: one qf_grid per node, a quantifier
    node's grid folded over its last axis. CeilingError before any grid
    past MAX_FINGERPRINT_BITS cells (n**(arity + 1) for a quantifier
    node), as axiom_holds raises on that node's wider A...AE axiom.
    """
    if structure.signature.symbols != result.base.symbols:
        raise MorleyError("structure signature does not match the base language")
    n = structure.domain_size
    tables = dict(structure.tables)
    for node in result.nodes:
        phi = node.formula
        quantified = isinstance(phi, (FForall, FExists))
        truth = qf_grid(definition(phi, result.base, result.symbol_of), tables, n,
                        node.arity + quantified)
        if quantified:
            truth = truth.all(axis=-1) if isinstance(phi, FForall) else truth.any(axis=-1)
        tables[result.node_symbol(node.index)] = np.array(truth)  # a 0-d array for a sentence
    return FiniteStructure.from_tables(result.language, n, tables)


def reduct(structure: FiniteStructure, base: Signature) -> FiniteStructure:
    """The structure's restriction to `base`, which must begin its signature."""
    nbase = len(base.symbols)
    if structure.signature.symbols[:nbase] != base.symbols:
        raise MorleyError("the reduct's base is not a prefix of the structure's signature")
    kept = {sym: structure.tables[sym] for sym in range(nbase)}
    return FiniteStructure.from_tables(base, structure.domain_size, kept)


def verify_reduct_roundtrip(structure: FiniteStructure, result: MorleyResult) -> bool:
    expanded = canonical_expand(structure, result)
    return reduct(expanded, result.base) == structure


_PI2MINUS = re.compile(r"A*E?")


def check_pi2minus(axioms) -> bool:
    """Shape audit: every axiom universal or one-point-extension."""
    if isinstance(axioms, MorleyResult):
        axioms = axioms.axioms
    return all(_PI2MINUS.fullmatch(ax.prefix) for ax in axioms)


def axiom_holds(structure: FiniteStructure, axiom: Axiom) -> bool:
    """Evaluate a prenex axiom over the structure's finite domain."""
    return prenex_holds(axiom.prefix, axiom.matrix, structure.tables, structure.domain_size)


def qtype_prefix_realized(structure: FiniteStructure, qtype: QType) -> list[tuple[int, ...]]:
    """Tuples realizing every materialized literal of the type, in product order."""
    literals = [
        Rel(lit.symbol, lit.args) if lit.positive else Not(Rel(lit.symbol, lit.args))
        for lit in qtype.literals
    ]
    truth = qf_grid(conj(*literals), structure.tables, structure.domain_size, qtype.arity)
    return list(map(tuple, np.argwhere(truth).tolist()))


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _qf_to_tree(phi: QfFormula, signature: Signature):
    if isinstance(phi, Rel):
        return ["rel", signature.name(phi.sym), *(f"x{i}" for i in phi.args)]
    if isinstance(phi, Eq):
        return ["eq", f"x{phi.left}", f"x{phi.right}"]
    if isinstance(phi, Not):
        return ["not", _qf_to_tree(phi.sub, signature)]
    if isinstance(phi, And):
        return ["and", *(_qf_to_tree(s, signature) for s in phi.subs)]
    if isinstance(phi, Or):
        return ["or", *(_qf_to_tree(s, signature) for s in phi.subs)]
    raise MorleyError(f"not quantifier-free: {phi!r}")


_VARIABLE = re.compile(r"x(0|[1-9][0-9]*)")
_PREFIX_LENGTH = re.compile(r"[1-9][0-9]*")


def _var(token) -> int:
    """The index of a variable token x0, x1, ...; any other spelling is refused."""
    match = _VARIABLE.fullmatch(token) if isinstance(token, str) else None
    if match is None:
        raise MorleyError(f"bad variable {token!r}: want x0, x1, ...")
    return int(match[1])


def _qf_from_tree(tree, signature: Signature) -> QfFormula:
    """The QF formula a tree spells, read through fragment_from_tree and its shape checks."""
    def qf(phi: Fragment) -> QfFormula:
        if isinstance(phi, FAtom):
            name = phi.rel.resolved()
            sym, args = signature.index_of(name), tuple(map(_var, phi.args))
            if len(args) != signature.arity(sym):
                raise MorleyError(
                    f"{name} has arity {signature.arity(sym)}, got {len(args)} arguments"
                )
            return Rel(sym, args)
        if isinstance(phi, FEq):
            return Eq(_var(phi.left), _var(phi.right))
        if isinstance(phi, FNot):
            return Not(qf(phi.sub))
        if isinstance(phi, (FAnd, FOr)):
            return (And if isinstance(phi, FAnd) else Or)(tuple(map(qf, phi.subs)))
        raise MorleyError(f"bad matrix form {_HEADS[type(phi)]!r}")

    return qf(fragment_from_tree(tree))


def result_to_json(result: MorleyResult) -> str:
    doc = {
        "base": [{"name": n, "arity": a} for n, a in result.base.symbols],
        "table": [
            {
                "name": node.name,
                "arity": node.arity,
                "formula": render_fragment(node.formula),
            }
            for node in result.nodes
        ],
        "axioms": [
            {
                "prefix": ax.prefix,
                "kind": ax.kind,
                "source": ax.source,
                "label": ax.label,
                "matrix": sexpr.format_sexpr(_qf_to_tree(ax.matrix, result.language)),
            }
            for ax in result.axioms
        ],
        "qtypes": [
            {
                "source": q.source,
                "pattern": q.pattern,
                "arity": q.arity,
                "literals": [
                    {
                        "symbol": result.language.name(lit.symbol),
                        "args": list(lit.args),
                        "positive": lit.positive,
                    }
                    for lit in q.literals
                ],
                "tail_index_var": q.tail_index_var,
                "tail_body": q.tail_body,
                "tail_start": q.tail_start,
            }
            for q in result.qtypes
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
