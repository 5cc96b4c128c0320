"""Definitional-expansion transform: axiom shapes, roundtrips, omitted types."""

import json
import random
import tracemalloc
from itertools import product

import pytest

from ergodic import sexpr
from ergodic.logic import CeilingError, FiniteStructure, Rel, Signature
from ergodic.morley import (
    Axiom,
    ClosureNode,
    FAnd,
    FAtom,
    FEq,
    FExists,
    FForall,
    FNot,
    FOr,
    FSchemeAnd,
    FSchemeOr,
    MorleyError,
    MorleyResult,
    QType,
    QTypeLiteral,
    RelRef,
    _canonicalize,
    _map_index_var,
    _qf_from_tree,
    axiom_holds,
    canonical_expand,
    canonical_form,
    canonical_vars,
    check_pi2minus,
    definition,
    eval_fragment,
    fragment_to_tree,
    map_parts,
    morleyize,
    parse_fragment,
    parts,
    qtype_prefix_realized,
    reduct,
    result_to_json,
    subformula_closure,
    verify_reduct_roundtrip,
)

BASE_R = Signature((("R", 2),))
BASE_P = Signature((("P0", 1), ("P1", 1), ("P2", 1)))

FORALL_EXISTS = "(forall x (exists y (rel R x y)))"
SCHEME_AND = "(forall x (schemeAnd n 3 (rel (P n) x)))"


def _random_structure(rng, signature, size):
    facts = set()
    for sym in range(len(signature)):
        arity = signature.arity(sym)
        for args in _tuples(size, arity):
            if rng.random() < 0.4:
                facts.add((sym, args))
    return FiniteStructure(signature, size, frozenset(facts))


def _tuples(size, arity):
    if arity == 0:
        return [()]
    out = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in range(size)]
    return out


def test_forall_exists_axiom_shapes():
    res = morleyize([parse_fragment(FORALL_EXISTS)], BASE_R)
    assert [(n.name, n.arity) for n in res.nodes] == [("Rf0", 2), ("Rf1", 1), ("Rf2", 0)]
    shapes = [(a.prefix, a.kind, a.label) for a in res.axioms]
    assert shapes == [
        ("AA", 1, "def:Rf0"),
        ("AAE", 8, "def:Rf1"),
        ("AE", 7, "def:Rf2"),
        ("", 0, "assert"),
    ]
    assert [a.prefix for a in res.pithy_axioms] == ["AAE", "AE"]
    assert len(res.universal_axioms) == 2
    assert res.qtypes == ()
    assert check_pi2minus(res.axioms)


def test_every_defining_axiom_names_its_node():
    res = morleyize([parse_fragment(FORALL_EXISTS)], BASE_R)
    for ax in res.axioms:
        node = res.nodes[ax.source]
        if ax.label.startswith("def:"):
            assert ax.label == f"def:{node.name}"


def test_scheme_and_emits_instances_plus_qtype():
    res = morleyize([parse_fragment(SCHEME_AND)], BASE_P)
    kinds = [a.kind for a in res.axioms]
    assert kinds == [1, 1, 1, 5, 5, 5, 7, 0]
    assert all(a.prefix == "A" for a in res.axioms[:6])

    (q,) = res.qtypes
    assert q.pattern == "conj"
    assert q.arity == 1
    # the three materialized instances positively, the scheme symbol negatively
    signs = [(lit.symbol, lit.positive) for lit in q.literals]
    inst_symbols = [res.node_symbol(i) for i in range(3)]
    scheme_symbol = res.node_symbol(3)
    assert signs == [(s, True) for s in inst_symbols] + [(scheme_symbol, False)]
    assert all(lit.args == (0,) for lit in q.literals)
    assert q.tail_index_var == "i0"
    assert q.tail_start == 3


def test_scheme_or_dualizes_the_literals():
    res = morleyize([parse_fragment("(exists x (schemeOr n 3 (rel (P n) x)))")], BASE_P)
    (q,) = res.qtypes
    assert q.pattern == "disj"
    signs = [lit.positive for lit in q.literals]
    assert signs == [False, False, False, True]


def test_canonical_form_is_alpha_invariant():
    a = canonical_form(parse_fragment("(forall x (exists y (rel R x y)))"))
    b = canonical_form(parse_fragment("(forall u (exists w (rel R u w)))"))
    assert a == b
    # swapped argument order is a different formula
    c = canonical_form(parse_fragment("(forall u (exists w (rel R w u)))"))
    assert a != c


def test_canonical_form_orders_by_first_occurrence():
    assert canonical_form(parse_fragment("(rel R a b)")) == canonical_form(
        parse_fragment("(rel R q z)")
    )
    assert canonical_form(parse_fragment("(rel R a a)")) != canonical_form(
        parse_fragment("(rel R a b)")
    )


def test_reduct_refuses_a_base_that_does_not_begin_the_signature():
    M = FiniteStructure(BASE_R, 3, frozenset({(0, (0, 1))}))
    for base in [Signature((("E", 2), ("F", 1))), Signature((("R", 1),)),
                 Signature((("R", 2), ("F", 1)))]:
        with pytest.raises(MorleyError, match="prefix"):
            reduct(M, base)
    assert reduct(M, BASE_R) == M
    assert reduct(M, Signature(())).facts == frozenset()


def test_expansion_reduces_back():
    rng = random.Random(7)
    res = morleyize([parse_fragment(FORALL_EXISTS)], BASE_R)
    for _ in range(20):
        M = _random_structure(rng, BASE_R, rng.randint(1, 4))
        exp = canonical_expand(M, res)
        assert reduct(exp, BASE_R).facts == M.facts
        assert verify_reduct_roundtrip(M, res)


def test_expansion_satisfies_defining_axioms_always():
    rng = random.Random(11)
    res = morleyize([parse_fragment(FORALL_EXISTS)], BASE_R)
    sentence = parse_fragment(FORALL_EXISTS)
    for _ in range(20):
        M = _random_structure(rng, BASE_R, rng.randint(1, 4))
        exp = canonical_expand(M, res)
        for ax in res.axioms:
            if ax.label == "assert":
                # the assertion tracks truth of the original sentence exactly
                assert axiom_holds(exp, ax) == eval_fragment(M, sentence, {})
            else:
                assert axiom_holds(exp, ax)


# the two MIXED sentences of test_frozen_outputs.py: a scheme around an
# existential and a nested scheme that rebinds its index variable
MIXED = [
    "(forall x (schemeOr n 2 (and (rel (P n) x)"
    " (exists y (schemeAnd n 2 (or (rel (P n) y) (not (eq x y))))))))",
    "(forall z (schemeOr m 2 (and (rel (P m) z)"
    " (exists w (schemeAnd m 2 (or (rel (P m) w) (not (eq z w))))))))",
]
BASE_RP = Signature((("R", 2), ("P0", 1), ("P1", 1)))


@pytest.mark.parametrize("text", [
    *MIXED,
    "(rel R x x)",
    "(eq x x)",
    "(forall y (rel R x x))",  # a quantifier whose variable its body lacks
    "(exists y (forall z (and (rel P1 y) (not (rel R y y)))))",
])
def test_every_expanded_table_matches_eval_fragment(text):
    res = morleyize([parse_fragment(text)], BASE_RP)
    rng = random.Random(text)
    for n in range(6):
        M = _random_structure(rng, BASE_RP, n)
        exp = canonical_expand(M, res)
        for node in res.nodes:
            fv = canonical_vars(node.formula)
            table = exp.tables[res.node_symbol(node.index)]
            for assignment in product(range(n), repeat=len(fv)):
                want = eval_fragment(M, node.formula, dict(zip(fv, assignment)))
                assert table[assignment] == want, (node.name, n, assignment)


def test_a_node_grid_past_the_ceiling_is_refused_before_it_is_allocated():
    # the quantifier node's grid has 8192**2 = 2**26 cells; its A..AE axiom needs 2**39
    base, n = Signature((("P", 1),)), 1 << 13
    res = morleyize([parse_fragment("(forall z (rel P x))")], base)
    M = FiniteStructure(base, n, ())
    tracemalloc.start()
    try:
        with pytest.raises(CeilingError):
            canonical_expand(M, res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    (pithy,) = res.pithy_axioms
    with pytest.raises(CeilingError):
        axiom_holds(FiniteStructure(res.language, n, ()), pithy)


def test_model_expansion_satisfies_everything():
    facts = frozenset((s, (i,)) for s in range(3) for i in range(2))
    M = FiniteStructure(BASE_P, 2, facts)
    res = morleyize([parse_fragment(SCHEME_AND)], BASE_P)
    exp = canonical_expand(M, res)
    assert all(axiom_holds(exp, a) for a in res.axioms)


def test_expansions_omit_the_scheme_qtype():
    res = morleyize([parse_fragment(SCHEME_AND)], BASE_P)
    (q,) = res.qtypes
    rng = random.Random(3)
    for _ in range(10):
        M = _random_structure(rng, BASE_P, rng.randint(1, 4))
        assert qtype_prefix_realized(canonical_expand(M, res), q) == []


def test_handmade_structure_realizes_qtype_prefix():
    res = morleyize([parse_fragment(SCHEME_AND)], BASE_P)
    (q,) = res.qtypes
    lang = res.language
    facts = frozenset({(res.node_symbol(0), (0,)), (res.node_symbol(1), (0,)),
                       (res.node_symbol(2), (0,))})
    M = FiniteStructure(lang, 1, facts)
    assert qtype_prefix_realized(M, q) == [(0,)]


def test_pi2minus_rejects_deeper_prefixes():
    ok = Axiom("AAE", Rel(0, (0,)), 7, 0, "x")
    assert check_pi2minus([ok])
    assert not check_pi2minus([Axiom("AEE", Rel(0, (0,)), 7, 0, "x")])
    assert not check_pi2minus([Axiom("EA", Rel(0, (0,)), 7, 0, "x")])
    assert not check_pi2minus([Axiom("AEA", Rel(0, (0,)), 7, 0, "x")])


def result_from_json(text: str) -> MorleyResult:
    """Rebuild a result from its JSON document, re-deriving each stored axiom's matrix."""
    doc = json.loads(text)
    base = Signature(tuple((s["name"], s["arity"]) for s in doc["base"]))
    nodes = tuple(
        ClosureNode(i, canonical_form(parse_fragment(entry["formula"])), entry["name"],
                    entry["arity"])
        for i, entry in enumerate(doc["table"])
    )
    language = Signature(base.symbols + tuple((n.name, n.arity) for n in nodes))
    axioms = tuple(
        Axiom(ax["prefix"], _qf_from_tree(sexpr.parse_sexpr(ax["matrix"]), language),
              ax["kind"], ax["source"], ax["label"])
        for ax in doc["axioms"]
    )
    qtypes = tuple(
        QType(
            q["source"], q["pattern"], q["arity"],
            tuple(
                QTypeLiteral(language.index_of(lit["symbol"]), tuple(lit["args"]), lit["positive"])
                for lit in q["literals"]
            ),
            q["tail_index_var"], q["tail_body"], q["tail_start"],
        )
        for q in doc["qtypes"]
    )
    lookup = {node.formula: node.index for node in nodes}
    return MorleyResult(base, language, nodes, axioms, qtypes, lookup)


def test_json_roundtrip_reproduces_result():
    res = morleyize([parse_fragment(SCHEME_AND)], BASE_P)
    back = result_from_json(result_to_json(res))
    assert back.axioms == res.axioms
    assert back.qtypes == res.qtypes
    assert back.language.symbols == res.language.symbols


def test_arity_budget_is_enforced():
    # the innermost disjunction has 17 free variables, one past MAX_ARITY
    body = "(or " + " ".join(f"(rel R x{i} x{i + 1})" for i in range(16)) + ")"
    for i in reversed(range(17)):
        body = f"(forall x{i} {body})"
    with pytest.raises(MorleyError, match="arity 17 > 16"):
        morleyize([parse_fragment(body)], BASE_R)


def test_unknown_base_symbol_is_an_error():
    with pytest.raises(MorleyError):
        morleyize([parse_fragment("(forall x (rel Q x))")], BASE_R)


P_X = FAtom(RelRef("P0"), ("x",))
P_N_Y = FAtom(RelRef("P", "n"), ("y",))
X_IS_Y = FEq("x", "y")
# one node of every kind, each with the subformulas it holds
NODES = [
    (P_X, ()),
    (X_IS_Y, ()),
    (FNot(P_X), (P_X,)),
    (FAnd((P_X, X_IS_Y, P_N_Y)), (P_X, X_IS_Y, P_N_Y)),
    (FOr((X_IS_Y, P_X)), (X_IS_Y, P_X)),
    (FForall("x", P_X), (P_X,)),
    (FExists("y", X_IS_Y), (X_IS_Y,)),
    (FSchemeAnd("n", 2, P_N_Y), (P_N_Y,)),
    (FSchemeOr("n", 3, FNot(P_N_Y)), (FNot(P_N_Y),)),
]


@pytest.mark.parametrize("phi, subs", NODES)
def test_parts_are_the_immediate_subformulas(phi, subs):
    assert parts(phi) == subs
    assert map_parts(phi, lambda s: s) == phi
    renamed = map_parts(phi, lambda s: FNot(s))
    assert type(renamed) is type(phi) and parts(renamed) == tuple(FNot(s) for s in subs)
    if not subs:
        assert renamed is phi


# a quantifier-free formula of the other AST, where a fragment belongs
ALIEN = Rel(0, (0,))
WALKERS = {
    "parts": parts,
    "map_parts": lambda phi: map_parts(phi, lambda s: s),
    "canonical_vars": canonical_vars,
    "_map_index_var": lambda phi: _map_index_var(phi, "m", lambda base: RelRef(base + "7")),
    "_canonicalize": lambda phi: _canonicalize(phi, {"x": "v0"}, [0, 0]),
    "subformula_closure": lambda phi: subformula_closure([phi]),
    "fragment_to_tree": fragment_to_tree,
    "definition": lambda phi: definition(phi, BASE_P, lambda child: 3),
    "eval_fragment": lambda phi: eval_fragment(FiniteStructure(BASE_P, 2, frozenset()), phi,
                                               {"x": 0}),
}


@pytest.mark.parametrize("walker", sorted(WALKERS))
def test_walkers_refuse_a_non_fragment(walker):
    # parts and map_parts read one node; the others must reach a nested one
    nested = [FNot(ALIEN), FOr((P_X, ALIEN)), FForall("y", FAnd((ALIEN,))),
              FSchemeOr("n", 2, ALIEN)]
    for phi in [ALIEN] if walker in ("parts", "map_parts") else [ALIEN, *nested]:
        with pytest.raises(MorleyError, match="not a fragment formula"):
            WALKERS[walker](phi)
