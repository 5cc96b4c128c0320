"""The array evaluators against the per-assignment code they replaced.

Each oracle below is the per-atom or per-assignment version that the
array code took over from: the prenex recursion of `axiom_holds`, the
tuple-at-a-time `qf_fingerprint` and rootedness sweep, and the
line-at-a-time JSONL fact writer. Structures are random, over every
arity 0..3, on n = 0, 1, 2 and 5 points.
"""

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from ergodic import cli
from ergodic.gallery import parse_sampler_spec
from ergodic.logic import (
    MAX_FINGERPRINT_BITS,
    And,
    CeilingError,
    Eq,
    FiniteStructure,
    LogicError,
    Not,
    Or,
    Rel,
    Signature,
    TypeFingerprint,
    _layout,
    eval_qf,
    fingerprint_bits,
    fingerprint_tables,
    num_vars,
    prenex_holds,
    qf_array,
    qf_fingerprint,
    qf_grid,
)
from ergodic.morley import Axiom, QType, QTypeLiteral, axiom_holds, qtype_prefix_realized
from ergodic.seeds import SeedKey, XiFamily
from ergodic.stats import find_roots, rootedness_check

SIG = Signature((("Z", 0), ("P", 1), ("E", 2), ("T", 3), ("Q", 1)))
SIZES = (0, 1, 2, 5)
PREFIXES = ("", "A", "E", "AE", "EA", "AAE")


def random_structure(rng, n, density=0.5):
    facts = frozenset(
        (sym, args)
        for sym, (_, ar) in enumerate(SIG.symbols)
        for args in itertools.product(range(n), repeat=ar)
        if rng.random() < density
    )
    return FiniteStructure(SIG, n, facts)


def random_qf(rng, depth, nvars):
    """A matrix of Rel, Eq, Not, And and Or over variables below nvars (none when 0)."""
    if depth == 0 or rng.random() < 0.3:
        if nvars and rng.random() < 0.25:
            return Eq(rng.randrange(nvars), rng.randrange(nvars))
        syms = [s for s in range(len(SIG)) if nvars or SIG.arity(s) == 0]
        sym = rng.choice(syms)
        return Rel(sym, tuple(rng.randrange(nvars) for _ in range(SIG.arity(sym))))
    pick = rng.random()
    if pick < 0.3:
        return Not(random_qf(rng, depth - 1, nvars))
    subs = tuple(random_qf(rng, depth - 1, nvars) for _ in range(rng.randint(1, 3)))
    return And(subs) if pick < 0.65 else Or(subs)


# ---------------------------------------------------------------------------
# the per-assignment oracles
# ---------------------------------------------------------------------------


def atom_eval_qf(structure, phi, assignment):
    """Tarskian evaluation, one fact-set probe per atom reached."""
    if isinstance(phi, Rel):
        if phi.sym >= len(structure.signature):
            raise LogicError(f"unknown symbol index {phi.sym}")
        if len(phi.args) != structure.signature.arity(phi.sym):
            raise LogicError(f"arity mismatch for {structure.signature.name(phi.sym)}")
        try:
            args = tuple(assignment[v] for v in phi.args)
        except IndexError:
            raise LogicError("free variable unbound by assignment") from None
        return structure.holds(phi.sym, args)
    if isinstance(phi, Eq):
        try:
            return assignment[phi.left] == assignment[phi.right]
        except IndexError:
            raise LogicError("free variable unbound by assignment") from None
    if isinstance(phi, Not):
        return not atom_eval_qf(structure, phi.sub, assignment)
    if isinstance(phi, And):
        return all(atom_eval_qf(structure, s, assignment) for s in phi.subs)
    if isinstance(phi, Or):
        return any(atom_eval_qf(structure, s, assignment) for s in phi.subs)
    raise LogicError(f"not a quantifier-free formula: {phi!r}")


def recursive_axiom_holds(structure, prefix, matrix):
    """One atom_eval_qf per assignment, folded by all/any per quantifier."""
    n = structure.domain_size

    def rec(pos, assignment):
        if pos == len(prefix):
            return atom_eval_qf(structure, matrix, assignment)
        branch = (rec(pos + 1, assignment + (e,)) for e in range(n))
        return all(branch) if prefix[pos] == "A" else any(branch)

    return rec(0, ())


def atom_fingerprint_bits(structure, tup, sublanguage):
    """One fact-set probe per atom, bits in layout order."""
    arities = tuple(structure.signature.arity(s) for s in sublanguage)
    offsets, eq_base = _layout(len(tup), arities)
    bits = 0
    for sym, ar, k in zip(sublanguage, arities, offsets):
        for args in itertools.product(tup, repeat=ar):
            if (sym, args) in structure.facts:
                bits |= 1 << k
            k += 1
    for k, (a, b) in enumerate(itertools.combinations(tup, 2), eq_base):
        if a == b:
            bits |= 1 << k
    return bits


def tuple_rootedness(structure, chi, sub):
    """(bits, realizations, roots) of each admitted type, one tuple at a time."""
    m = num_vars(chi)
    realized, admitted = {}, set()
    for tup in itertools.permutations(range(structure.domain_size), m):
        bits = atom_fingerprint_bits(structure, tup, sub)
        realized.setdefault(bits, []).append(tup)
        if atom_eval_qf(structure, chi, tup):
            admitted.add(bits)
    out = []
    for bits in sorted(admitted):
        hits = realized[bits]
        common = set(hits[0]).intersection(*map(set, hits[1:]))
        out.append((bits, tuple(hits), tuple(sorted(common))))
    return out


def line_facts_text(signature, tables):
    """One json.dumps per fact, in (symbol, C-order index) order."""
    return "".join(
        json.dumps({"symbol": signature.name(sym), "args": t}, sort_keys=True) + "\n"
        for sym in sorted(tables)
        for t in np.argwhere(tables[sym]).tolist()
    )


# ---------------------------------------------------------------------------
# QF formulas and prenex axioms over tables
# ---------------------------------------------------------------------------


def test_prenex_holds_matches_the_recursion():
    rng = random.Random(5)
    for n in SIZES:
        for _ in range(6):
            S = random_structure(rng, n, density=rng.choice((0.2, 0.5, 0.8)))
            for prefix in PREFIXES:
                for _ in range(8):
                    matrix = random_qf(rng, 3, len(prefix))
                    want = recursive_axiom_holds(S, prefix, matrix)
                    axiom = Axiom(prefix, matrix, 0, None, "t")
                    assert axiom_holds(S, axiom) is want, (n, prefix, matrix)
                    assert prenex_holds(prefix, matrix, S.tables, n) is want


def test_qf_grid_and_eval_qf_match_the_atom_probe_at_every_assignment():
    rng = random.Random(6)
    for n in SIZES:
        S = random_structure(rng, n)
        for width in range(4):
            for _ in range(10):
                phi = random_qf(rng, 3, width)
                grid = qf_grid(phi, S.tables, n, width)
                assert grid.shape == (n,) * width and grid.dtype == bool
                for a in itertools.product(range(n), repeat=width):
                    want = atom_eval_qf(S, phi, a)
                    assert grid[a] == want and eval_qf(S, phi, a) is want, (phi, a)


def test_qf_array_reads_columns_of_a_tuple_array():
    rng = random.Random(7)
    S = random_structure(rng, 5)
    tuples = np.array(list(itertools.product(range(5), repeat=3)))
    for _ in range(20):
        phi = random_qf(rng, 3, 3)
        got = np.broadcast_to(qf_array(phi, S.tables, lambda v: tuples[:, v]), len(tuples))
        assert got.tolist() == [atom_eval_qf(S, phi, tuple(t)) for t in tuples.tolist()]


def test_qtype_prefix_realized_matches_a_literal_scan():
    rng = random.Random(8)
    for n in SIZES:
        S = random_structure(rng, n)
        for arity in range(3):
            unary = [QTypeLiteral(s, (rng.randrange(arity),), rng.random() < 0.5)
                     for s in (1, 4)] if arity else [QTypeLiteral(0, (), True)]
            binary = [QTypeLiteral(2, (0, arity - 1), True)] if arity else []
            for literals in (unary, unary + binary, [QTypeLiteral(0, (), False)]):
                q = QType(0, "conj", arity, tuple(literals), "n", "", 0)
                want = [
                    a for a in itertools.product(range(n), repeat=arity)
                    if all(S.holds(lit.symbol, tuple(a[i] for i in lit.args)) == lit.positive
                           for lit in literals)
                ]
                assert qtype_prefix_realized(S, q) == want


def test_bad_formulas_raise_logic_error():
    S = random_structure(random.Random(9), 2)
    for phi, width in [(Rel(9, (0,)), 1),  # unknown symbol
                       (Rel(2, (0,)), 1),  # arity mismatch
                       (Rel(1, (1,)), 1),  # unbound variable
                       (Or((Eq(0, 2), Eq(0, 0))), 2)]:
        with pytest.raises(LogicError):
            prenex_holds("A" * width, phi, S.tables, 2)
        with pytest.raises(LogicError):
            axiom_holds(S, Axiom("E" * width, phi, 0, None, "t"))
        for evaluate in (eval_qf, atom_eval_qf):
            with pytest.raises(LogicError):
                evaluate(S, phi, (0,) * width)


def test_bad_formulas_raise_where_the_recursion_read_no_leaf():
    # the recursion reads no leaf when no assignment exists, and stops at
    # the first settling part of a connective; the array evaluator reads
    # every leaf, so a bad formula is refused at n = 0 and behind a
    # settled part too
    S = random_structure(random.Random(10), 0)
    phi = Rel(2, (0,))
    assert recursive_axiom_holds(S, "A", phi) is True
    with pytest.raises(LogicError):
        axiom_holds(S, Axiom("A", phi, 0, None, "t"))
    settled = Or((Eq(0, 0), Rel(9, (0,))))
    assert atom_eval_qf(S, settled, (0,)) is True
    with pytest.raises(LogicError):
        eval_qf(random_structure(random.Random(10), 1), settled, (0,))


def test_the_evaluator_refuses_a_grid_past_the_ceiling_before_allocating():
    n = 4097  # 4097**2 cells are just past 2**24
    assert n**2 > MAX_FINGERPRINT_BITS >= (n - 1) ** 2
    tables = {0: np.zeros(n, dtype=bool)}
    tracemalloc.start()
    try:
        with pytest.raises(CeilingError):
            prenex_holds("AE", Or((Rel(0, (0,)), Eq(0, 1))), tables, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16
    assert prenex_holds("AE", Or((Rel(0, (0,)), Eq(0, 1))), tables, n - 1)


def test_tables_past_the_ceiling_are_refused():
    big = FiniteStructure(Signature((("T", 3),)), 257, frozenset())  # 257**3 > 2**24
    with pytest.raises(CeilingError):
        big.tables


# ---------------------------------------------------------------------------
# the tables view
# ---------------------------------------------------------------------------


def test_tables_hold_the_facts_read_only():
    rng = random.Random(11)
    for n in SIZES:
        S = random_structure(rng, n)
        assert set(S.tables) == set(range(len(SIG)))
        for sym, table in S.tables.items():
            assert table.shape == (n,) * SIG.arity(sym) and table.dtype == bool
            assert not table.flags.writeable
            assert {(sym, tuple(t)) for t in np.argwhere(table).tolist()} == {
                f for f in S.facts if f[0] == sym
            }
        rebuilt = FiniteStructure.from_tables(SIG, n, dict(S.tables))
        assert rebuilt == S
        assert all(np.array_equal(rebuilt.tables[s], S.tables[s]) for s in S.tables)


def test_from_tables_keeps_the_tables_it_was_given():
    sampler = parse_sampler_spec("kaleidoscope:k=2,d=3")
    tables = fingerprint_tables(sampler.type_fn(6, XiFamily(SeedKey(3))))
    S = FiniteStructure.from_tables(sampler.signature, 6, tables)
    for sym, table in tables.items():
        assert np.shares_memory(S.tables[sym], table)
        assert not S.tables[sym].flags.writeable
    assert tables[0].flags.writeable  # the caller's arrays are left as they were
    # a symbol without a table reads as all false
    partial = FiniteStructure.from_tables(sampler.signature, 6, {1: tables[1]})
    assert not partial.tables[0].any() and partial.tables[0].shape == (6, 6)


# ---------------------------------------------------------------------------
# the fingerprint sweep
# ---------------------------------------------------------------------------


def test_fingerprint_sweep_matches_the_atom_scan():
    rng = random.Random(12)
    subs = [None, (), (1,), (3, 0), (2, 4, 1)]
    for n in SIZES:
        S = random_structure(rng, n)
        for m in range(4):
            tuples = list(itertools.product(range(n), repeat=m))  # repeats set eq bits
            for sub in subs:
                sub = tuple(range(len(SIG))) if sub is None else sub
                bits = fingerprint_bits(S, np.array(tuples, dtype=np.intp).reshape(len(tuples), m), sub)
                for tup, row in zip(tuples, bits):
                    want = atom_fingerprint_bits(S, tup, sub)
                    assert sum(1 << k for k in np.flatnonzero(row).tolist()) == want
                    assert qf_fingerprint(S, tup, sub).bits == want


def test_rootedness_matches_the_tuple_sweep():
    rng = random.Random(13)
    for n in SIZES:
        for _ in range(3):
            S = random_structure(rng, n, density=rng.choice((0.1, 0.5)))
            for sub in [(1, 2), (0, 4), (2,), tuple(range(len(SIG)))]:
                for m in range(4):
                    for chi in [random_qf(rng, 2, m) for _ in range(3)] + [
                        Not(Eq(0, 1)) if m >= 2 else Rel(0, ())
                    ]:
                        if num_vars(chi) != m:
                            continue
                        rep = rootedness_check(S, chi, sub)
                        got = [(r.fingerprint.bits, r.tuples, r.roots) for r in rep.reports]
                        assert got == tuple_rootedness(S, chi, sub), (n, sub, chi)
                        for r in rep.reports:
                            assert r.fingerprint == qf_fingerprint(S, r.tuples[0], sub)
                            assert find_roots(S, r.fingerprint) == r


def test_find_roots_reports_a_mismatched_layout_unrealized():
    S = random_structure(random.Random(14), 5)
    fp = qf_fingerprint(S, (0, 1), (1, 2))
    foreign = TypeFingerprint(fp.arity, fp.sublanguage, (1, 1), fp.bits)
    assert find_roots(S, fp).flag is None
    assert find_roots(S, foreign).flag == "unrealized"
    with pytest.raises(LogicError):
        find_roots(S, TypeFingerprint(2, (7,), (1,), 0))


def test_the_sweep_refuses_a_bit_array_past_the_ceiling():
    S = FiniteStructure(Signature((("W", 1), ("V", 2))), 3, frozenset())
    tuples = np.zeros((1, 2), dtype=np.intp)
    assert fingerprint_bits(S, tuples, (0, 1)).shape == (1, 7)  # 2 + 4 atoms, 1 equality
    rows = MAX_FINGERPRINT_BITS // 7 + 1
    tracemalloc.start()
    try:
        with pytest.raises(CeilingError):
            fingerprint_bits(S, np.broadcast_to(tuples, (rows, 2)), (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


# ---------------------------------------------------------------------------
# the JSONL fact writer
# ---------------------------------------------------------------------------


def test_facts_text_matches_the_line_writer_on_random_tables():
    rng = np.random.default_rng(15)
    for n in SIZES:
        for density in (0.0, 0.3, 1.0):
            tables = {sym: rng.random((n,) * ar) < density
                      for sym, (_, ar) in enumerate(SIG.symbols)}
            assert cli._facts_text(SIG, tables, "jsonl") == line_facts_text(SIG, tables)
            some = {s: tables[s] for s in (3, 0)}  # a subset of the symbols, out of order
            assert cli._facts_text(SIG, some, "jsonl") == line_facts_text(SIG, some)


@pytest.mark.parametrize("spec", ["kaleidoscope:k=2,d=8", "kaleidoscope:k=3,d=8", "maxgraph:d=16",
                                  "geometric:dim=2,norm=sup,p=0.5", "blowup:d=3", "digraph:d=3",
                                  "bipartite:i=2,j=2", "mixture:p1=0.1,p2=0.9"])
def test_facts_text_matches_the_line_writer_on_the_gallery(spec):
    sampler = parse_sampler_spec(spec)
    for n in (1, 5, 12):
        tables = fingerprint_tables(sampler.type_fn(n, XiFamily(SeedKey(n))))
        want = line_facts_text(sampler.signature, tables)
        assert cli._facts_text(sampler.signature, tables, "jsonl") == want
