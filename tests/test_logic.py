"""Structures, formulas, and fingerprint algebra."""

import itertools
import random

import numpy as np
import pytest

from ergodic.gallery import parse_sampler_spec
from ergodic.logic import (
    And,
    Eq,
    FiniteStructure,
    LogicError,
    Not,
    Or,
    Permutation,
    Rel,
    Signature,
    _eq_bit,
    _layout,
    _width,
    eval_qf,
    fingerprint_tables,
    num_vars,
    pack_atoms,
    qf_fingerprint,
    structure_from_fingerprint,
)
from ergodic.seeds import SeedKey, XiFamily

SIG = Signature((("P", 1), ("E", 2)))

# P = {0, 2}; E = edges of the path 0 - 1 - 2, stored symmetrically.
M = FiniteStructure(
    SIG,
    3,
    frozenset(
        {(0, (0,)), (0, (2,)), (1, (0, 1)), (1, (1, 0)), (1, (1, 2)), (1, (2, 1))}
    ),
)


def test_signature_basics():
    assert len(SIG) == 2
    assert SIG.name(1) == "E"
    assert SIG.arity(1) == 2
    assert SIG.arities() == (1, 2)
    assert SIG.index_of("P") == 0
    with pytest.raises(LogicError):
        SIG.index_of("Q")


def test_formulas_refuse_negative_variables():
    for make in (lambda: Rel(0, (0, -1)), lambda: Eq(0, -1), lambda: Eq(-2, 0)):
        with pytest.raises(LogicError, match="nonnegative"):
            make()


def test_signature_rejects_duplicates_and_bad_arity():
    with pytest.raises(LogicError):
        Signature((("P", 1), ("P", 2)))
    with pytest.raises(LogicError):
        Signature((("P", -1),))


def test_structure_validates_facts():
    with pytest.raises(LogicError):
        FiniteStructure(SIG, 2, frozenset({(5, (0,))}))
    with pytest.raises(LogicError):
        FiniteStructure(SIG, 2, frozenset({(0, (0, 1))}))
    with pytest.raises(LogicError):
        FiniteStructure(SIG, 2, frozenset({(1, (0, 7))}))


def test_eval_qf():
    phi = And((Rel(0, (0,)), Rel(1, (0, 1)), Not(Rel(1, (0, 2)))))
    assert eval_qf(M, phi, (0, 1, 2))
    assert not eval_qf(M, phi, (1, 0, 2))
    assert eval_qf(M, Or((Eq(0, 1), Rel(0, (0,)))), (1, 1))
    assert num_vars(phi) == 3


def eq_bit(fp, i: int, j: int) -> bool:
    """Whether the fingerprint's type has x_i = x_j."""
    if i == j:
        return True
    i, j = sorted((i, j))
    return bool(fp.bits >> _eq_bit(fp.arity, fp.arities, i, j) & 1)


def test_fingerprint_agrees_with_structure():
    fp = qf_fingerprint(M, (0, 1))
    assert fp.arity == 2
    assert fp.has(0, (0,)) == M.holds(0, (0,))
    assert fp.has(1, (0, 1)) == M.holds(1, (0, 1))
    assert fp.has(1, (1, 0)) == M.holds(1, (1, 0))
    assert not eq_bit(fp, 0, 1)
    assert eq_bit(fp, 1, 1)


def test_fingerprint_models_matches_eval():
    tup = (2, 1)
    fp = qf_fingerprint(M, tup)
    for phi in (
        Rel(0, (0,)),
        Rel(1, (0, 1)),
        And((Rel(0, (0,)), Not(Rel(0, (1,))))),
        Or((Eq(0, 1), Rel(1, (1, 0)))),
    ):
        assert fp.models(phi) == eval_qf(M, phi, tup)


def test_models_rejects_symbols_outside_sublanguage():
    fp = qf_fingerprint(M, (0, 1), sublanguage=(0,))
    with pytest.raises(LogicError, match="symbol 1 outside fingerprint sublanguage"):
        fp.models(Rel(1, (0, 1)))
    # an atom the evaluation never reaches is resolved all the same
    with pytest.raises(LogicError, match="symbol 1 outside fingerprint sublanguage"):
        fp.models(Or((Eq(0, 0), Rel(1, (0, 1)))))


def test_restrict_is_prefix_type():
    fp = qf_fingerprint(M, (2, 0, 1))
    assert fp.restrict(2) == qf_fingerprint(M, (2, 0))
    assert fp.restrict(0).arity == 0
    with pytest.raises(LogicError):
        fp.restrict(4)


def test_permuted_matches_rearranged_tuple():
    tup = (0, 1, 2)
    sigma = Permutation((2, 0, 1))
    fp = qf_fingerprint(M, tup)
    rearranged = tuple(tup[sigma.mapping[i]] for i in range(3))
    assert fp.permuted(sigma) == qf_fingerprint(M, rearranged)


def test_redundant_tuples_carry_eq_bits():
    fp = qf_fingerprint(M, (1, 1))
    assert eq_bit(fp, 0, 1)
    assert fp != qf_fingerprint(M, (1, 0))


def test_structure_from_fingerprint_roundtrip():
    fp = qf_fingerprint(M, (0, 1, 2))
    back = structure_from_fingerprint(fp, SIG, 3)
    assert back.facts == M.facts
    assert back.domain_size == 3


def test_permutation_validates():
    with pytest.raises(LogicError):
        Permutation((0, 0, 1))
    with pytest.raises(LogicError):
        Permutation((0, 2))
    sigma = Permutation((1, 2, 0))
    assert len(sigma) == 3


# Relations of every arity 0..3, random facts on a 5-element domain.
MIXED_SIG = Signature((("Z", 0), ("P", 1), ("E", 2), ("T", 3), ("Q", 1)))


def _mixed_structure(seed):
    rng = random.Random(seed)
    facts = set()
    for sym, (_, arity) in enumerate(MIXED_SIG.symbols):
        for args in itertools.product(range(5), repeat=arity):
            if rng.random() < 0.5:
                facts.add((sym, args))
    return FiniteStructure(MIXED_SIG, 5, frozenset(facts))


MIXED = [_mixed_structure(seed) for seed in range(3)]
# injective tuples and tuples with repeated elements (non-trivial eq bits)
MIXED_TUPLES = [(0, 1, 2, 3), (4, 2, 0, 1), (3, 3, 1, 0), (2, 0, 2, 2), (1, 4)]


def test_fingerprint_bit_order_is_documented():
    # atoms: symbols in sublanguage order, argument tuples in itertools.product
    # order; then one equality bit per pair i < j, in lexicographic order
    for M in MIXED:
        for tup in MIXED_TUPLES:
            fp = qf_fingerprint(M, tup)
            n = len(tup)
            atoms = [
                (si, t)
                for si, ar in enumerate(fp.arities)
                for t in itertools.product(range(n), repeat=ar)
            ]
            pairs = list(itertools.combinations(range(n), 2))
            assert _width(fp.arity, fp.arities) == len(atoms) + len(pairs)
            assert fp.bits >> _width(fp.arity, fp.arities) == 0
            for k, (si, t) in enumerate(atoms):
                holds = M.holds(fp.sublanguage[si], tuple(tup[x] for x in t))
                assert fp.has(si, t) == bool(fp.bits >> k & 1) == holds
            for k, (i, j) in enumerate(pairs, len(atoms)):
                same = tup[i] == tup[j]
                assert eq_bit(fp, i, j) == eq_bit(fp, j, i) == bool(fp.bits >> k & 1) == same


def test_has_refuses_atoms_outside_the_layout():
    fp = qf_fingerprint(MIXED[0], (0, 1, 2))
    for sub_pos, args in [(2, (0,)), (2, (0, 1, 2)), (3, (0, 1)), (0, (0,)),
                          (1, (3,)), (2, (0, -1)), (5, (0,)), (-1, (0,))]:
        with pytest.raises(LogicError):
            fp.has(sub_pos, args)
    for i, j in [(0, 3), (-1, 1)]:
        with pytest.raises(LogicError):
            eq_bit(fp, i, j)


def test_structure_from_fingerprint_roundtrip_mixed_arity():
    everyone = tuple(range(5))
    for M in MIXED:
        assert structure_from_fingerprint(qf_fingerprint(M, everyone), MIXED_SIG, 5) == M
        # over a sublanguage, only its symbols' facts come back
        fp = qf_fingerprint(M, everyone, (3, 0))
        back = structure_from_fingerprint(fp, MIXED_SIG, 5)
        assert back.facts == {(s, t) for s, t in M.facts if s in (3, 0)}


def test_pack_atoms_sets_exactly_the_true_atoms():
    # M has 6 facts, each MIXED structure over a hundred
    for S in [M, *MIXED]:
        everyone = tuple(range(S.domain_size))
        fp = qf_fingerprint(S, everyone)
        atoms = [(sym, t) for sym, t in S.facts]
        assert pack_atoms(S.domain_size, fp.arities, atoms) == fp.bits


def test_restrict_matches_prefix_fingerprint_mixed_arity():
    for M in MIXED:
        for tup in MIXED_TUPLES:
            fp = qf_fingerprint(M, tup)
            for m in range(len(tup) + 1):
                assert fp.restrict(m) == qf_fingerprint(M, tup[:m])


def test_permuted_matches_rearranged_fingerprint_mixed_arity():
    for M in MIXED:
        for tup in MIXED_TUPLES:
            fp = qf_fingerprint(M, tup)
            for image in itertools.permutations(range(len(tup))):
                rearranged = tuple(tup[i] for i in image)
                assert fp.permuted(Permutation(image)) == qf_fingerprint(M, rearranged)


def test_reindexed_matches_subtuple_fingerprint_mixed_arity():
    for M in MIXED:
        for tup in MIXED_TUPLES:
            fp = qf_fingerprint(M, tup)
            # windows, and maps that drop or repeat coordinates
            coord_maps = [
                tuple(range(lo, lo + m))
                for m in range(len(tup) + 1)
                for lo in range(len(tup) - m + 1)
            ]
            coord_maps += [(1, 1), (len(tup) - 1, 0, 1)]
            if len(tup) > 2:
                coord_maps.append((2, 0, 2))
            for coords in coord_maps:
                sub = tuple(tup[x] for x in coords)
                assert fp.reindexed(coords) == qf_fingerprint(M, sub)
            for a, b in itertools.product(coord_maps, repeat=2):
                assert fp.agrees(a, b) == (fp.reindexed(a) == fp.reindexed(b))


def test_reindexed_rejects_out_of_range_coordinates():
    fp = qf_fingerprint(M, (0, 1))
    with pytest.raises(LogicError):
        fp.reindexed((0, 2))


def digit_scan_facts(fp):
    """Facts of a full-tuple fingerprint, found by scanning its bit string.

    The decoder the table path replaced, kept as an independent oracle:
    one row of n bits per choice of the first ar - 1 arguments.
    """
    n = fp.arity
    offsets, _ = _layout(n, fp.arities)
    digits = format(fp.bits, "b")[::-1]  # digit k is bit k
    facts = set()
    for sym, ar, start in zip(fp.sublanguage, fp.arities, offsets):
        if ar == 0:
            if fp.bits >> start & 1:
                facts.add((sym, ()))
            continue
        for row, head in enumerate(itertools.product(range(n), repeat=ar - 1)):
            lo = start + row * n
            k = digits.find("1", lo, lo + n)
            while k >= 0:
                facts.add((sym, (*head, k - lo)))
                k = digits.find("1", k + 1, lo + n)
    return facts


GALLERY_SPECS = [
    "kaleidoscope:k=2,d=8",
    "kaleidoscope:k=3,d=8",
    "maxgraph:d=16",
    "geometric:dim=2,norm=sup,p=0.5",
    "blowup:d=3",
    "digraph:d=3",
    "bipartite:i=2,j=2",
    "mixture:p1=0.1,p2=0.9",
]


def table_facts(tables):
    return {(sym, tuple(t)) for sym, table in tables.items() for t in np.argwhere(table).tolist()}


@pytest.mark.parametrize("spec", GALLERY_SPECS)
@pytest.mark.parametrize("n", [1, 5, 8])
def test_fingerprint_tables_match_the_digit_scan(spec, n):
    sampler = parse_sampler_spec(spec)
    fp = sampler.type_fn(n, XiFamily(SeedKey(n)))
    tables = fingerprint_tables(fp)
    assert list(tables) == list(fp.sublanguage)
    for sym, ar in zip(fp.sublanguage, fp.arities):
        assert tables[sym].dtype == bool and tables[sym].shape == (n,) * ar
    want = digit_scan_facts(fp)
    assert table_facts(tables) == want
    assert structure_from_fingerprint(fp, sampler.signature, n).facts == want


def test_fingerprint_tables_match_the_digit_scan_mixed_arity():
    everyone = tuple(range(5))
    # ascending, a non-ascending sublanguage, and one with the 0-ary Z last
    for sub in [None, (3, 0), (4, 2, 1, 0)]:
        for M in MIXED:
            fp = qf_fingerprint(M, everyone, sub)
            want = digit_scan_facts(fp)
            assert table_facts(fingerprint_tables(fp)) == want
            assert structure_from_fingerprint(fp, MIXED_SIG, 5).facts == want
            assert want == {(s, t) for s, t in M.facts if sub is None or s in sub}
    # the 0-ary table is 0-d, true or false
    assert {bool(fingerprint_tables(qf_fingerprint(M, everyone))[0]) for M in MIXED} == {True, False}


def test_from_tables_refuses_a_table_that_misfits_the_signature():
    good = {0: np.zeros(3, dtype=bool), 1: np.zeros((3, 3), dtype=bool)}
    assert FiniteStructure.from_tables(SIG, 3, good).facts == frozenset()
    bad_tables = [
        {0: np.zeros(4, dtype=bool)},  # wrong shape
        {0: np.zeros((3, 3), dtype=bool)},  # wrong ndim
        {1: np.zeros(3, dtype=bool)},  # wrong ndim for E
        {0: np.zeros(3, dtype=np.uint8)},  # wrong dtype
        {0: [False, True, False]},  # not an array
        {2: np.zeros(3, dtype=bool)},  # unknown symbol
        {-1: np.zeros(3, dtype=bool)},
    ]
    for tables in bad_tables:
        with pytest.raises(LogicError):
            FiniteStructure.from_tables(SIG, 3, tables)
    with pytest.raises(LogicError):
        FiniteStructure.from_tables(SIG, -1, {})


def test_from_tables_equals_the_checked_constructor():
    for S in [M, *MIXED]:
        tables = fingerprint_tables(qf_fingerprint(S, tuple(range(S.domain_size))))
        built = FiniteStructure.from_tables(S.signature, S.domain_size, tables)
        assert "facts" not in vars(built)  # read off the tables on first read
        assert built == S and hash(built) == hash(S)
        assert isinstance(built.facts, frozenset)


def test_hand_built_facts_keep_the_full_check():
    # facts from outside the table path: out of domain, wrong arity, unknown symbol
    for facts in [{(0, (3,))}, {(1, (0, -1))}, {(0, (0, 1))}, {(1, (0,))}, {(2, (0,))}]:
        with pytest.raises(LogicError):
            FiniteStructure(SIG, 3, frozenset(facts))


def _random_qf(rng, depth, nvars):
    """A random formula over MIXED_SIG with variables below nvars."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            return Eq(rng.randrange(nvars), rng.randrange(nvars))
        sym = rng.randrange(len(MIXED_SIG))
        return Rel(sym, tuple(rng.randrange(nvars) for _ in range(MIXED_SIG.arity(sym))))
    pick = rng.random()
    if pick < 0.3:
        return Not(_random_qf(rng, depth - 1, nvars))
    subs = tuple(_random_qf(rng, depth - 1, nvars) for _ in range(rng.randint(1, 3)))
    return And(subs) if pick < 0.65 else Or(subs)


def _unchecked(cls, subs):
    """And/Or with no parts at all, which their constructors refuse."""
    f = object.__new__(cls)
    object.__setattr__(f, "subs", subs)
    return f


def test_models_matches_eval_qf_on_random_formulas():
    # every length-a tuple of each structure, a = 0..3: repeated elements
    # give true eq bits, and a = 0 is the empty tuple over the 0-ary Z
    rng = random.Random(11)
    empty_and, empty_or = _unchecked(And, ()), _unchecked(Or, ())
    assert eval_qf(MIXED[0], empty_and, ()) and not eval_qf(MIXED[0], empty_or, ())
    for M_ in MIXED:
        for a in range(4):
            tuples = list(itertools.product(range(5), repeat=a))
            fps = [qf_fingerprint(M_, t) for t in tuples]
            formulas = [_random_qf(rng, 3, max(a, 1)) for _ in range(25)]
            formulas += [empty_and, empty_or, Not(empty_and), And((empty_or, Rel(0, ())))]
            for phi in formulas:
                m = num_vars(phi)
                if m > a:
                    continue
                # the identity, then assignments that repeat or reorder coordinates
                assignments = [None]
                assignments += [tuple(rng.randrange(a) for _ in range(m)) for _ in range(3)]
                for assignment in assignments:
                    coords = range(m) if assignment is None else assignment
                    for t, fp in zip(tuples, fps):
                        want = eval_qf(M_, phi, tuple(t[c] for c in coords))
                        assert fp.models(phi, assignment) is want, (phi, assignment, t)



def test_models_rejects_unbound_and_out_of_range_variables():
    fp = qf_fingerprint(M, (0, 1), sublanguage=(0,))
    for phi, assignment in [(Rel(0, (0,)), (5,)), (Rel(0, (1,)), (0,)), (Eq(0, 2), None),
                            (Eq(3, 3), None), (Rel(0, (0, 1)), None)]:
        with pytest.raises(LogicError):
            fp.models(phi, assignment)
