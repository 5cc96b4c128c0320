"""Rootedness reports and collision statistics against independent baselines."""

import itertools
import random
from fractions import Fraction

import pytest

from ergodic.engine import sample
from ergodic.fixtures import EmptySampler
from ergodic.gallery import BlowupControl, KaleidoscopeHypergraph, MaxGraph
from ergodic.logic import (
    Eq,
    FiniteStructure,
    LogicError,
    Not,
    Signature,
    TypeFingerprint,
    qf_fingerprint,
)
from ergodic.seeds import SeedKey
from ergodic.stats import collision_stat, find_roots, rootedness_check

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")
DISTINCT = Not(Eq(0, 1))


def naive_roots(M, fp):
    """Brute-force reference: scan every tuple, intersect supports."""
    hits = []
    for tup in itertools.product(range(M.domain_size), repeat=fp.arity):
        if len(set(tup)) != fp.arity:
            continue  # non-redundant tuples only
        if qf_fingerprint(M, tup, fp.sublanguage) == fp:
            hits.append(tup)
    common = set(range(M.domain_size)) if hits else set()
    for tup in hits:
        common &= set(tup)
    return hits, sorted(common)


# E = two disjoint edges 0-1 and 2-3, plus a pendant edge 3-4.
PAIRS_SIG = Signature((("E", 2),))
PAIRS = FiniteStructure(
    PAIRS_SIG,
    5,
    frozenset(
        {(0, (0, 1)), (0, (1, 0)), (0, (2, 3)), (0, (3, 2)), (0, (3, 4)), (0, (4, 3))}
    ),
)


def test_find_roots_agrees_with_naive_scan():
    for sampler, n in ((MaxGraph(3), 7), (KaleidoscopeHypergraph(2, 2), 6)):
        M = sample(sampler, n, SEED)
        seen = set()
        for tup in itertools.permutations(range(n), 2):
            fp = qf_fingerprint(M, tup)
            if fp in seen:
                continue
            seen.add(fp)
            rep = find_roots(M, fp)
            tuples, roots = naive_roots(M, fp)
            assert list(rep.tuples) == tuples
            assert list(rep.roots) == roots
            assert rep.rooted == bool(roots)


def test_disjoint_realizations_are_not_rooted():
    # the edge type is realized by (0,1) and (2,3): empty intersection
    fp = qf_fingerprint(PAIRS, (0, 1))
    rep = find_roots(PAIRS, fp)
    assert {frozenset(t) for t in rep.tuples} >= {frozenset({0, 1}), frozenset({2, 3})}
    assert rep.roots == ()
    assert not rep.rooted
    assert rep.flag is None


def test_pendant_type_is_rooted():
    # (2,3) and (4,3) share the "edge into degree-2 vertex" type only if the
    # fingerprints agree; restrict to a single-vertex root via E-degree
    fp = qf_fingerprint(PAIRS, (3, 4))
    rep = find_roots(PAIRS, fp)
    assert rep.rooted == (len(set.intersection(*(set(t) for t in rep.tuples))) > 0)


def test_unrealized_fingerprint_is_vacuously_rooted():
    fp = qf_fingerprint(PAIRS, (0, 1))
    flipped = TypeFingerprint(
        fp.arity, fp.sublanguage, fp.arities, fp.bits ^ 0b11
    )
    if flipped == fp:  # pragma: no cover - defensive
        pytest.skip("bit flip collided")
    rep = find_roots(PAIRS, flipped)
    if rep.tuples:
        pytest.skip("flip landed on a realized type")
    assert rep.rooted
    assert rep.flag == "unrealized"
    assert rep.tuples == ()


def test_find_roots_arity_bound():
    fp = qf_fingerprint(PAIRS, (0, 1, 2, 3))
    small = FiniteStructure(PAIRS_SIG, 3, frozenset())
    with pytest.raises(LogicError):
        find_roots(small, fp)


def test_rootedness_check_max_graph_passes():
    M = sample(MaxGraph(12), 16, SEED)
    rep = rootedness_check(M, DISTINCT)
    assert rep.passed
    assert rep.arity == 2
    assert rep.reports  # something was realized
    assert rep.failures == ()


def test_rootedness_check_shallow_kaleidoscope_fails():
    # at depth 2 only four 2-types exist, so 16 vertices scatter realizations
    M = sample(KaleidoscopeHypergraph(2, 2), 16, SEED)
    rep = rootedness_check(M, DISTINCT)
    assert not rep.passed
    assert all(not r.rooted for r in rep.failures)


def test_rootedness_check_empty_structure_vacuous():
    M = FiniteStructure(PAIRS_SIG, 0, frozenset())
    rep = rootedness_check(M, DISTINCT)
    assert rep.passed
    assert rep.reports == ()


def test_rootedness_guard_filters_fingerprints():
    # a guard nothing satisfies admits no fingerprints at all
    never = Eq(0, 1)  # non-redundant tuples are pairwise distinct
    rep = rootedness_check(PAIRS, never)
    assert rep.reports == ()
    assert rep.passed


def test_collision_kaleidoscope_decay():
    for d in (2, 4):
        rep = collision_stat(KaleidoscopeHypergraph(2, d), 2, 3000, SEED.child(d))
        want = 2.0**-d
        assert abs(float(rep.estimate) - want) < 4 * rep.stderr + 1e-9


def test_collision_blowup_constant():
    b = BlowupControl(3)
    exact = sum(Fraction(p) ** 2 for p in (b.class_probability(c) for c in range(b.num_classes)))
    rep = collision_stat(b, 1, 3000, SEED)
    assert abs(float(rep.estimate) - float(exact)) < 4 * rep.stderr + 1e-9


def test_collision_empty_sampler_is_certain():
    rep = collision_stat(EmptySampler(), 2, 60, SEED)
    assert rep.estimate == 1
    assert rep.stderr == 0.0


def test_collision_validates_arguments():
    with pytest.raises(ValueError):
        collision_stat(EmptySampler(), 0, 10, SEED)
    with pytest.raises(ValueError):
        collision_stat(EmptySampler(), 1, 0, SEED)


def test_block_windows_match_block_fingerprints():
    # collision_stat compares the windows {0..n-1} and {n..2n-1} of one
    # 2n-fingerprint; in a concrete structure with relations of mixed
    # arity each window must be the fingerprint of that block itself
    sig = Signature((("Z", 0), ("P", 1), ("E", 2), ("T", 3)))
    rng = random.Random(7)
    facts = frozenset(
        (sym, args)
        for sym, (_, arity) in enumerate(sig.symbols)
        for args in itertools.product(range(6), repeat=arity)
        if rng.random() < 0.3
    )
    M = FiniteStructure(sig, 6, facts)
    for n in (1, 2, 3):
        head, tail = tuple(range(n)), tuple(range(n, 2 * n))
        for tup in itertools.permutations(range(6), 2 * n):
            fp = qf_fingerprint(M, tup)
            fp_head = qf_fingerprint(M, tup[:n])
            fp_tail = qf_fingerprint(M, tup[n:])
            assert fp.reindexed(head) == fp_head
            assert fp.reindexed(tail) == fp_tail
            assert fp.agrees(head, tail) == (fp_head == fp_tail)


# Counts at 5,000 trials under the criterion-4 seeds, recorded from the
# atom-by-atom implementation; a faster path must not re-roll them.
FROZEN_KALEIDOSCOPE = {2: 1188, 4: 328, 6: 85, 8: 19}
FROZEN_BLOWUP = {2: 1861, 4: 1641, 6: 1673, 8: 1646}


def test_collision_counts_are_frozen():
    for d, count in FROZEN_KALEIDOSCOPE.items():
        rep = collision_stat(
            KaleidoscopeHypergraph(2, d), 2, 5000, SEED.child("c4k", d)
        )
        assert rep.estimate == Fraction(count, 5000)
    for d, count in FROZEN_BLOWUP.items():
        rep = collision_stat(BlowupControl(d), 1, 5000, SEED.child("c4b", d))
        assert rep.estimate == Fraction(count, 5000)
