"""Sampling engine: estimates, dissociation, invariance, coherence, spectra."""

import math
from fractions import Fraction

import pytest

from ergodic.engine import (
    coherence_check,
    dissociation_test,
    estimate_measure,
    estimate_positive_types,
    invariance_test,
    sample,
)
from ergodic.fixtures import BrokenSupersetSampler, EmptySampler, IndexKeyedSampler
from ergodic.gallery import BlowupControl, KaleidoscopeHypergraph, MixtureControl
from ergodic.logic import And, Eq, Not, Or, Permutation, Rel
from ergodic.seeds import SeedKey, XiFamily
from ergodic.stats import collision_stat

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")
EDGE = Rel(0, (0, 1))


def test_sample_produces_valid_structure():
    M = sample(KaleidoscopeHypergraph(2, 2), 5, SEED)
    assert M.domain_size == 5
    for sym, args in M.facts:
        # symmetric, irreflexive by construction
        assert args[0] != args[1]
        assert M.holds(sym, (args[1], args[0]))


def test_edge_measure_is_half():
    rep = estimate_measure(KaleidoscopeHypergraph(2, 1), EDGE, 4000, SEED)
    assert abs(float(rep.estimate) - 0.5) < 4 * rep.stderr
    assert rep.trials == 4000


def test_tautology_and_diagonal_are_exact():
    sampler = KaleidoscopeHypergraph(2, 1)
    taut = Or((EDGE, Not(EDGE)))
    assert estimate_measure(sampler, taut, 50, SEED).estimate == 1
    # tuples are injective, so eq(x0, x1) has measure exactly zero
    assert estimate_measure(sampler, Eq(0, 1), 50, SEED).estimate == 0


def test_estimate_rejects_bad_trials():
    with pytest.raises(ValueError):
        estimate_measure(KaleidoscopeHypergraph(2, 1), EDGE, 0, SEED)


def test_report_row_and_csv():
    rep = estimate_measure(KaleidoscopeHypergraph(2, 1), EDGE, 100, SEED)
    row = rep.row()
    assert list(row) == ["statistic", "estimate", "stderr", "trials", "seed_hex"]
    assert row["trials"] == 100 and row["seed_hex"] == SEED.hex
    assert rep.seed == SEED


def test_dissociation_sound_sampler_small_z():
    rep = dissociation_test(KaleidoscopeHypergraph(2, 1), EDGE, EDGE, 3000, SEED)
    assert abs(rep.z) < 4
    assert rep.joint.trials == 3000


def test_dissociation_flags_mixture():
    # one global coin picking density 0.1 or 0.9 correlates disjoint pairs:
    # joint = (p1^2 + p2^2)/2 = 0.41, product = 0.25, gap = 0.16
    rep = dissociation_test(MixtureControl(0.1, 0.9), EDGE, EDGE, 4000, SEED)
    gap_target = 0.16
    assert abs(float(rep.gap) - gap_target) < 3 * rep.gap_stderr + 0.02
    assert rep.z > 10
    assert abs(float(rep.product) - 0.25) < 0.03


def test_degenerate_mixture_is_dissociated():
    rep = dissociation_test(MixtureControl(0.4, 0.4), EDGE, EDGE, 3000, SEED)
    assert abs(rep.z) < 4


def test_dissociation_rejects_overlapping_tuples():
    with pytest.raises(ValueError):
        dissociation_test(
            KaleidoscopeHypergraph(2, 1), EDGE, EDGE, 10, SEED,
            tuple_a=(0, 1), tuple_b=(1, 2),
        )


def test_invariance_identity_gap_is_exact_zero():
    sigma = Permutation((0, 1))
    rep = invariance_test(KaleidoscopeHypergraph(2, 1), EDGE, sigma, 500, SEED)
    assert rep.gap == 0
    assert rep.z == 0.0


def test_invariance_passes_exchangeable_sampler():
    sigma = Permutation((2, 0, 1))
    rep = invariance_test(KaleidoscopeHypergraph(2, 2), EDGE, sigma, 3000, SEED)
    assert abs(rep.z) < 4


def test_invariance_flags_index_keyed_fixture():
    # P(0) fires with prob 0.9 but P(1) with prob 0.1
    phi = Rel(0, (0,))
    rep = invariance_test(IndexKeyedSampler(), phi, Permutation((1, 0)), 2000, SEED)
    assert rep.z > 10


def test_invariance_needs_enough_points():
    with pytest.raises(ValueError):
        invariance_test(KaleidoscopeHypergraph(2, 1), EDGE, Permutation((0,)), 10, SEED)


@pytest.mark.parametrize("n,m", [(4, 2), (5, 0), (3, 3)])
def test_coherence_passes_on_sound_sampler(n, m):
    rep = coherence_check(KaleidoscopeHypergraph(2, 2), n, m, 40, SEED)
    assert rep.passed
    assert rep.failures == ()


def test_coherence_catches_superset_reader():
    rep = coherence_check(BrokenSupersetSampler(), 4, 2, 40, SEED)
    assert not rep.passed
    conditions = {f.condition for f in rep.failures}
    assert "restriction" in conditions
    assert all(len(f.seed_hex) == 32 for f in rep.failures)


def test_coherence_catches_index_keyed():
    rep = coherence_check(IndexKeyedSampler(), 5, 3, 40, SEED)
    assert any(f.condition == "equivariance" for f in rep.failures)
    assert all(f.sigma is not None for f in rep.failures if f.condition == "equivariance")


def test_coherence_validates_arities():
    with pytest.raises(ValueError):
        coherence_check(EmptySampler(), 2, 3, 5, SEED)


def test_positive_types_blowup_spectrum():
    # classes 0,1,2 with masses 1/2, 1/4, 1/4 give exactly three 1-types
    rep = estimate_positive_types(BlowupControl(2), 1, Fraction(1, 10), 3000, SEED)
    assert len(rep.entries) == 3
    assert rep.covered == 1
    freqs = [float(f) for _, f in rep.entries]
    assert freqs == sorted(freqs, reverse=True)
    assert abs(freqs[0] - 0.5) < 4 * math.sqrt(0.25 / 3000)


def test_positive_types_epsilon_cap():
    rep = estimate_positive_types(BlowupControl(3), 1, 0.3, 2000, SEED)
    assert len(rep.entries) <= 3  # pigeonhole: at most floor(1/eps)


@pytest.mark.parametrize("trials", [1, 300])
def test_counts_match_a_per_trial_loop(trials):
    # the estimators against the trial loop written out, on the keys they derive
    sampler = KaleidoscopeHypergraph(2, 2)
    phi, psi = And((EDGE, Not(Rel(1, (0, 1))))), Or((Rel(1, (0, 1)), Eq(0, 1)))

    def fps(n, seed):
        return [sampler.type_fn(n, XiFamily(seed.child("trial", t))) for t in range(trials)]

    est = SEED.child("est")
    want = sum(fp.models(phi) for fp in fps(2, est))
    assert estimate_measure(sampler, phi, trials, est).estimate == Fraction(want, trials)

    dis = SEED.child("dis")
    joint = sum(fp.models(phi, (0, 1)) and fp.models(psi, (2, 3)) for fp in fps(4, dis))
    assert dissociation_test(sampler, phi, psi, trials, dis).joint.estimate == Fraction(
        joint, trials
    )

    inv = SEED.child("inv")
    moved = sum(fp.models(phi, (1, 2)) for fp in fps(3, inv))
    rep = invariance_test(sampler, phi, Permutation((1, 2, 0)), trials, inv)
    assert rep.at_permuted.estimate == Fraction(moved, trials)

    col = SEED.child("col")
    hits = sum(fp.agrees((0, 1), (2, 3)) for fp in fps(4, col))
    assert collision_stat(sampler, 2, trials, col).estimate == Fraction(hits, trials)
