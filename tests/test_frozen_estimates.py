"""Frozen estimator outputs: exact counts and failure lists of fixed-seed runs.

Each estimator's counts for a fixed key are a pure function of the PRF
words it reads, so a change to how words, keys or fingerprints are built
that keeps behaviour leaves every figure here as it is. The formulas are
the benchmark's Monte Carlo formulas, parsed as the CLI parses --phi.
Long lists are pinned by their length and a sha256 of their repr.
"""

import hashlib
from fractions import Fraction

import pytest

from ergodic import engine, fixtures, gallery, logic, morley, sexpr
from ergodic.seeds import SeedKey

SEED = SeedKey.from_hex("0f1e2d3c4b5a69788796a5b4c3d2e1f0")
TRIALS = 2000

# name -> (sampler spec, formula)
GALLERY = {
    "kaleidoscope": ("kaleidoscope:k=2,d=3", "(rel R0 x0 x1)"),
    "maxgraph": ("maxgraph:d=4", "(and (rel R0 x0 x1) (not (rel R3 x0 x1)))"),
    "geometric": ("geometric:dim=2,norm=sup,p=0.5", "(rel R0 x0 x1)"),
    "blowup": ("blowup:d=3", "(rel E x0 x1)"),
    "digraph": ("digraph:d=3", "(rel R x0 x1)"),
    "bipartite": ("bipartite:i=2,j=2", "(rel P x0)"),
    "mixture": ("mixture:p1=0.1,p2=0.9", "(rel R0 x0 x1)"),
}
FROZEN_MEASURE = {
    "kaleidoscope": 1015, "maxgraph": 758, "geometric": 595, "blowup": 677,
    "digraph": 583, "bipartite": 986, "mixture": 1015,
}
# name -> (joint, marginal a, marginal b counts), gap_stderr, z
FROZEN_DISSOCIATION = {
    "kaleidoscope": ((503, 1037, 995), 0.005584461486739343, -1.1556620124115526),
    "mixture": ((791, 952, 994), 0.004309374505888297, 36.8795981372336),
}
# name -> sigma, (identity, permuted counts), gap_stderr, z
FROZEN_INVARIANCE = {
    "geometric": ((0, 1), (595, 595), 0.0, 0.0),
    "digraph": ((1, 0), (577, 561), 0.014091390408395507, 0.5677225432086306),
    "index-keyed": ((1, 0), (1784, 193), 0.009637754829786838, 82.53997056880874),
}


def _sampler(name):
    if name == "index-keyed":
        return fixtures.IndexKeyedSampler()
    return gallery.parse_sampler_spec(GALLERY[name][0])


def _formula(name):
    sampler = _sampler(name)
    text = "(rel P x0)" if name == "index-keyed" else GALLERY[name][1]
    return sampler, morley._qf_from_tree(sexpr.parse_sexpr(text), sampler.signature)


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_measure_counts_are_frozen(name):
    sampler, phi = _formula(name)
    rep = engine.estimate_measure(sampler, phi, TRIALS, SEED.child("est", name))
    assert rep.estimate == Fraction(FROZEN_MEASURE[name], TRIALS)


@pytest.mark.parametrize("name", sorted(FROZEN_DISSOCIATION))
def test_dissociation_reports_are_frozen(name):
    sampler, phi = _formula(name)
    rep = engine.dissociation_test(sampler, phi, phi, TRIALS, SEED.child("dis", name))
    counts, gap_stderr, z = FROZEN_DISSOCIATION[name]
    assert tuple(r.estimate * TRIALS for r in (rep.joint, rep.marginal_a, rep.marginal_b)) == counts
    assert (rep.gap_stderr, rep.z) == (gap_stderr, z)


@pytest.mark.parametrize("name", sorted(FROZEN_INVARIANCE))
def test_invariance_reports_are_frozen(name):
    sampler, phi = _formula(name)
    sigma, counts, gap_stderr, z = FROZEN_INVARIANCE[name]
    rep = engine.invariance_test(sampler, phi, logic.Permutation(sigma), TRIALS,
                                 SEED.child("inv", name))
    assert (rep.at_identity.estimate * TRIALS, rep.at_permuted.estimate * TRIALS) == counts
    assert (rep.gap_stderr, rep.z) == (gap_stderr, z)


def test_positive_type_entries_are_frozen():
    rep = engine.estimate_positive_types(gallery.KaleidoscopeHypergraph(2, 8), 2,
                                         Fraction(1, 500), TRIALS, SEED.child("pos", "kaleidoscope"))
    entries = [(fp.bits, int(f * TRIALS)) for fp, f in rep.entries]
    assert entries[:3] == [(100687872, 15), (100689414, 15), (1717960806, 15)]
    assert (len(entries), rep.covered * TRIALS, _digest(entries)) == (245, 1971, "20128289cb43307d")
    rep = engine.estimate_positive_types(_sampler("blowup"), 1, Fraction(1, 10), TRIALS,
                                         SEED.child("pos", "blowup"))
    assert [(fp.bits, f * TRIALS) for fp, f in rep.entries] == [(3, 938), (5, 523), (7, 259)]


@pytest.mark.parametrize("name, sampler, count, digest", [
    ("superset", fixtures.BrokenSupersetSampler(), 64, "a0319bb6a03e6674"),
    ("index-keyed", fixtures.IndexKeyedSampler(), 35, "202bab5d5ee13f62"),
])
def test_fixture_coherence_failures_are_frozen(name, sampler, count, digest):
    rep = engine.coherence_check(sampler, 5, 3, 40, SEED.child("coh", name))
    failures = [(f.trial, f.condition, f.sigma) for f in rep.failures]
    assert (len(failures), _digest(failures)) == (count, digest)
