"""Acceptance gate: one test per numbered criterion, stated tolerances only.

Each criterion prints a single ``CRITERION nn: PASS/FAIL`` line (visible
with ``pytest -s``; under plain ``pytest -v`` the per-test PASSED/FAILED
line plays the same role).  Monte Carlo criteria use the frozen master
seed below, so every run is reproducible bit for bit.
"""

import contextlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from ergodic.cli import main, replay
from ergodic.engine import (
    coherence_check,
    dissociation_test,
    estimate_measure,
    sample,
)
from ergodic.fixtures import BrokenSupersetSampler, IndexKeyedSampler
from ergodic.gallery import (
    BlowupControl,
    KaleidoscopeHypergraph,
    MaxGraph,
    MixtureControl,
    parse_sampler_spec,
)
from ergodic.limits import (
    build_limit,
    estimate_marginal,
    manifest_json,
    materialized_universal_axioms,
    rescale,
    sample_structure,
    snapshot_axiom_holds,
    type_omitted_in_sample,
    unary_fingerprints,
    weight_preset,
)
from ergodic.logic import Eq, FiniteStructure, Not, Rel, Signature
from ergodic.morley import (
    axiom_holds,
    canonical_expand,
    eval_fragment,
    morleyize,
    parse_fragment,
    verify_reduct_roundtrip,
)
from ergodic.seeds import SeedKey
from ergodic.stats import collision_stat, rootedness_check

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")
EDGE = Rel(0, (0, 1))
DISTINCT = Not(Eq(0, 1))

GALLERY_SPECS = (
    "kaleidoscope:k=2,d=3",
    "maxgraph:d=4",
    "geometric:dim=2,norm=sup,p=0.25",
    "blowup:d=3",
    "digraph:d=2",
    "bipartite:i=2,j=2",
    "mixture:p1=0.1,p2=0.9",
)

_CACHE: dict = {}


def twelve_stage_handle():
    """One shared 12-stage build; later criteria may deepen it in place."""
    if "handle" not in _CACHE:
        t0 = time.monotonic()
        _CACHE["handle"] = build_limit(12, SEED)
        _CACHE["build_seconds"] = time.monotonic() - t0
    return _CACHE["handle"]


@contextlib.contextmanager
def criterion(num, label):
    detail: dict = {}
    try:
        yield detail
    except BaseException:
        print(f"CRITERION {num:02d}: FAIL - {label}")
        raise
    extra = f" [{detail['note']}]" if "note" in detail else ""
    print(f"CRITERION {num:02d}: PASS - {label}{extra}")


def test_criterion_01_sampler_coherence():
    with criterion(1, "1000 coherence configurations clean; fixtures caught") as d:
        t0 = time.monotonic()
        samplers = [parse_sampler_spec(s) for s in GALLERY_SPECS]
        rng = random.Random(101)
        failures = 0
        for i in range(1000):
            sampler = samplers[i % len(samplers)]
            n = rng.randint(1, 5)
            m = rng.randint(0, n)
            rep = coherence_check(sampler, n, m, 1, SEED.child("c1", i))
            failures += len(rep.failures)
        assert failures == 0

        broken = coherence_check(BrokenSupersetSampler(), 5, 3, 40, SEED.child("c1b"))
        assert not broken.passed
        assert any(f.condition == "restriction" for f in broken.failures)
        assert all(len(f.seed_hex) == 32 for f in broken.failures)
        int(broken.failures[0].seed_hex, 16)  # concrete, replayable seed

        keyed = coherence_check(IndexKeyedSampler(), 5, 3, 40, SEED.child("c1k"))
        assert not keyed.passed
        equivariance = [f for f in keyed.failures if f.condition == "equivariance"]
        assert equivariance and all(f.sigma is not None for f in equivariance)

        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        d["note"] = f"0 failures, {elapsed:.1f}s"


def test_criterion_02_edge_measure():
    with criterion(2, "depth-1 pair-relation measure = 0.5 +- 3 stderr at 1e4") as d:
        t0 = time.monotonic()
        rep = estimate_measure(KaleidoscopeHypergraph(2, 1), EDGE, 10_000, SEED.child("c2"))
        est = float(rep.estimate)
        assert abs(rep.stderr - 0.005) < 2e-4
        assert abs(est - 0.5) <= 3 * rep.stderr
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0
        d["note"] = f"est={est:.4f}, {elapsed:.2f}s"


def test_criterion_03_dissociation_dichotomy():
    with criterion(3, "independence gap: hypergraph quiet, mixture flagged") as d:
        t0 = time.monotonic()
        quiet = dissociation_test(
            KaleidoscopeHypergraph(2, 3), EDGE, EDGE, 100_000, SEED.child("c3a")
        )
        assert abs(quiet.z) < 3.0

        mixed = dissociation_test(
            MixtureControl(0.1, 0.9), EDGE, EDGE, 100_000, SEED.child("c3b")
        )
        want = (0.1 - 0.9) ** 2 / 4  # = 0.16
        assert abs(float(mixed.gap) - want) <= 3 * mixed.gap_stderr
        assert mixed.z > 10.0

        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        d["note"] = f"z_quiet={quiet.z:.2f}, z_mixed={mixed.z:.0f}, {elapsed:.1f}s"


def test_criterion_04_collision_decay():
    with criterion(4, "block-collision rates match closed forms at 1e5") as d:
        t0 = time.monotonic()
        zs = []
        for depth in (2, 4, 6, 8):
            rep = collision_stat(
                KaleidoscopeHypergraph(2, depth), 2, 100_000, SEED.child("c4k", depth)
            )
            want = 2.0**-depth
            assert abs(float(rep.estimate) - want) <= 3 * rep.stderr
            zs.append((float(rep.estimate) - want) / rep.stderr)

        for depth in (2, 4, 6, 8):
            control = BlowupControl(depth)
            want = sum(
                Fraction(control.class_probability(c)) ** 2
                for c in range(control.num_classes)
            )
            rep = collision_stat(control, 1, 100_000, SEED.child("c4b", depth))
            assert abs(float(rep.estimate) - float(want)) <= 3 * rep.stderr

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        d["note"] = f"max|z|={max(abs(z) for z in zs):.2f}, {elapsed:.0f}s"


def test_criterion_05_rootedness():
    with criterion(5, "100/100 rooted samples; repeated pair types single-rooted") as d:
        t0 = time.monotonic()
        passed = 0
        repeated_types = 0
        for t in range(100):
            M = sample(MaxGraph(16), 30, SEED.child("criterion5", t))
            rep = rootedness_check(M, DISTINCT)
            assert rep.passed
            for r in rep.reports:
                supports = {frozenset(tup) for tup in r.tuples}
                if len(supports) >= 2:
                    repeated_types += 1
                    assert len(r.roots) == 1
            passed += 1
        assert passed == 100
        assert repeated_types > 0  # the single-root clause was exercised
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        d["note"] = f"{repeated_types} repeated types, all single-rooted, {elapsed:.1f}s"


def test_criterion_06_stage_invariants_exact():
    with criterion(6, "12-stage build: exact rational invariants at every stage") as d:
        handle = twelve_stage_handle()
        assert _CACHE["build_seconds"] < 60.0

        for k, stage in enumerate(handle.stages[:13]):
            assert stage.den == 2**k
            assert len(stage.uids) == 2**k - 1
            masses = [Fraction(n, stage.den) for n in stage.nums]
            masses.append(Fraction(stage.star_num, stage.den))
            assert sum(masses) == 1
            assert all(m > 0 for m in masses)
            assert max(masses) <= Fraction(1, 2) ** k

        reports = [r for r in handle.reports if r.k <= 12]
        assert len(reports) == 12  # one per refinement step
        for rep in reports:
            row = rep.as_dict()
            assert all(v for key, v in row.items() if key != "k"), row

        doc = json.loads(manifest_json(handle))
        recorded = [c for c in doc["checks"] if c["k"] <= 12]
        assert len(recorded) == 12
        assert all(all(v for key, v in c.items() if key != "k") for c in recorded)
        d["note"] = f"build {_CACHE['build_seconds']:.1f}s, 12 checks recorded"


def test_criterion_07_limit_sampling_soundness():
    with criterion(7, "100 depth-20 samples: axioms, omission, distinct prints") as d:
        handle = twelve_stage_handle()
        t0 = time.monotonic()  # the first snapshot deepens the build to stage 20
        for t in range(100):
            samp = sample_structure(handle, 30, 20, SEED.child("c7", t))
            axioms = materialized_universal_axioms(handle.theory, samp.symbol_ids)
            assert axioms
            assert all(snapshot_axiom_holds(samp, ax) for ax in axioms)
            assert type_omitted_in_sample(samp, handle.theory)
            prints = unary_fingerprints(samp)
            assert len(set(prints)) == len(prints) == 30
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        d["note"] = f"100/100 samples sound, {elapsed:.1f}s"


def test_criterion_08_expansion_roundtrip():
    with criterion(8, "100 reduct roundtrips; universal axioms exhaustive to n=5") as d:
        t0 = time.monotonic()
        base_r = Signature((("R", 2),))
        base_p = Signature((("P0", 1), ("P1", 1), ("P2", 1)))
        sent_r = parse_fragment("(forall x (exists y (rel R x y)))")
        sent_p = parse_fragment("(forall x (schemeAnd n 3 (rel (P n) x)))")
        res_r = morleyize([sent_r], base_r)
        res_p = morleyize([sent_p], base_p)

        rng = random.Random(88)
        cases = []
        for i in range(100):
            if i % 5 < 3:
                base, res, sent, density = base_r, res_r, sent_r, 0.4
            else:
                base, res, sent, density = base_p, res_p, sent_p, 0.75
            size = rng.randint(1, 8) if i % 5 < 3 else rng.randint(1, 6)
            facts = set()
            for sym in range(len(base)):
                arity = base.arity(sym)
                for args in _all_tuples(size, arity):
                    if rng.random() < density:
                        facts.add((sym, args))
            cases.append((FiniteStructure(base, size, frozenset(facts)), res, sent))
        assert len(cases) == 100

        models_seen = 0
        for M, res, sent in cases:
            assert verify_reduct_roundtrip(M, res)
            if M.domain_size > 5:
                continue
            exp = canonical_expand(M, res)
            models = eval_fragment(M, sent, {})
            models_seen += models
            for ax in res.universal_axioms:
                if ax.label == "assert":
                    assert axiom_holds(exp, ax) == models
                else:
                    assert axiom_holds(exp, ax)

        # saturated structures model both sentence sets: the "all universal
        # axioms hold" clause is exercised on genuine models too
        assert models_seen > 0
        for base, res, sent in ((base_r, res_r, sent_r), (base_p, res_p, sent_p)):
            full = FiniteStructure(
                base,
                3,
                frozenset(
                    (sym, args)
                    for sym in range(len(base))
                    for args in _all_tuples(3, base.arity(sym))
                ),
            )
            assert eval_fragment(full, sent, {})
            exp = canonical_expand(full, res)
            assert all(axiom_holds(exp, ax) for ax in res.universal_axioms)
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        d["note"] = f"{models_seen} small models among the samples, {elapsed:.2f}s"


def _all_tuples(size, arity):
    out = [()]
    for _ in range(arity):
        out = [t + (i,) for t in out for i in range(size)]
    return out


def test_criterion_09_rescaling_separation():
    with criterion(9, "stored weights separate at 1e5; identity weight inert") as d:
        t0 = time.monotonic()
        handle = twelve_stage_handle()
        stage = 12
        heavy = rescale(handle, weight_preset(handle, "p0-heavy", stage))
        light = rescale(handle, weight_preset(handle, "p0-light", stage))
        est_h = estimate_marginal(heavy, 0, 100_000, SEED.child("c9h"), stage)
        est_l = estimate_marginal(light, 0, 100_000, SEED.child("c9l"), stage)
        se = lambda p: math.sqrt(max(p * (1 - p), 0.0) / 100_000)  # noqa: E731
        combined = math.hypot(se(est_h), se(est_l))
        gap = abs(est_h - est_l)
        assert gap > 5 * combined

        ident = rescale(handle, weight_preset(handle, "identity", stage))
        for k in range(stage + 1):
            nums_a, star_a, den_a = handle.level_masses(k)
            nums_b, star_b, den_b = ident.level_masses(k)
            assert [Fraction(n, den_a) for n in nums_a] == [
                Fraction(n, den_b) for n in nums_b
            ]
            assert Fraction(star_a, den_a) == Fraction(star_b, den_b)
        for level in (0, 1, 5):
            key = SEED.child("c9i", level)
            base_est = estimate_marginal(handle, level, 10_000, key, stage)
            ident_est = estimate_marginal(ident, level, 10_000, key, stage)
            assert base_est == ident_est  # gap exactly 0, trivially within 3 sigma
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0
        d["note"] = f"gap={gap:.3f} ({gap / combined:.0f} combined stderr), {elapsed:.1f}s"


def test_criterion_10_cli_determinism(tmp_path, monkeypatch):
    with criterion(10, "all 12 subcommands replay byte-for-byte") as d:
        monkeypatch.chdir(tmp_path)
        t0 = time.monotonic()
        seed = ["--seed", SEED.hex]
        commands = [
            ["sample", "--sampler", "maxgraph:d=3", "-n", "5", "--out", "a.jsonl"],
            ["estimate", "--sampler", "kaleidoscope:k=2,d=1",
             "--phi", "(rel R0 x0 x1)", "--trials", "300", "--out", "b.jsonl"],
            ["dissoc", "--sampler", "kaleidoscope:k=2,d=2", "--phi", "(rel R0 x0 x1)",
             "--psi", "(rel R0 x0 x1)", "--trials", "300", "--out", "c.jsonl"],
            ["invariance", "--sampler", "geometric:dim=1,norm=sup,p=0.5",
             "--phi", "(rel R0 x0 x1)", "--sigma", "1 0", "--trials", "300",
             "--out", "d.jsonl"],
            ["coherence", "--sampler", "bipartite:i=2,j=2", "-n", "4", "-m", "2",
             "--trials", "30", "--out", "e.jsonl"],
            ["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2",
             "--trials", "300", "--out", "f.jsonl"],
            ["roots", "--sampler", "maxgraph:d=12", "-n", "12", "--out", "g.jsonl"],
            ["postypes", "--sampler", "blowup:d=2", "--arity", "1",
             "--trials", "300", "--out", "h.jsonl"],
            ["morleyize", "--base", "R/2",
             "--sentence", "(forall x (exists y (rel R x y)))", "--out", "i.json"],
            ["build-limit", "--stages", "6", "--out", "j.json"],
            ["limit-sample", "--manifest", "j.json", "-n", "4", "--depth", "8",
             "--out", "k.jsonl"],
            ["rescale", "--manifest", "j.json", "--preset", "p0-heavy",
             "--trials", "300", "--out", "l.jsonl"],
        ]
        assert len(commands) == 12
        for argv in commands:
            code = main([*argv, *seed])
            assert code == 0, argv[0]
            out_name = argv[argv.index("--out") + 1]
            assert replay(f"{out_name}.manifest.json"), argv[0]
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0
        d["note"] = f"12/12 manifests replayed, {elapsed:.2f}s"
