"""Every correctness check accepts the program's output and rejects a tampered one."""

import dataclasses
import json
import math
from fractions import Fraction

import pytest

import checks
import refs
from ergodic import cli, engine, fixtures, gallery, limits, logic, seeds, stats
from harness import Batch, KnownFault
from refclock import RefClock
from workloads import (
    DEEPENING_DEPTH, DEEPENING_FAULT, DEEPENING_KEYS, DEEPENING_POINTS, _formula, blowup_class,
    snapshot_audited,
)

KEY = seeds.SeedKey.from_hex("0123456789abcdef0123456789abcdef")


def _moved(report, field, by):
    return dataclasses.replace(report, **{field: getattr(report, field) + Fraction(by)})


def test_estimate_moved_by_ten_stderr_is_rejected():
    sampler = gallery.parse_sampler_spec("kaleidoscope:k=2,d=1")
    rep = engine.estimate_measure(sampler, _formula("(rel R0 x0 x1)", sampler.signature), 2000, KEY)
    ref = refs.kaleidoscope_relation_measure()
    assert checks.binomial_within(rep, ref, "est") == []
    sd = refs.binomial_stderr(ref, rep.trials)
    assert checks.binomial_within(_moved(rep, "estimate", 10 * sd), ref, "est")
    assert checks.binomial_within(_moved(rep, "estimate", -10 * sd), ref, "est")


def test_collision_moved_by_ten_stderr_is_rejected():
    sampler = gallery.parse_sampler_spec("blowup:d=2")
    rep = stats.collision_stat(sampler, 1, 2000, KEY)
    ref = refs.blowup_same_class(2)
    assert checks.binomial_within(rep, ref, "col") == []
    moved = _moved(rep, "estimate", 10 * refs.binomial_stderr(ref, rep.trials))
    assert checks.binomial_within(moved, ref, "col")


def test_dissociation_and_invariance_gaps():
    sampler = gallery.parse_sampler_spec("mixture:p1=0.1,p2=0.9")
    phi = _formula("(rel R0 x0 x1)", sampler.signature)
    rep = engine.dissociation_test(sampler, phi, phi, 3000, KEY)
    ref = refs.mixture_gap(0.1, 0.9)
    assert checks.dissociation_gap(rep, ref, "dis") == []
    assert checks.dissociation_gap(_moved(rep, "gap", 10 * rep.gap_stderr), ref, "dis")
    assert checks.dissociation_quiet(rep, "dis")  # a mixture is not dissociated

    geo = gallery.parse_sampler_spec("geometric:dim=1,norm=sup,p=0.5")
    edge = _formula("(rel R0 x0 x1)", geo.signature)
    ident = engine.invariance_test(geo, edge, logic.Permutation((0, 1)), 500, KEY)
    assert checks.invariance_identity(ident, "inv") == []
    assert checks.invariance_identity(_moved(ident, "gap", Fraction(1, 500)), "inv")
    digraph = gallery.parse_sampler_spec("digraph:d=3")
    arrow = _formula("(rel R x0 x1)", digraph.signature)
    swap = engine.invariance_test(digraph, arrow, logic.Permutation((1, 0)), 500, KEY)
    assert swap.gap_stderr > 0
    assert checks.invariance_gap(swap, Fraction(0), "inv") == []
    assert checks.invariance_gap(_moved(swap, "gap", 10 * swap.gap_stderr), Fraction(0), "inv")


def test_coherence_checks_tell_sound_from_broken():
    sound = engine.coherence_check(gallery.parse_sampler_spec("maxgraph:d=3"), 4, 2, 20, KEY)
    broken = engine.coherence_check(fixtures.BrokenSupersetSampler(), 5, 3, 40, KEY)
    assert checks.coherence_clean(sound, "sound") == []
    assert checks.coherence_clean(broken, "broken")
    assert checks.fixture_caught(broken, "restriction", "broken") == []
    assert checks.fixture_caught(sound, "restriction", "sound")


def test_positive_type_checks():
    blowup = gallery.parse_sampler_spec("blowup:d=3")
    rep = engine.estimate_positive_types(blowup, 1, Fraction(1, 10), 3000, KEY)
    masses = refs.blowup_class_masses(3)
    cls = lambda fp: blowup_class(fp, 3)  # noqa: E731
    assert checks.postypes_classes(rep, masses, cls, "pos") == []
    fp, freq = rep.entries[0]
    moved = (fp, freq + Fraction(10 * refs.binomial_stderr(masses[cls(fp)], rep.trials)))
    tampered = dataclasses.replace(rep, entries=(moved, *rep.entries[1:]))
    assert checks.postypes_classes(tampered, masses, cls, "pos")
    dropped = dataclasses.replace(rep, entries=rep.entries[1:])
    assert checks.postypes_classes(dropped, masses, cls, "pos")
    assert checks.postypes_empty(rep, "pos")


@pytest.fixture
def sampled(tmp_path):
    """`sample` and `roots` outputs of one kaleidoscope and one maxgraph structure."""
    out = {}
    for name, spec, n in (("k2", "kaleidoscope:k=2,d=3", 12), ("mg", "maxgraph:d=6", 10)):
        for cmd in ("sample", "roots"):
            path = str(tmp_path / f"{cmd}-{name}.jsonl")
            code = cli.main([cmd, "--sampler", spec, "-n", str(n), "--seed", KEY.hex, "--out", path])
            with open(path, "rb") as f:
                out[cmd, name] = (code, f.read(), path)
        out[name] = (list(gallery.parse_sampler_spec(spec).signature.symbols), n)
    return out


def test_flipped_fact_is_rejected(sampled):
    symbols, n = sampled["k2"]
    facts, problems = checks.parse_sample(sampled["sample", "k2"][1], symbols, n)
    assert problems == [] and checks.kaleidoscope_facts(facts, 2, n) == []
    i, j = next(iter(facts["R0"]))
    facts["R0"].discard((i, j))
    assert checks.kaleidoscope_facts(facts, 2, n)
    assert checks.symmetric_irreflexive(facts)


def test_roots_checks_follow_the_facts(sampled):
    for name in ("k2", "mg"):
        symbols, n = sampled[name]
        facts, _ = checks.parse_sample(sampled["sample", name][1], symbols, n)
        code, data, _ = sampled["roots", name]
        types = checks.pair_types(facts, symbols, n)
        assert checks.roots_output(data, code, types) == []
        assert checks.roots_output(data, 2 - code, types)
        rows = data.decode().splitlines()
        row = json.loads(rows[0])
        row["realizations"] += 1
        tampered = "\n".join([json.dumps(row, sort_keys=True), *rows[1:]]).encode()
        assert checks.roots_output(tampered, code, types)
        # with every fact gone, all pairs share one unrooted type
        empty = {name: set() for name in facts}
        assert checks.roots_output(data, code, checks.pair_types(empty, symbols, n))


def _maxgraph_facts(prefixes, d):
    n = len(prefixes)
    facts = {f"R{m}": set() for m in range(d)}
    for i in range(n):
        for j in range(n):
            top = max(prefixes[i], prefixes[j])
            for m in range(d):
                if i != j and (top >> (d - 1 - m)) & 1:
                    facts[f"R{m}"].add((i, j))
    return facts, [(f"R{m}", 2) for m in range(d)]


def test_maxgraph_rootedness_follows_prefix_ties(sampled):
    symbols, n = sampled["mg"]
    facts, _ = checks.parse_sample(sampled["sample", "mg"][1], symbols, n)
    types = checks.pair_types(facts, symbols, n)
    assert checks.maxgraph_rootedness(facts, 6, n, types) == []
    for prefixes, rooted in (([0, 1, 2, 3], True), ([1, 1, 2, 3], True),
                             ([0, 2, 2, 3], False), ([1, 1, 1, 3], False)):
        facts, symbols = _maxgraph_facts(prefixes, 2)
        types = checks.pair_types(facts, symbols, len(prefixes))
        assert all(roots for _, roots in types.values()) == rooted
        assert checks.maxgraph_rootedness(facts, 2, len(prefixes), types) == []
        # a root finder that got the verdict wrong is caught
        flipped = {k: (p, () if rooted else (p[0][0],)) for k, (p, _) in types.items()}
        assert checks.maxgraph_rootedness(facts, 2, len(prefixes), flipped)


def test_corrupted_output_byte_is_rejected(sampled):
    symbols, n = sampled["k2"]
    data = sampled["sample", "k2"][1]
    # "args": [i, j] -> a digit changed: the row moves, breaking order or symmetry
    pos = data.index(b"]") - 1
    digit = data[pos : pos + 1]
    bad = data[:pos] + (b"3" if digit != b"3" else b"4") + data[pos + 1 :]
    facts, problems = checks.parse_sample(bad, symbols, n)
    assert problems or checks.kaleidoscope_facts(facts, 2, n)
    with pytest.raises(json.JSONDecodeError):
        checks.parse_sample(data.replace(b"}", b"", 1), symbols, n)

    _, _, path = sampled["sample", "k2"]
    assert cli.replay(path + ".manifest.json") is True
    with open(path + ".manifest.json") as f:
        manifest = json.load(f)
    manifest["outputs"] = {path: manifest["outputs"][path][:-1] + "0"}
    with open(path + ".manifest.json", "w") as f:
        json.dump(manifest, f)
    assert cli.replay(path + ".manifest.json") is False


def test_sentence_agreement():
    assert checks.sentence_agreement({"a": True, "b": True}, "s") == []
    assert checks.sentence_agreement({"a": True, "b": False}, "s")


@pytest.fixture(scope="module")
def small_limit():
    handle = limits.build_limit(5, KEY)
    samp = limits.sample_structure(handle, 6, 9, KEY.child("snap"), max_extra=0)
    return handle, samp


def test_separation_pair_is_confirmed():
    handle = limits.build_limit(3, KEY)
    key = KEY.child("crowded")
    with pytest.raises(limits.SeparationError) as caught:
        limits.sample_structure(handle, 6, 3, key, max_extra=0)
    pair = caught.value.pair
    assert checks.separation_pair(handle, key, pair, 3) == []
    cells = [limits.PathPoint(handle, key.child("point", i)).position(3) for i in range(6)]
    apart = next((i, j) for i in range(6) for j in range(i + 1, 6) if cells[i] != cells[j])
    assert checks.separation_pair(handle, key, apart, 3)


def test_stage_numerator_off_by_one_is_rejected(small_limit):
    handle, _ = small_limit
    for st in handle.stages:
        assert checks.stage_fields(st) == []
    st = handle.stages[4]
    bad = dataclasses.replace(st, nums=[st.nums[0] + 1, *st.nums[1:]])
    assert checks.stage_fields(bad)
    assert checks.stage_fields(dataclasses.replace(st, den=st.den * 2))


def test_snapshot_checks(small_limit):
    handle, samp = small_limit
    assert checks.snapshot_predicates(samp, handle.guide.bit) == []
    prints = limits.unary_fingerprints(samp)
    assert checks.snapshot_prints(samp, prints, 6) == []
    # flip one P fact of point 0
    local = next(i for i, (name, a) in enumerate(samp.structure.signature.symbols) if a == 1)
    facts = set(samp.structure.facts) ^ {(local, (0,))}
    flipped = dataclasses.replace(
        samp, structure=logic.FiniteStructure(samp.structure.signature, 6, frozenset(facts))
    )
    assert checks.snapshot_predicates(flipped, handle.guide.bit)
    assert checks.snapshot_prints(flipped, prints, 6)
    assert checks.snapshot_prints(samp, [prints[0]] * 6, 6)


def test_snapshot_verdict_rejects_each_tampered_audit(small_limit):
    handle, _ = small_limit
    verdict = snapshot_audited(handle, 6, 9, KEY.child("snap"), max_extra=0)
    assert checks.snapshot_verdict(verdict, handle.guide.bit, 6) == []
    for field, bad in (("axioms", []), ("axioms", [True, False]), ("omitted", False)):
        assert checks.snapshot_verdict({**verdict, field: bad}, handle.guide.bit, 6)
    prints = verdict["prints"]
    assert checks.snapshot_verdict({**verdict, "prints": [prints[0]] * 6}, handle.guide.bit, 6)


def test_deepening_snapshot_always_collides():
    # more points than stage cells, so reading past the depth is forced
    assert DEEPENING_POINTS > 2**DEEPENING_DEPTH - 1
    build_key, points_key = DEEPENING_KEYS
    handle = limits.build_limit(DEEPENING_DEPTH, build_key)
    verdict = snapshot_audited(handle, DEEPENING_POINTS, DEEPENING_DEPTH, points_key)
    assert verdict["sample"].read_level > DEEPENING_DEPTH


def test_known_fault_excuses_only_its_symptoms():
    batch = Batch(RefClock())
    fault = KnownFault("f", ("symptom",))
    assert fault.explains(["a symptom"]) and not fault.explains(["a symptom", "other"])
    batch.call("a", lambda: 1, check=lambda r: ["a symptom"], known_fault=fault)
    batch.call("b", lambda: 1, check=lambda r: ["a symptom", "other"], known_fault=fault)
    batch.call("c", lambda: 1 / 0, known_fault=fault)
    batch.call("d", lambda: 1, check=lambda r: ["a symptom"])
    batch.call("e", lambda: 1, check=lambda r: [], known_fault=fault)
    assert (batch.attempted, batch.failed, batch.wrong) == (5, 4, 3)
    assert DEEPENING_FAULT.explains(["15 distinct unary prints, want 30", "scheduled type realized"])
    assert not DEEPENING_FAULT.explains(["universal axiom fails"])


def test_marginal_moved_by_ten_stderr_is_rejected(small_limit):
    handle, _ = small_limit
    k, trials = 5, 2000
    nums, star, den = handle.level_masses(k)
    uids = handle.stage(k).uids
    exact = Fraction(sum(v for v, u in zip(nums, uids) if handle.guide.bit(u, 0)), den)
    reservoir = Fraction(star, den)
    est = limits.estimate_marginal(handle, 0, trials, KEY.child("m"), k)
    assert checks.marginal_bound(est, exact, reservoir, trials, "m") == []
    sd = max(refs.binomial_stderr(exact, trials), refs.binomial_stderr(exact + reservoir, trials))
    assert checks.marginal_bound(float(exact + reservoir) + 10 * sd, exact, reservoir, trials, "m")
    assert checks.marginal_bound(float(exact) - 10 * sd, exact, reservoir, trials, "m")


def test_within_gate_is_exact_without_spread():
    assert checks.within(Fraction(1, 2), Fraction(1, 2), 0.0, "x") == []
    assert checks.within(Fraction(1, 3), Fraction(1, 2), 0.0, "x")
    assert checks.within(0.5 + 5.9e-3, Fraction(1, 2), 1e-3, "x") == []
    assert checks.within(0.5 + 1e-2, Fraction(1, 2), 1e-3, "x")
    assert math.isclose(checks.Z_GATE, 6.0)
