"""Staged limit construction: exact invariants, sampling, rescaling, manifests."""

import dataclasses
import json
from fractions import Fraction

import pytest

from ergodic.limits import (
    STAR,
    KaleidoscopePredicateGuide,
    LimitError,
    LimitHandle,
    SeparationError,
    Weight,
    build_limit,
    build_manifest,
    build_theory,
    estimate_marginal,
    handle_from_manifest,
    init_stage0,
    manifest_json,
    materialized_universal_axioms,
    rescale,
    sample_point,
    sample_structure,
    schedule_entry,
    snapshot_axiom_holds,
    stage_invariants,
    type_omitted_in_sample,
    unary_fingerprints,
    weight_identity,
    weight_preset,
)
from ergodic.seeds import SeedKey

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")


@pytest.fixture(scope="module")
def theory():
    return build_theory()


@pytest.fixture(scope="module")
def handle8():
    h = LimitHandle(SEED)
    h.advance_to(8, check=True)
    return h


def test_build_theory_shape(theory):
    assert len(theory.result.nodes) == 36
    assert len(theory.result.axioms) == 46
    assert len(theory.result.pithy_axioms) == 8
    assert len(theory.result.qtypes) == 1
    assert theory.tail_start == 40
    assert theory.base_depth == 4
    assert len(theory.ext_patterns) == 6


def test_symbol_layout(theory):
    for n in range(4):
        assert theory.pred_symbol(n) == n
    assert theory.pred_symbol(4) == theory.tail_start
    assert theory.iff_symbol(4) == theory.tail_start + 1
    assert theory.pred_symbol(5) == theory.tail_start + 2
    kind, level = theory.classify(theory.pred_symbol(7))
    assert (kind, level) == ("pred", 7)
    kind, level = theory.classify(theory.iff_symbol(9))
    assert (kind, level) == ("riff", 9)
    name, arity = theory.language.materialize(theory.tail_start + 2).symbols[-1]
    assert arity == 2  # agreement relations are binary


def test_build_theory_validates_depth():
    with pytest.raises(LimitError):
        build_theory(base_depth=1)


def test_schedule_follows_the_ruler_rule(theory):
    slots = [schedule_entry(k, theory).entry for k in range(32)]
    assert slots[:16] == [0, 0, 1, 0, 2, 1, 3, 0, 4, 2, 5, 1, 6, 3, 7, 0]
    # slot m revisits at stages 2m, 4m+1, 8m+3, ...
    assert slots[2 * 3] == 3 and slots[4 * 3 + 1] == 3 and slots[8 * 3 + 3] == 3
    for k in range(12):
        e = schedule_entry(k, theory)
        assert e.symbol == k
        assert e.qtype is not None  # the lone omitted type is always on duty
        assert e.pithy == theory.result.pithy_axioms[e.entry % 8]


def test_stage0_is_pure_reservoir():
    s0 = init_stage0()
    assert s0.size == 0
    assert s0.star_num == 1 and s0.den == 1
    assert s0.demand is None


def test_masses_are_exact_powers_of_two(handle8):
    for k, st in enumerate(handle8.stages):
        assert st.index == k
        assert st.size == 2**k - 1
        assert st.den == 2**k
        assert st.max_mass() == Fraction(1, 2**k)
        assert sum(st.nums) + st.star_num == st.den


def test_all_stage_invariants_pass(handle8):
    assert len(handle8.reports) == 8
    for rep in handle8.reports:
        assert rep.passed, rep.as_dict()
    keys = set(handle8.reports[0].as_dict())
    assert {"mass_total", "pushforward", "type_preservation", "strong_witness"} <= keys


def test_fibers_push_mass_forward(handle8):
    for k in (2, 3, 5):
        prev, nxt = handle8.stages[k - 1], handle8.stages[k]
        for p in range(prev.size):
            positions, nums, den = handle8.fiber(k, p)
            assert sum(Fraction(n, den) for n in nums) == prev.mass(p)
            assert all(q == p or q >= prev.size for q in positions)
        positions, nums, den = handle8.fiber(k, STAR)
        got = sum(Fraction(n, den) for n in nums)
        assert got == Fraction(prev.star_num, prev.den)
        assert positions[0] == STAR


def test_tampered_mass_is_caught(handle8):
    guide = handle8.guide
    prev, nxt = handle8.stages[3], handle8.stages[4]
    bad_nums = list(nxt.nums)
    bad_nums[0] += 1
    tampered = dataclasses.replace(nxt, nums=bad_nums)
    rep = stage_invariants(prev, tampered, guide)
    assert not rep.passed
    assert not (rep.mass_total_ok and rep.pushforward_ok)


def test_some_element_serves_each_scheduled_demand(handle8):
    # the fresh element is only forced when nobody existing already matches,
    # so the guarantee is existential, exactly like the invariant report
    guide = handle8.guide
    for st in handle8.stages[1:]:
        if st.demand is None:
            continue
        mask, bits = st.demand

        def matches(uid):
            level, m = 0, mask
            while m:
                if m & 1 and guide.bit(uid, level) != (bits >> level) & 1:
                    return False
                m >>= 1
                level += 1
            return True

        assert any(matches(u) for u in st.uids)
        assert st.witness_uid in st.uids


def test_builds_are_reproducible():
    a = build_limit(5, SEED, check=False)
    b = build_limit(5, SEED, check=False)
    assert manifest_json(a) == manifest_json(b)
    c = build_limit(5, SeedKey.from_hex("f" * 32), check=False)
    assert manifest_json(a) != manifest_json(c)


def test_point_marginals_match_masses(handle8):
    st = handle8.stages[3]
    counts = [0] * st.size
    trials = 2000
    for t in range(trials):
        p = sample_point(handle8, 3, SEED.child("marginal", t))
        pos = p.position(3)
        if pos != STAR:
            counts[pos] += 1
    for pos in range(st.size):
        want = float(st.mass(pos))
        sigma = (want * (1 - want) / trials) ** 0.5
        assert abs(counts[pos] / trials - want) < 5 * sigma


def test_points_descend_consistently(handle8):
    p = sample_point(handle8, 6, SEED.child("walk"))
    for k in range(1, 7):
        pos = p.position(k)
        if pos == STAR:
            continue
        parent = handle8.stages[k].parent_position(pos)
        assert p.position(k - 1) in (parent, p.position(k - 1))
        assert p.position(k - 1) == parent


def test_sample_structure_audits_clean(handle8):
    samp = sample_structure(handle8, 6, 6, SEED.child("snap"))
    assert samp.structure.domain_size == 6
    assert len(set(samp.uids)) == 6
    axioms = materialized_universal_axioms(handle8.theory, samp.symbol_ids)
    assert axioms and all(snapshot_axiom_holds(samp, ax) for ax in axioms)
    assert type_omitted_in_sample(samp, handle8.theory)
    fps = unary_fingerprints(samp)
    assert len(set(fps)) == len(fps)


def test_sample_structure_is_deterministic(handle8):
    a = sample_structure(handle8, 5, 5, SEED.child("det"))
    b = sample_structure(handle8, 5, 5, SEED.child("det"))
    assert a.structure.facts == b.structure.facts
    assert a.uids == b.uids


def test_snapshot_read_past_its_depth_keeps_the_separating_symbols():
    # 30 points cannot fit in the 15 cells of stage 4, so the snapshot reads
    # deeper; over the stage-4 language a collided pair would look alike
    handle = build_limit(4, SeedKey(0xDEE9))
    samp = sample_structure(handle, 30, 4, SeedKey(0xDEEA))
    assert samp.read_level > 4
    assert samp.symbol_ids == tuple(sorted(handle.stage(samp.read_level).lang))
    axioms = materialized_universal_axioms(handle.theory, samp.symbol_ids)
    assert axioms and all(snapshot_axiom_holds(samp, ax) for ax in axioms)
    assert type_omitted_in_sample(samp, handle.theory)
    fps = unary_fingerprints(samp)
    assert len(set(fps)) == len(fps) == 30


def test_separation_gives_up_past_the_extra_budget():
    h = build_limit(2, SEED, check=False)
    with pytest.raises(SeparationError) as err:
        sample_structure(h, 20, 2, SEED.child("cram"), max_extra=0)
    i, j = err.value.pair
    assert 0 <= i < j < 20


def test_identity_weight_changes_nothing(handle8):
    ident = weight_identity(handle8, 6)
    scaled = rescale(handle8, ident)
    for k in range(1, 8):
        nums, star, den = scaled.level_masses(k)
        base_nums, base_star, base_den = handle8.level_masses(k)
        assert [Fraction(v, den) for v in nums] == [
            Fraction(v, base_den) for v in base_nums
        ]
        assert Fraction(star, den) == Fraction(base_star, base_den)
    a = estimate_marginal(handle8, 0, 300, SEED.child("ma"), 8)
    b = estimate_marginal(scaled, 0, 300, SEED.child("ma"), 8)
    assert a == b


def test_heavy_light_presets_split_the_level_mass():
    h = LimitHandle(SEED)
    h.advance_to(8, check=False)
    heavy = rescale(h, weight_preset(h, "p0-heavy", 6))
    light = rescale(h, weight_preset(h, "p0-light", 6))
    trials = 3000
    a = estimate_marginal(heavy, 0, trials, SEED.child("hv"), 8)
    b = estimate_marginal(light, 0, trials, SEED.child("lt"), 8)
    want = (1 - 2**-6) / 2  # (3/4 - 1/4) of the non-reservoir mass
    sigma = (0.25 / trials) ** 0.5 * 2**0.5
    assert abs((a - b) - want) < 5 * sigma


def test_rescaled_masses_stay_normalized(handle8):
    scaled = rescale(handle8, weight_preset(handle8, "p0-heavy", 5))
    for k in range(1, 8):
        nums, star, den = scaled.level_masses(k)
        assert sum(nums) + star == den


def test_weight_validation():
    h = build_limit(3, SEED, check=False)
    st = h.stages[3]
    labels = ("a", "b")
    assignment = tuple(0 for _ in range(st.size))
    with pytest.raises(LimitError):
        # cell "b" is never used
        Weight(3, labels, assignment, 0, (Fraction(1, 2), Fraction(1, 2)))
    full = tuple(i % 2 for i in range(st.size))
    with pytest.raises(LimitError):
        Weight(3, labels, full, 0, (Fraction(1, 2), Fraction(1, 3)))  # not a distribution
    with pytest.raises(LimitError):
        weight_preset(h, "no-such-preset", 3)


def test_manifest_roundtrip():
    h = build_limit(6, SEED)
    doc = build_manifest(h)
    assert doc["kind"] == "build-limit"
    assert doc["stages"] == 6
    assert len(doc["checks"]) == 6
    assert all(c["passed"] for c in doc["checks"])
    rebuilt = handle_from_manifest(json.loads(manifest_json(h)), check=True)
    assert manifest_json(rebuilt) == manifest_json(h)


def test_manifest_tamper_detected():
    h = build_limit(5, SEED)
    doc = json.loads(manifest_json(h))
    doc["stage_summaries"][4]["size"] += 1
    with pytest.raises(LimitError):
        handle_from_manifest(doc)


def test_guide_bits_are_lazy_but_stable(theory):
    guide = KaleidoscopePredicateGuide(SEED.child("g"), theory)
    a = guide.fresh()
    assert guide.bit(a, 3) == guide.bit(a, 3)
    copy = guide.duplicate(a, 0b1)
    assert guide.bit(copy, 0) == guide.bit(a, 0)  # routed level follows the origin
