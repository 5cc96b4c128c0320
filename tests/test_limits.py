"""Staged limit construction: exact invariants, sampling, rescaling, manifests."""

import dataclasses
import hashlib
import json
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ergodic.limits import (
    MAX_STAGE,
    STAR,
    GuideError,
    KaleidoscopePredicateGuide,
    LimitError,
    LimitHandle,
    SeparationError,
    StageCeilingError,
    Weight,
    _departures,
    _fact_array,
    _formula_bits,
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
    scheduled_type_literals,
    snapshot_axiom_holds,
    stage_invariants,
    type_omitted_in_sample,
    unary_fingerprints,
    weight_preset,
)
from ergodic.logic import And, Eq, FiniteStructure, Not, Or, Rel, implies
from ergodic.morley import (
    Axiom,
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
    RelRef,
    canonical_vars,
)
from ergodic.seeds import BITS_PER_STREAM, SeedKey, XiFamily

SEED = SeedKey.from_hex("00112233445566778899aabbccddeeff")


@pytest.fixture(scope="module")
def theory():
    return build_theory()


@pytest.fixture(scope="module")
def handle8():
    h = LimitHandle(SEED, build_theory())
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
    assert theory.symbol(2) == ("P2", 1)
    assert theory.symbol(4) == (theory.result.nodes[0].name, theory.result.nodes[0].arity)
    assert theory.symbol(theory.tail_start) == ("P4", 1)
    assert theory.symbol(theory.iff_symbol(9)) == ("Riff9", 2)  # agreement relations are binary


def test_level_masks_or_over_the_parts_and_refuse_the_rest():
    def atom(n, var="x"):
        return FAtom(RelRef(f"P{n}"), (var,))

    assert _formula_bits(FOr((FNot(atom(0)), FAnd((atom(3), atom(5, "y")))))) == 0b101001
    scheme = FSchemeAnd("n", 2, FAtom(RelRef("P", "n"), ("x",)))
    assert _formula_bits(FAnd((scheme, FEq("x", "y"), FExists("z", atom(1, "z"))))) == 0
    with pytest.raises(GuideError):
        _formula_bits(FNot(FSchemeOr("n", 2, atom(0))))
    with pytest.raises(MorleyError, match="not a fragment formula"):
        _formula_bits(FAnd((atom(0), Rel(0, (0,)))))


def test_build_theory_validates_depth():
    with pytest.raises(LimitError):
        build_theory(base_depth=1)


def test_schedule_follows_the_ruler_rule(theory, handle8):
    slots = [schedule_entry(k, theory).entry for k in range(32)]
    assert slots[:16] == [0, 0, 1, 0, 2, 1, 3, 0, 4, 2, 5, 1, 6, 3, 7, 0]
    # slot m revisits at stages 2m, 4m+1, 8m+3, ...
    assert slots[2 * 3] == 3 and slots[4 * 3 + 1] == 3 and slots[8 * 3 + 3] == 3
    for k in range(12):
        e = schedule_entry(k, theory)
        assert e.pithy == theory.result.pithy_axioms[e.entry % 8]
    # symbols enter in id order: stage k+1 admits symbol k
    for k in range(8):
        assert k in handle8.stages[k + 1].lang


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
    # a stage-(k-1) position's children are itself and its copy at split + p,
    # the reservoir's are the reservoir and the new element 2^k - 2
    scaled = rescale(handle8, weight_preset(handle8, "p0-heavy", 4))
    # cells by parity put an origin and its copy in different cells
    parity = Weight(4, tuple(p % 2 for p in range(15)), 2,
                    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
    for handle in (handle8, scaled, rescale(handle8, parity)):
        for k in range(2, 6):
            nums, star, den = handle.level_masses(k - 1)
            parents = [Fraction(v, den) for v in nums] + [Fraction(star, den)]
            nums, star, den = handle.level_masses(k)
            half = len(nums) // 2
            children = [(nums[p], nums[half + p]) for p in range(half)] + [(star, nums[-1])]
            for p, parent, (a, b) in zip([*range(half), STAR], parents, children):
                assert Fraction(a + b, den) == parent
                x, y = handle.split(k, p)
                assert x * b == y * a and x > 0 and y > 0


def test_tampered_mass_is_caught(handle8):
    guide = handle8.guide
    prev, nxt = handle8.stages[3], handle8.stages[4]
    bad_nums = list(nxt.nums)
    bad_nums[0] += 1
    tampered = dataclasses.replace(nxt, nums=bad_nums)
    rep = stage_invariants(prev, tampered, guide)
    assert not rep.passed
    assert not (rep.mass_total_ok and rep.pushforward_ok)


def full_table_type_preservation(prev, guide) -> bool:
    """Reference audit: every relation of the previous language, tabulated.

    Over the 2m carried and copied elements of the stage after `prev`,
    each table must match the previous stage's at the projected tuple,
    for every tuple whose distinct entries project injectively.
    """
    theory = guide.theory
    m = prev.size
    parent = np.arange(2 * m) % m
    for sym in sorted(prev.lang):
        arity = theory.symbol(sym)[1]
        if arity == 0 or m == 0:
            continue
        new_tab = _fact_array(guide, theory, sym, range(2 * m))
        old_tab = _fact_array(guide, theory, sym, range(m))
        if arity == 1:
            bad = new_tab != old_tab[parent]
        else:
            eligible = parent[:, None] != parent[None, :]
            np.fill_diagonal(eligible, True)
            bad = (new_tab != old_tab[np.ix_(parent, parent)]) & eligible
        if bad.any():
            return False
    return True


def flip_copy_level(handle, k: int, level: int, origin: int = 5) -> None:
    """Flip one decided level of the copy of `origin` born at stage k."""
    prev = handle.stages[k - 1]
    assert (prev.inherit_levels >> level) & 1
    copy = origin + prev.size
    w, n = divmod(level, BITS_PER_STREAM)
    handle.guide.word(copy, w)  # decide it first
    handle.guide._planes[w][copy] ^= np.uint64(1 << n)
    assert handle.guide.bit(copy, level) != handle.guide.bit(origin, level)


def test_flipped_inherited_level_fails_type_preservation():
    h = build_limit(8, SEED, check=False)
    prev, nxt = h.stages[7], h.stages[8]
    assert stage_invariants(prev, nxt, h.guide).type_preservation_ok
    flip_copy_level(h, 8, level=0)
    rep = stage_invariants(prev, nxt, h.guide)
    assert not rep.type_preservation_ok and not rep.passed


def test_a_failed_stage_names_its_checks_and_witnesses():
    h = build_limit(8, SEED, check=False)
    flip_copy_level(h, 8, level=0)
    with pytest.raises(LimitError) as err:
        h.advance_to(8, check=True)
    assert str(err.value) == (
        "stage 8 failed its exact checks:"
        " type_preservation (copy 132 departs from origin 5 at level 0)"
    )
    assert h.checked_to == 8 and h.reports[-1].type_witness == (0, (5, 132))
    # one stage-4 mass tampered: an original's or a copy's fails at its
    # stage-3 position, the new element's at the reservoir
    for pos, num, failed in (
        (0, 2, "mass_total, mass_bound, pushforward (fails at position 0)"),
        (9, 2, "mass_total, mass_bound, pushforward (fails at position 2)"),
        (14, 2, "mass_total, mass_bound, pushforward (fails at the reservoir)"),
        (3, 0, "mass_total, mass_positive, pushforward (fails at position 3)"),
    ):
        h = build_limit(4, SEED, check=False)
        nums = [1] * 15
        nums[pos] = num
        h.stages[4] = dataclasses.replace(h.stages[4], nums=nums)
        with pytest.raises(LimitError) as err:
            h.advance_to(4, check=True)
        assert str(err.value) == f"stage 4 failed its exact checks: {failed}"


@pytest.mark.parametrize("seed", [SeedKey(1), SeedKey(7), SeedKey(0xDEE9)])
def test_type_audit_agrees_with_the_full_tables(seed):
    # the audit may be stricter than the tables, never looser; on these
    # builds, intact and tampered, the two agree
    h = build_limit(8, seed, check=False)
    for k in range(1, 9):
        prev, nxt = h.stages[k - 1], h.stages[k]
        assert stage_invariants(prev, nxt, h.guide).type_preservation_ok
        assert full_table_type_preservation(prev, h.guide)
    flip_copy_level(h, 8, level=h.theory.base_depth - 1)
    prev, nxt = h.stages[7], h.stages[8]
    assert not full_table_type_preservation(prev, h.guide)
    assert not stage_invariants(prev, nxt, h.guide).type_preservation_ok


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
        # the new element is the last position, given the pattern only
        # when nobody else had it
        forced = guide.forced.get(st.index)
        assert forced in (None, (mask, bits & mask))
        if forced is not None:
            assert matches(st.size - 1)
            assert not any(matches(u) for u in range(st.size - 1))


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


def parent_position(stage, pos: int) -> int:
    """The stage-(k-1) position that stage-k position pos projects to."""
    split = stage.size >> 1
    if pos < split:
        return pos
    if pos < 2 * split:
        return pos - split
    return STAR


def test_points_descend_consistently(handle8):
    p = sample_point(handle8, 6, SEED.child("walk"))
    for k in range(1, 7):
        pos = p.position(k)
        if pos == STAR:
            continue
        parent = parent_position(handle8.stages[k], pos)
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


def test_snapshot_structure_is_built_from_its_tables_on_first_read(handle8):
    samp = sample_structure(handle8, 5, 5, SEED.child("lazy"))
    struct = samp.structure
    assert "facts" not in vars(struct)
    assert struct is samp.structure
    assert struct.signature == samp.signature and struct.domain_size == 5
    assert struct.facts == {
        (local, tuple(t)) for local, table in enumerate(samp.tables) for t in zip(*table.nonzero())
    }
    given = FiniteStructure(samp.signature, 5, frozenset())
    assert dataclasses.replace(samp, structure=given).structure is given


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


def per_fact_answer(guide, sym, handles) -> bool:
    """One relation answer of the guide, by recursion over the node formula.

    The reference for `_fact_array`: it reads single bits and shares no
    code with the tables.
    """
    kind, n = guide.theory.classify(sym)
    if kind == "pred":
        return guide.bit(handles[0], n) == 1
    if kind == "riff":
        return guide.bit(handles[0], n) == guide.bit(handles[1], n)
    node = guide.theory.result.nodes[n]
    env = dict(zip(canonical_vars(node.formula), handles))

    def holds(phi) -> bool:
        if isinstance(phi, FAtom):
            return guide.bit(env[phi.args[0]], int(phi.rel.resolved()[1:])) == 1
        if isinstance(phi, FEq):
            return env[phi.left] == env[phi.right]
        if isinstance(phi, FNot):
            return not holds(phi.sub)
        if isinstance(phi, FAnd):
            return all(holds(s) for s in phi.subs)
        if isinstance(phi, FOr):
            return any(holds(s) for s in phi.subs)
        if isinstance(phi, FSchemeAnd):  # total agreement is identity
            return len({env[v] for v in canonical_vars(phi)}) == 1
        assert isinstance(phi, (FForall, FExists))  # closed, and true in the guided theory
        return True

    return holds(node.formula)


def assert_facts_match_the_guide(samp, guide):
    """Every tabulated fact, and every non-fact, equals a per-fact guide answer."""
    struct = samp.structure
    want = set()
    for local, sym in enumerate(samp.symbol_ids):
        arity = struct.signature.arity(local)
        for args in product(range(struct.domain_size), repeat=arity):
            if per_fact_answer(guide, sym, tuple(samp.uids[a] for a in args)):
                want.add((local, args))
    assert struct.facts == want


def test_guide_fact_matches_the_per_fact_answer(handle8):
    samp = sample_structure(handle8, 5, 6, SEED.child("fact"))
    guide = handle8.guide
    kinds = set()
    for local, sym in enumerate(samp.symbol_ids):
        kinds.add(guide.theory.classify(sym)[0])
        arity = samp.tables[local].ndim
        for handles in product(samp.uids, repeat=arity):
            got = guide.fact(sym, handles)
            assert type(got) is bool and got == per_fact_answer(guide, sym, handles)
        with pytest.raises(GuideError, match="arity"):
            guide.fact(sym, samp.uids[: arity + 1])
    assert kinds == {"pred", "riff", "node"}


def test_snapshot_facts_match_a_per_fact_oracle(handle8):
    samp = sample_structure(handle8, 8, 6, SEED.child("oracle"))
    assert samp.read_level == 6
    assert_facts_match_the_guide(samp, handle8.guide)
    # the deepening input: a pair shares its stage-4 cell until level 13
    handle = build_limit(4, SeedKey(0xDEE9))
    samp = sample_structure(handle, 30, 4, SeedKey(0xDEEA))
    assert samp.read_level == 13
    assert_facts_match_the_guide(samp, handle.guide)


def test_stages_past_the_ceiling_are_refused_before_building():
    h = LimitHandle(SEED, build_theory())
    with pytest.raises(StageCeilingError):
        h.advance_to(MAX_STAGE + 1)
    with pytest.raises(StageCeilingError):
        sample_point(h, MAX_STAGE + 1, SEED.child("deep"))
    assert h.depth == 0 and not h.guide.routed


def test_separation_gives_up_past_the_extra_budget():
    h = build_limit(2, SEED, check=False)
    with pytest.raises(SeparationError) as err:
        sample_structure(h, 20, 2, SEED.child("cram"), max_extra=0)
    i, j = err.value.pair
    assert 0 <= i < j < 20


def test_identity_weight_changes_nothing(handle8):
    ident = weight_preset(handle8, "identity", 6)
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
    h = LimitHandle(SEED, build_theory())
    h.advance_to(8, check=False)
    heavy = rescale(h, weight_preset(h, "p0-heavy", 6))
    light = rescale(h, weight_preset(h, "p0-light", 6))
    trials = 3000
    a = estimate_marginal(heavy, 0, trials, SEED.child("hv"), 8)
    b = estimate_marginal(light, 0, trials, SEED.child("lt"), 8)
    want = (1 - 2**-6) / 2  # (3/4 - 1/4) of the non-reservoir mass
    sigma = (0.25 / trials) ** 0.5 * 2**0.5
    assert abs((a - b) - want) < 5 * sigma


def test_marginal_refuses_nonpositive_trials(handle8):
    for trials in (0, -5):
        with pytest.raises(ValueError, match="trials must be positive"):
            estimate_marginal(handle8, 0, trials, SEED.child("m"), 8)


def test_snapshot_larger_than_any_stage_is_refused_before_drawing():
    h = LimitHandle(SEED, build_theory())
    with pytest.raises(StageCeilingError):
        sample_structure(h, 2**MAX_STAGE, 1, SEED.child("many"))
    assert h.depth == 0 and not h.guide.routed


def test_rescaled_masses_stay_normalized(handle8):
    scaled = rescale(handle8, weight_preset(handle8, "p0-heavy", 5))
    for k in range(1, 8):
        nums, star, den = scaled.level_masses(k)
        assert sum(nums) + star == den


def test_weight_validation():
    h = build_limit(3, SEED, check=False)
    st = h.stages[3]
    assignment = tuple(0 for _ in range(st.size))
    with pytest.raises(LimitError):
        # cell 1 is never used
        Weight(3, assignment, 0, (Fraction(1, 2), Fraction(1, 2)))
    full = tuple(i % 2 for i in range(st.size))
    with pytest.raises(LimitError):
        Weight(3, full, 0, (Fraction(1, 2), Fraction(1, 3)))  # not a distribution
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
    with pytest.raises(GuideError):
        guide.bit(0, 3)  # element 0 is born at stage 1, not built yet
    # stage 1 is element 0; stage 2 adds 1, the copy of 0 sharing level 0, and 2
    guide.routed += [0, 0b1]
    own = [XiFamily(SEED.child("g").child("guide-bits")).bit((1,), lv) for lv in range(120)]
    assert guide.bit(0, 3) == guide.bit(0, 3)
    assert guide.bit(1, 0) == guide.bit(0, 0)  # routed level follows the origin
    assert [guide.bit(1, lv) for lv in range(1, 120)] == own[1:]


def test_copy_follows_its_origin_past_the_first_prf_word(theory):
    guide = KaleidoscopePredicateGuide(SEED.child("g"), theory)
    routed = (1 << 60) | (1 << 100)
    guide.routed += [0, routed]
    # decide the copy first: its words pull the origin's
    copy = [guide.bit(1, lv) for lv in range(160)]
    origin = [guide.bit(0, lv) for lv in range(160)]
    assert copy[60] == origin[60] and copy[100] == origin[100]
    assert copy != origin  # every other level is the copy's own
    # a real build: the copies born at stage 11 route levels past 52
    h = build_limit(11, SeedKey(7), check=False)
    prev = h.stage(10)
    deep = [lv for lv in range(53, prev.inherit_levels.bit_length())
            if (prev.inherit_levels >> lv) & 1]
    assert deep
    for u in range(0, prev.size, 31):
        assert [h.guide.bit(u + prev.size, lv) for lv in deep] == [
            h.guide.bit(u, lv) for lv in deep
        ]


def test_forced_witness_keeps_its_preset_bits(theory):
    key = SEED.child("g")
    guide = KaleidoscopePredicateGuide(key, theory)
    guide.routed += [0, 0]
    own = [XiFamily(key.child("guide-bits")).bit((2,), lv) for lv in range(60)]
    # preset the opposite of the element's own bits on levels 0, 2 and 55
    mask = (1 << 0) | (1 << 2) | (1 << 55)
    bits = sum((1 - own[lv]) << lv for lv in (0, 2, 55))
    guide.forced[2] = (mask, bits)
    got = [guide.bit(2, lv) for lv in range(60)]
    assert [got[lv] for lv in (0, 2, 55)] == [1 - own[lv] for lv in (0, 2, 55)]
    assert [g for lv, g in enumerate(got) if not (mask >> lv) & 1] == [
        o for lv, o in enumerate(own) if not (mask >> lv) & 1
    ]


@pytest.mark.parametrize("seed", [1, 7, 0xDEE9])
@pytest.mark.parametrize("base_depth", [2, 4, 6])
def test_departures_equal_separating_levels(seed, base_depth):
    handle = LimitHandle(SeedKey(seed), build_theory(base_depth=base_depth))
    for k in range(1, 13):
        handle.advance_to(k)
        new = (1 << k) - 2  # stage k's new element
        got = _departures(handle.guide, new)
        want = handle.guide.separating_levels(np.arange(new), np.full(new, new))
        assert got.tolist() == want.tolist()


def test_new_copies_mostly_leave_their_first_word_undrawn():
    # a copy takes its departure from its origin, and its pair separation
    # starts past word 0, so word 0 is drawn only for the rare rest
    handle = build_limit(11, SEED)
    handle.advance_to(14)
    copies = np.arange((1 << 13) - 1, (1 << 14) - 2)
    drawn = handle.guide._planes[0][copies] >= np.uint64(1 << 63)
    assert drawn.mean() < 0.05


def recursive_axiom_holds(samp, axiom, theory) -> bool:
    """The axiom by recursion over every assignment, one fact probe per atom.

    The matrix names the theory's symbols; each is read through the
    snapshot's local index for it.
    """
    local = {sym: i for i, sym in enumerate(samp.symbol_ids)}
    n = samp.structure.domain_size

    def matrix(f, a) -> bool:
        if isinstance(f, Rel):
            return samp.structure.holds(local[f.sym], tuple(a[v] for v in f.args))
        if isinstance(f, Eq):
            return a[f.left] == a[f.right]
        if isinstance(f, Not):
            return not matrix(f.sub, a)
        values = (matrix(s, a) for s in f.subs)
        return all(values) if isinstance(f, And) else any(values)

    def rec(pos: int, a: tuple[int, ...]) -> bool:
        if pos == len(axiom.prefix):
            return matrix(axiom.matrix, a)
        branch = (rec(pos + 1, a + (e,)) for e in range(n))
        return all(branch) if axiom.prefix[pos] == "A" else any(branch)

    return rec(0, ())


def per_fact_type_omitted(samp, theory) -> bool:
    position = {sym: i for i, sym in enumerate(samp.symbol_ids)}
    if theory.sc_symbol not in position:
        return True
    literals = [(position[s], want) for s, want in scheduled_type_literals(theory, samp.symbol_ids)]
    n = samp.structure.domain_size
    return not any(
        all(samp.structure.holds(local, (x, y)) == want for local, want in literals)
        for x in range(n) for y in range(n)
    )


def per_fact_unary_prints(samp):
    sig = samp.structure.signature
    unary = [i for i in range(len(sig)) if sig.arity(i) == 1]
    return [tuple(samp.structure.holds(i, (x,)) for i in unary)
            for x in range(samp.structure.domain_size)]


def with_tables(samp, tables):
    """The snapshot with other fact tables; its structure is rebuilt from them."""
    return dataclasses.replace(samp, tables=tuple(tables), structure=None)


def assert_audits_match_the_oracles(samp, theory):
    axioms = materialized_universal_axioms(theory, samp.symbol_ids)
    got = [snapshot_axiom_holds(samp, ax) for ax in axioms]
    assert all(type(ok) is bool for ok in got)
    assert got == [recursive_axiom_holds(samp, ax, theory) for ax in axioms]
    omitted = type_omitted_in_sample(samp, theory)
    assert type(omitted) is bool and omitted == per_fact_type_omitted(samp, theory)
    assert unary_fingerprints(samp) == per_fact_unary_prints(samp)
    return got, omitted


def probe_axioms(samp) -> list[Axiom]:
    """Made-up axioms on the first binary symbol: equalities, repeated variables, E."""
    r = next(sym for sym, t in zip(samp.symbol_ids, samp.tables) if t.ndim == 2)
    p = next(sym for sym, t in zip(samp.symbol_ids, samp.tables) if t.ndim == 1)
    return [
        Axiom(prefix, matrix, 0, None, "probe")
        for prefix, matrix in [
            ("AA", implies(Eq(0, 1), Rel(r, (0, 1)))),
            ("AA", implies(Rel(r, (0, 1)), Eq(1, 0))),
            ("AE", And((Not(Eq(0, 1)), Rel(r, (0, 1))))),
            ("AA", Or((Rel(r, (1, 1)), Eq(1, 0)))),
            ("EA", Or((Rel(p, (0,)), Not(Rel(r, (1, 0)))))),
            ("AAE", And((Rel(r, (0, 2)), Rel(r, (2, 1)), Not(Eq(2, 0))))),
            ("A", Rel(p, (0,))),
        ]
    ]


def test_snapshot_audits_match_per_fact_oracles():
    handle = build_limit(8, SEED.child("audits"), check=False)
    probed = set()
    for t in range(20):
        samp = sample_structure(handle, 16, 8, SEED.child("audits", t))
        got, omitted = assert_audits_match_the_oracles(samp, handle.theory)
        assert got and all(got) and omitted
        for ax in probe_axioms(samp) if t % 4 == 0 else ():
            ok = snapshot_axiom_holds(samp, ax)
            assert ok == recursive_axiom_holds(samp, ax, handle.theory)
            probed.add((ax.matrix, ok))
    assert {ok for _, ok in probed} == {True, False}

    # no points: every universal probe holds vacuously, and no E or EA one holds
    empty = sample_structure(handle, 0, 8, SEED.child("empty"))
    assert_audits_match_the_oracles(empty, handle.theory)
    for ax in probe_axioms(empty):
        ok = snapshot_axiom_holds(empty, ax)
        assert ok == recursive_axiom_holds(empty, ax, handle.theory) == (ax.prefix[0] == "A")

    # a flipped diagonal fact of the first binary symbol breaks an axiom
    local = next(i for i, t in enumerate(samp.tables) if t.ndim == 2)
    flipped = np.array(samp.tables[local])
    flipped[0, 0] = not flipped[0, 0]
    bad = with_tables(samp, samp.tables[:local] + (flipped,) + samp.tables[local + 1:])
    got, _ = assert_audits_match_the_oracles(bad, handle.theory)
    assert not all(got)

    # points 0 and 1 made to realize every literal of the omitted type
    tables = [np.array(t) for t in samp.tables]
    position = {sym: i for i, sym in enumerate(samp.symbol_ids)}
    for sym, want in scheduled_type_literals(handle.theory, samp.symbol_ids):
        tables[position[sym]][0, 1] = want
    # and point 1 made to copy point 0's unary print
    for t in tables:
        if t.ndim == 1:
            t[1] = t[0]
    bad = with_tables(samp, tables)
    _, omitted = assert_audits_match_the_oracles(bad, handle.theory)
    assert not omitted
    prints = unary_fingerprints(bad)
    assert prints[0] == prints[1]


# Frozen sha256 prefixes of stage-11 builds: the manifest, guide bits of
# every 97th handle on levels 0-159 (the copies born at stage 11 route
# levels past the first 53-bit PRF word), and a 30-point depth-11 snapshot
# (seed 7's reads at level 14)
STAGE11_PINS = [
    (SeedKey(1), 2, "ce1520459fae9988", "f0df7eeef1e472f0", "349fdb049fa9b876"),
    (SeedKey(7), 4, "24bf1f187a2274d1", "9b82008045b867dd", "01a008db065aa66a"),
    (SeedKey(0xDEE9), 6, "e7d1d0307dbaaca4", "1ecab2ec12d3b089", "81c06d19fd5aa67c"),
]


@pytest.mark.parametrize("seed, base_depth, manifest, bits, snapshot", STAGE11_PINS)
def test_stage11_build_is_pinned(seed, base_depth, manifest, bits, snapshot):
    def digest(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()[:16]

    # in this order: a snapshot that reads deeper also deepens the build
    h = build_limit(11, seed, base_depth=base_depth, check=False)
    got_manifest = digest(manifest_json(h).encode())
    size = h.stage(11).size
    got_bits = digest(bytes(h.guide.bit(u, lv) for u in range(0, size, 97) for lv in range(160)))
    s = sample_structure(h, 30, 11, seed.child("pin"))
    snap = repr((s.read_level, s.symbol_ids, s.uids, sorted(s.structure.facts)))
    assert (got_manifest, got_bits, digest(snap.encode())) == (manifest, bits, snapshot)
