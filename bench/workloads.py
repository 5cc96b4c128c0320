"""The three workloads: what each round feeds the program and how it is checked.

Each workload has `setup(seed, tmp)`, which parses sampler specs and
formulas, builds theories and computes the reference values, and
`run_round(state, inputs, batch)`, one fixed batch of public calls.
Calls go through module attributes (`engine.coherence_check`, not a
name imported here) so that the traced run sees them.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import product

from ergodic import cli, engine, fixtures, gallery, limits, logic, morley, seeds, sexpr, stats

import checks
import refs
from harness import KnownFault


def _formula(text: str, signature):
    """A quantifier-free formula, parsed the way the CLI parses --phi."""
    return morley._qf_from_tree(sexpr.parse_sexpr(text), signature)


# ---------------------------------------------------------------------------
# mc_audits: small-arity Monte Carlo and exact audits over the gallery
# ---------------------------------------------------------------------------

MC_TRIALS = 3000
MC_COHERENCE = (5, 3, 60)  # n, m, trials per sampler
MC_FIXTURE_TRIALS = 40
MC_EPSILON = Fraction(1, 10)

MC_GALLERY = {
    "kaleidoscope": "kaleidoscope:k=2,d=3",
    "maxgraph": "maxgraph:d=4",
    "geometric": "geometric:dim=2,norm=sup,p=0.5",
    "blowup": "blowup:d=3",
    "digraph": "digraph:d=3",
    "bipartite": "bipartite:i=2,j=2",
    "mixture": "mixture:p1=0.1,p2=0.9",
}
# sampler -> (formula, exact measure at distinct points)
MC_MEASURES = {
    "kaleidoscope": ("(rel R0 x0 x1)", refs.kaleidoscope_relation_measure()),
    "maxgraph": (
        "(and (rel R0 x0 x1) (not (rel R3 x0 x1)))",
        refs.maxgraph_pair_measure(4, lambda bits: bits[0] and not bits[3]),
    ),
    "geometric": ("(rel R0 x0 x1)", refs.geometric_sup_edge(Fraction(1, 2), 2)),
    "blowup": ("(rel E x0 x1)", refs.blowup_same_class(3)),
    "digraph": ("(rel R x0 x1)", refs.digraph_edge_measure(3)),
    "bipartite": ("(rel P x0)", refs.bipartite_marked_measure()),
    "mixture": ("(rel R0 x0 x1)", refs.mixture_edge(0.1, 0.9)),
}


def blowup_class(fp, d: int):
    """Class of a blowup 1-type: P_m reads bit m of c + 1, and E(0, 0) holds."""
    if not fp.has(0, (0, 0)):
        return None
    return sum(fp.has(1 + m, (0,)) << m for m in range(d)) - 1


def mc_setup(seed: int, tmp: str) -> dict:
    parse = gallery.parse_sampler_spec
    samplers = {name: parse(spec) for name, spec in MC_GALLERY.items()}
    samplers["collide-kaleidoscope"] = parse("kaleidoscope:k=2,d=4")
    samplers["postypes-kaleidoscope"] = parse("kaleidoscope:k=2,d=8")
    formulas = {
        name: _formula(text, samplers[name].signature)
        for name, (text, _) in MC_MEASURES.items()
    }
    index_keyed = fixtures.IndexKeyedSampler()
    return {
        "samplers": samplers,
        "formulas": formulas,
        "superset": fixtures.BrokenSupersetSampler(),
        "index_keyed": index_keyed,
        "fixture_phi": _formula("(rel P x0)", index_keyed.signature),
        "fixture_gap": refs.dyadic_below(0.9) - refs.dyadic_below(0.1),
        "blowup_masses": refs.blowup_class_masses(3),
    }


def mc_round(state: dict, inputs, batch) -> None:
    S, F = state["samplers"], state["formulas"]
    key = lambda *labels: seeds.SeedKey(inputs.key_int(*labels))  # noqa: E731
    n, m, trials = MC_COHERENCE

    for name in MC_GALLERY:
        batch.call(
            f"coherence {name}", engine.coherence_check, S[name], n, m, trials, key("coh", name),
            check=lambda r, w=name: checks.coherence_clean(r, w),
        )
    batch.call(
        "coherence broken-superset", engine.coherence_check, state["superset"], n, m,
        MC_FIXTURE_TRIALS, key("coh", "superset"),
        check=lambda r: checks.fixture_caught(r, "restriction", "broken-superset"),
    )
    batch.call(
        "coherence index-keyed", engine.coherence_check, state["index_keyed"], n, m,
        MC_FIXTURE_TRIALS, key("coh", "index-keyed"),
        check=lambda r: checks.fixture_caught(r, "equivariance", "index-keyed"),
    )

    for name, (_, exact) in MC_MEASURES.items():
        batch.call(
            f"estimate {name}", engine.estimate_measure, S[name], F[name], MC_TRIALS,
            key("est", name),
            check=lambda r, w=name, x=exact: checks.binomial_within(r, x, w),
        )

    batch.call(
        "dissoc kaleidoscope", engine.dissociation_test, S["kaleidoscope"],
        F["kaleidoscope"], F["kaleidoscope"], MC_TRIALS, key("dis", "kaleidoscope"),
        check=lambda r: checks.dissociation_quiet(r, "dissoc kaleidoscope"),
    )
    batch.call(
        "dissoc mixture", engine.dissociation_test, S["mixture"], F["mixture"],
        F["mixture"], MC_TRIALS, key("dis", "mixture"),
        check=lambda r: checks.dissociation_gap(r, refs.mixture_gap(0.1, 0.9), "dissoc mixture"),
    )

    batch.call(
        "invariance identity", engine.invariance_test, S["geometric"], F["geometric"],
        logic.Permutation((0, 1)), MC_TRIALS, key("inv", "identity"),
        check=lambda r: checks.invariance_identity(r, "invariance identity"),
    )
    batch.call(
        "invariance digraph swap", engine.invariance_test, S["digraph"], F["digraph"],
        logic.Permutation((1, 0)), MC_TRIALS, key("inv", "digraph"),
        check=lambda r: checks.invariance_gap(r, Fraction(0), "invariance digraph"),
    )
    batch.call(
        "invariance index-keyed", engine.invariance_test, state["index_keyed"],
        state["fixture_phi"], logic.Permutation((1, 0)), MC_TRIALS, key("inv", "index-keyed"),
        check=lambda r: checks.invariance_gap(r, state["fixture_gap"], "invariance index-keyed")
        + ([] if r.z > checks.Z_GATE else [f"index-keyed not flagged, z = {r.z}"]),
    )

    batch.call(
        "collide kaleidoscope", stats.collision_stat, S["collide-kaleidoscope"], 2, MC_TRIALS,
        key("col", "kaleidoscope"),
        check=lambda r: checks.binomial_within(r, refs.kaleidoscope_collision(4), "collide kaleidoscope"),
    )
    batch.call(
        "collide blowup", stats.collision_stat, S["blowup"], 1, MC_TRIALS, key("col", "blowup"),
        check=lambda r: checks.binomial_within(r, refs.blowup_same_class(3), "collide blowup"),
    )

    batch.call(
        "postypes kaleidoscope", engine.estimate_positive_types, S["postypes-kaleidoscope"], 2,
        MC_EPSILON, MC_TRIALS, key("pos", "kaleidoscope"),
        check=lambda r: checks.postypes_empty(r, "postypes kaleidoscope"),
    )
    batch.call(
        "postypes blowup", engine.estimate_positive_types, S["blowup"], 1, MC_EPSILON,
        MC_TRIALS, key("pos", "blowup"),
        check=lambda r: checks.postypes_classes(
            r, state["blowup_masses"], lambda fp: blowup_class(fp, 3), "postypes blowup"
        ),
    )


# ---------------------------------------------------------------------------
# wide_structures: single large structures through the CLI, and Morleyization
# ---------------------------------------------------------------------------

WIDE_N = 30
WIDE_SMALL_STRUCTURES = 10
WIDE_SENTENCE = "(forall x (exists y (and (rel R0 x y) (rel R1 x y))))"
SMALL_R = "(forall x (exists y (rel R x y)))"
SMALL_P = "(forall x (schemeAnd n 3 (rel (P n) x)))"


def _direct_wide(facts) -> bool:
    r0, r1 = facts["R0"], facts["R1"]
    return all(any((x, y) in r0 and (x, y) in r1 for y in range(WIDE_N)) for x in range(WIDE_N))


def _direct_small(structure) -> bool:
    """The two small sentences, evaluated straight from their meaning."""
    n, facts = structure.domain_size, structure.facts
    if len(structure.signature) == 1:  # R/2
        return all(any((0, (x, y)) in facts for y in range(n)) for x in range(n))
    return all((p, (x,)) in facts for x in range(n) for p in range(3))


def wide_setup(seed: int, tmp: str) -> dict:
    specs = {
        "k3": "kaleidoscope:k=3,d=8",
        "k2": "kaleidoscope:k=2,d=8",
        "maxgraph": "maxgraph:d=16",
        "geometric": "geometric:dim=2,norm=sup,p=0.5",
    }
    symbols = {
        name: list(gallery.parse_sampler_spec(spec).signature.symbols)
        for name, spec in specs.items()
    }
    base_wide = logic.Signature(tuple(symbols["k2"]))
    base_r = logic.Signature((("R", 2),))
    base_p = logic.Signature((("P0", 1), ("P1", 1), ("P2", 1)))
    sentences = {
        "wide": morley.parse_fragment(WIDE_SENTENCE),
        "r": morley.parse_fragment(SMALL_R),
        "p": morley.parse_fragment(SMALL_P),
    }
    return {
        "tmp": tmp,
        "specs": specs,
        "symbols": symbols,
        "sentences": sentences,
        "bases": {"r": base_r, "p": base_p},
        "results": {
            "wide": morley.morleyize([sentences["wide"]], base_wide),
            "r": morley.morleyize([sentences["r"]], base_r),
            "p": morley.morleyize([sentences["p"]], base_p),
        },
        "base_wide": base_wide,
    }


def _cli(batch, what: str, argv: list[str], out: str, check):
    """One CLI invocation; its check gets (exit code, output bytes)."""
    def verdict(code):
        with open(out, "rb") as f:
            return check(code, f.read())

    return batch.call(what, cli.main, argv, check=verdict)


def _roundtrip(batch, what, structure, result, sentence, direct) -> None:
    """Criterion-8 style: reduct round trip, expansion, every axiom checked."""
    batch.call(f"{what} roundtrip", morley.verify_reduct_roundtrip, structure, result,
               check=lambda ok: [] if ok is True else ["reduct round trip failed"])
    truth = batch.call(f"{what} eval_fragment", morley.eval_fragment, structure, sentence, {},
                       check=lambda v: checks.sentence_agreement(
                           {"eval_fragment": v, "direct": direct}, what))
    expanded = batch.call(f"{what} expand", morley.canonical_expand, structure, result,
                          check=lambda e: [] if e.facts >= structure.facts else ["expansion lost facts"])
    for ax in result.axioms:
        want = direct if ax.label == "assert" else True
        batch.call(
            f"{what} axiom {ax.label}", morley.axiom_holds, expanded, ax,
            check=lambda v, a=ax, w=want: checks.sentence_agreement(
                {"axiom_holds": v, "eval_fragment": truth if a.label == "assert" else True,
                 "direct": w}, f"{what} {a.label}"),
        )


def wide_round(state: dict, inputs, batch) -> None:
    tmp, specs, symbols = state["tmp"], state["specs"], state["symbols"]
    n = WIDE_N
    seen: dict[str, dict] = {}

    def path(name):
        return os.path.join(tmp, f"{name}.jsonl")

    def run_sample(name, extra_check):
        out = path(f"sample-{name}")
        argv = ["sample", "--sampler", specs[name], "-n", str(n),
                "--seed", inputs.key_hex(name), "--out", out]

        def check(code, data):
            facts, problems = checks.parse_sample(data, symbols[name], n)
            seen[name] = facts
            return ([f"exit code {code}"] if code != 0 else []) + problems + extra_check(facts)

        _cli(batch, f"sample {name}", argv, out, check)
        return out

    def run_roots(name):
        out = path(f"roots-{name}")
        argv = ["roots", "--sampler", specs[name], "-n", str(n),
                "--seed", inputs.key_hex(name), "--out", out]

        def check(code, data):
            types = checks.pair_types(seen[name], symbols[name], n)
            return checks.roots_output(data, code, types)

        _cli(batch, f"roots {name}", argv, out, check)
        return out

    run_sample("k3", lambda f: checks.kaleidoscope_facts(f, 3, n))
    k2_out = run_sample("k2", lambda f: checks.kaleidoscope_facts(f, 2, n))
    run_roots("k2")

    def rooted(facts):
        types = checks.pair_types(facts, symbols["maxgraph"], n)
        return checks.maxgraph_rootedness(facts, 16, n, types)

    run_sample("maxgraph", lambda f: checks.symmetric_irreflexive(f) + rooted(f))
    roots_out = run_roots("maxgraph")
    run_sample("geometric", checks.symmetric_irreflexive)

    for out in (k2_out, roots_out):
        batch.call(f"replay {os.path.basename(out)}", cli.replay, out + ".manifest.json",
                   check=lambda ok: [] if ok is True else ["replay mismatch"])

    # Morleyization of the sampled k = 2 structure, then small random ones
    with batch.untraced():
        facts = seen.get("k2", {})
        wide = logic.FiniteStructure(
            state["base_wide"], n,
            frozenset((i, t) for i, (name, _) in enumerate(symbols["k2"]) for t in facts.get(name, ())),
        )
        direct = _direct_wide(facts) if facts else None
    _roundtrip(batch, "wide", wide, state["results"]["wide"], state["sentences"]["wide"], direct)

    rng = random.Random(inputs.key_int("small-structures"))
    for i in range(WIDE_SMALL_STRUCTURES):
        which = "r" if i % 2 == 0 else "p"
        base = state["bases"][which]
        size = rng.randint(3, 6)
        density = 0.4 if which == "r" else 0.8
        small = logic.FiniteStructure(base, size, frozenset(
            (sym, args)
            for sym in range(len(base))
            for args in product(range(size), repeat=base.arity(sym))
            if rng.random() < density
        ))
        _roundtrip(batch, f"small-{which}{i}", small, state["results"][which],
                   state["sentences"][which], _direct_small(small))


# ---------------------------------------------------------------------------
# limit_tree: checked staged build, deep snapshots, rescaled marginals
# ---------------------------------------------------------------------------

# Seeded snapshots read facts at exactly LIMIT_DEPTH (max_extra=0): when
# two of the points share a stage-LIMIT_DEPTH cell (about 435 * 2**-16 of
# snapshots) sample_structure reports the pair, a verdict the benchmark
# confirms. With the default max_extra it would read deeper instead, but
# keep the stage-LIMIT_DEPTH language, so the pair gets one unary print
# and realizes the omitted type: a wrong snapshot on some seeds only,
# which two sets of runs could not count alike.
# The default path runs on one fixed input per round instead: a fresh
# stage-DEEPENING_DEPTH handle and DEEPENING_POINTS points, more than the
# 2**DEEPENING_DEPTH - 1 cells of that stage, so a pair always collides
# and is separated only by reading deeper. The same fault makes that
# snapshot wrong every time, whatever the seeds.
# A marginal point still in the reservoir at the build's depth makes
# estimate_marginal build one more whole stage; with 4 * LIMIT_TRIALS
# points per round that happens in about 1 round in 65, so the rounds'
# median keeps it out of wall_s.
LIMIT_STAGES = 11
LIMIT_DEPTH = 16
LIMIT_SNAPSHOTS = 3
LIMIT_POINTS = 30
LIMIT_TRIALS = 250
DEEPENING_DEPTH = 4
DEEPENING_POINTS = 30
DEEPENING_KEYS = (seeds.SeedKey(0xDEE9), seeds.SeedKey(0xDEEA))  # build, points
DEEPENING_FAULT = KnownFault(
    "sample_structure keeps the stage-depth language when it reads deeper",
    ("distinct unary prints, want", "scheduled type realized"),
)
PRESET_SHARE = {"p0-heavy": Fraction(3, 4), "p0-light": Fraction(1, 4)}


def limit_setup(seed: int, tmp: str) -> dict:
    return {"theory": limits.build_theory()}


def _level0_mass(handle, k: int):
    """Exact stage-k mass of P0 under the handle's law, and the reservoir mass."""
    nums, star, den = handle.level_masses(k)
    uids = handle.stage(k).uids
    bit = handle.guide.bit
    hit = sum(v for v, u in zip(nums, uids) if bit(u, 0))
    return Fraction(hit, den), Fraction(star, den)


def snapshot_audited(handle, m: int, depth: int, key, **kwargs):
    """One snapshot and its audits, as `ergodic limit-sample` runs them.

    Returns the SeparationError when the points are reported instead.
    """
    try:
        samp = limits.sample_structure(handle, m, depth, key, **kwargs)
    except limits.SeparationError as exc:
        return exc
    axioms = limits.materialized_universal_axioms(handle.theory, samp.symbol_ids)
    return {
        "sample": samp,
        "axioms": [limits.snapshot_axiom_holds(samp, ax) for ax in axioms],
        "omitted": limits.type_omitted_in_sample(samp, handle.theory),
        "prints": limits.unary_fingerprints(samp),
    }


def limit_round(state: dict, inputs, batch) -> None:
    K, T = LIMIT_STAGES, LIMIT_TRIALS
    key = lambda *labels: seeds.SeedKey(inputs.key_int(*labels))  # noqa: E731
    theory = state["theory"]

    def build_ok(h, stages):
        out = [] if h.depth == stages else [f"built to {h.depth}, want {stages}"]
        if len(h.reports) != stages or not all(r.passed for r in h.reports):
            out.append("stage checks missing or failed")
        if h.theory.sentences != theory.sentences:
            out.append("build used another theory")
        for st in h.stages:
            out += checks.stage_fields(st)
        return out

    handle = batch.call("build_limit", limits.build_limit, K, key("build"),
                        check=lambda h: build_ok(h, K))

    def snapshot_ok(v, h, built, points_key, depth, m):
        # a snapshot may deepen the build: check the stages it added too
        out = [p for st in h.stages[built + 1:] for p in checks.stage_fields(st)]
        if isinstance(v, limits.SeparationError):
            return out + checks.separation_pair(h, points_key, v.pair, depth)
        return out + checks.snapshot_verdict(v, h.guide.bit, m)

    for i in range(LIMIT_SNAPSHOTS):
        k = key("snapshot", i)
        batch.call(f"snapshot {i}", snapshot_audited, handle, LIMIT_POINTS, LIMIT_DEPTH, k,
                   max_extra=0,
                   check=lambda v, k=k: snapshot_ok(v, handle, K, k, LIMIT_DEPTH, LIMIT_POINTS))

    build_key, points_key = DEEPENING_KEYS
    small = batch.call("build_limit deepening", limits.build_limit, DEEPENING_DEPTH, build_key,
                       check=lambda h: build_ok(h, DEEPENING_DEPTH))
    batch.call(
        "snapshot deepening", snapshot_audited, small, DEEPENING_POINTS, DEEPENING_DEPTH,
        points_key, known_fault=DEEPENING_FAULT,
        check=lambda v: snapshot_ok(v, small, DEEPENING_DEPTH, points_key, DEEPENING_DEPTH,
                                    DEEPENING_POINTS)
        + ([] if isinstance(v, dict) and v["sample"].read_level > DEEPENING_DEPTH
           else ["snapshot did not read past its depth"]),
    )

    with batch.untraced():
        exact, reservoir = _level0_mass(handle, K) if handle else (None, None)
    base = batch.call(
        "marginal base", limits.estimate_marginal, handle, 0, T, key("marginal"), K,
        check=lambda e: checks.marginal_bound(e, exact, reservoir, T, "marginal base"),
    )
    for preset in limits.WEIGHT_PRESETS:
        weight = batch.call(f"weight {preset}", limits.weight_preset, handle, preset, K,
                            check=lambda w: [] if w.stage == K else ["weight on another stage"])
        scaled = batch.call(f"rescale {preset}", limits.rescale, handle, weight)
        if preset == "identity":
            batch.call(
                "marginal identity", limits.estimate_marginal, scaled, 0, T, key("marginal"), K,
                check=lambda e: [] if e == base else [f"identity gave {e}, base {base}"],
            )
            continue

        def in_bounds(e, scaled=scaled, preset=preset):
            mass, star = _level0_mass(scaled, K)
            out = checks.marginal_bound(e, mass, star, T, f"marginal {preset}")
            if mass != (1 - star) * PRESET_SHARE[preset]:
                out.append(f"{preset}: P0 cell mass {mass} is not {PRESET_SHARE[preset]} of 1 - reservoir")
            return out

        batch.call(f"marginal {preset}", limits.estimate_marginal, scaled, 0, T,
                   key("marginal", preset), K, check=in_bounds)


WORKLOADS = {
    "mc_audits": (mc_setup, mc_round),
    "wide_structures": (wide_setup, wide_round),
    "limit_tree": (limit_setup, limit_round),
}
