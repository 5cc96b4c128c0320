"""Span tracing around the public functions of each `ergodic` module.

Nothing inside `src/` changes. `Tracer.install()` replaces every binding
of a traced function in every loaded `ergodic.*` module (so calls made
through `from .engine import sample` in the CLI are traced too) and the
traced methods on their classes. Each wrapper records one span: calls,
inclusive time and self time (inclusive minus the wrapped child spans
that ran inside it). Spans are aggregated in memory per name; a few
wrappers also record work counters at the same boundary.

Recursive functions (`eval_qf`, the guide's `bit`) are counted once per
outermost call: inner calls run the original function untouched.
"""

from __future__ import annotations

import contextlib
import inspect
import os
import sys
from time import perf_counter

GALLERY_FAMILIES = {
    "KaleidoscopeHypergraph": "kaleidoscope",
    "MaxGraph": "maxgraph",
    "GeometricGraph": "geometric",
    "BlowupControl": "blowup",
    "KaleidoscopeDigraph": "digraph",
    "BipartiteLabels": "bipartite",
    "MixtureControl": "mixture",
}
FIXTURE_CLASSES = ("BrokenSupersetSampler", "IndexKeyedSampler", "EmptySampler")
ENGINE_AUDITS = (
    "estimate_measure",
    "dissociation_test",
    "invariance_test",
    "coherence_check",
    "estimate_positive_types",
)
SNAPSHOT_AUDITS = (
    "materialized_universal_axioms",
    "snapshot_axiom_holds",
    "type_omitted_in_sample",
    "unary_fingerprints",
)

# (name, unit) of every per-layer metric, in the order they are printed.
PER_LAYER = (
    ("seeds.child_calls", "count"),
    ("seeds.child_s", "s"),
    ("seeds.raw_calls", "count"),
    ("seeds.raw_s", "s"),
    ("seeds.prf_words", "count"),
    ("sexpr.parse_calls", "count"),
    ("sexpr.parse_s", "s"),
    ("gallery.type_fn_calls", "count"),
    ("gallery.type_fn_s", "s"),
    *((f"gallery.{fam}.type_fn_us", "us") for fam in GALLERY_FAMILIES.values()),
    ("fixtures.type_fn_calls", "count"),
    ("fixtures.type_fn_s", "s"),
    ("logic.models_calls", "count"),
    ("logic.models_s", "s"),
    ("logic.reindex_calls", "count"),
    ("logic.reindex_s", "s"),
    ("logic.qf_fingerprint_calls", "count"),
    ("logic.qf_fingerprint_s", "s"),
    ("logic.structure_from_fingerprint_s", "s"),
    ("logic.eval_qf_calls", "count"),
    ("logic.eval_qf_s", "s"),
    ("engine.audit_calls", "count"),
    ("engine.trials", "count"),
    ("engine.self_s", "s"),
    ("stats.collision_s", "s"),
    ("stats.rootedness_calls", "count"),
    ("stats.rootedness_s", "s"),
    ("morley.morleyize_s", "s"),
    ("morley.axiom_holds_calls", "count"),
    ("morley.axiom_holds_s", "s"),
    ("morley.roundtrip_s", "s"),
    ("limits.advance_stage_s", "s"),
    ("limits.stage_invariants_s", "s"),
    ("limits.sample_structure_s", "s"),
    ("limits.guide_fact_calls", "count"),
    ("limits.guide_bit_calls", "count"),
    ("limits.path_levels", "count"),
    ("limits.snapshot_audit_s", "s"),
    ("limits.estimate_marginal_s", "s"),
    ("limits.stage_elements", "count"),
    ("cli.main_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.output_bytes", "bytes"),
)


class Span:
    __slots__ = ("calls", "total", "own")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.own = 0.0


class Tracer:
    """Aggregated spans and counters, plus the patches that feed them."""

    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.counters: dict[str, float] = {}
        self._stack: list[list[float]] = []
        self._restore: list[tuple[object, str, object]] = []
        self._active = [True]

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced."""
        self._active[0] = False
        try:
            yield
        finally:
            self._active[0] = True

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, before=None, after=None, reentrant=True):
        """Wrapper recording a span `name` around fn.

        before(args, kwargs) -> state and after(state, args, kwargs,
        result) run outside the timed interval and may call count().
        With reentrant=False, calls made while a span of the same
        wrapper is open pass straight to fn.
        """
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        active = self._active
        depth = [0]

        def wrapper(*args, **kwargs):
            if not active[0] or (not reentrant and depth[0]):
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                span.calls += 1
                span.total += dt
                span.own += dt - frame[0]
            if after is not None:
                after(state, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_function(self, module, attr: str, name: str, **opts) -> None:
        """Trace `module.attr` at every module that binds the same object."""
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, **opts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ergodic" or mod_name.startswith("ergodic.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, name: str, **opts) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, **opts))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Patch every traced boundary of the loaded ergodic modules."""
        from ergodic import cli, engine, fixtures, gallery, limits, logic, morley, seeds, sexpr, stats

        # seeds: one PRF word is one digest computed; XiFamily caches them
        def cache_size(args, kwargs):
            return len(getattr(args[0], "_cache", ()))

        def words_drawn(state, args, kwargs, result):
            cache = getattr(args[0], "_cache", None)
            self.count("seeds.prf_words", 1 if cache is None else len(cache) - state)

        self.patch_method(seeds.SeedKey, "child", "seeds.child")
        self.patch_method(seeds.XiFamily, "raw", "seeds.raw", before=cache_size, after=words_drawn)
        self.patch_function(
            seeds, "xi_raw", "seeds.xi_raw",
            after=lambda s, a, k, r: self.count("seeds.prf_words"),
        )

        self.patch_function(sexpr, "parse_sexpr", "sexpr.parse")
        self.patch_function(sexpr, "parse_many", "sexpr.parse")

        for cls_name, family in GALLERY_FAMILIES.items():
            self.patch_method(getattr(gallery, cls_name), "type_fn", f"gallery.{family}.type_fn")
        for cls_name in FIXTURE_CLASSES:
            self.patch_method(getattr(fixtures, cls_name), "type_fn", "fixtures.type_fn")

        fp = logic.TypeFingerprint
        self.patch_method(fp, "models", "logic.models")
        self.patch_method(fp, "reindexed", "logic.reindex")
        self.patch_method(fp, "agrees", "logic.reindex")
        self.patch_function(logic, "qf_fingerprint", "logic.qf_fingerprint")
        self.patch_function(logic, "structure_from_fingerprint", "logic.structure_from_fingerprint")
        self.patch_function(logic, "eval_qf", "logic.eval_qf", reentrant=False)

        for fn_name in ENGINE_AUDITS:
            trials_of = _argument_reader(getattr(engine, fn_name), "trials")
            self.patch_function(
                engine, fn_name, "engine.audit",
                after=lambda s, a, k, r, get=trials_of: self.count("engine.trials", get(a, k)),
            )
        self.patch_function(engine, "sample", "engine.sample")

        self.patch_function(stats, "collision_stat", "stats.collision")
        self.patch_function(stats, "rootedness_check", "stats.rootedness")
        self.patch_function(stats, "find_roots", "stats.rootedness")

        self.patch_function(morley, "morleyize", "morley.morleyize")
        self.patch_function(morley, "axiom_holds", "morley.axiom_holds")
        self.patch_function(morley, "verify_reduct_roundtrip", "morley.roundtrip")

        def stage_size(state, args, kwargs, result):
            self.counters["limits.stage_elements"] = max(
                self.counters.get("limits.stage_elements", 0), result.size
            )

        def path_length(args, kwargs):
            return len(args[0].positions)

        def levels_decided(state, args, kwargs, result):
            self.count("limits.path_levels", len(args[0].positions) - state)

        self.patch_function(limits, "advance_stage", "limits.advance_stage", after=stage_size)
        self.patch_function(limits, "stage_invariants", "limits.stage_invariants")
        self.patch_function(limits, "sample_structure", "limits.sample_structure")
        self.patch_function(limits, "estimate_marginal", "limits.estimate_marginal")
        for fn_name in SNAPSHOT_AUDITS:
            self.patch_function(limits, fn_name, "limits.snapshot_audit")
        guide = limits.KaleidoscopePredicateGuide
        self.patch_method(guide, "fact", "limits.guide_fact")
        self.patch_method(guide, "bit", "limits.guide_bit", reentrant=False)
        self.patch_method(
            limits.PathPoint, "extend_to", "limits.path_extend",
            before=path_length, after=levels_decided,
        )

        def output_bytes(state, args, kwargs, result):
            argv = list(args[0]) if args else list(kwargs.get("argv") or ())
            out = argv[argv.index("--out") + 1] if "--out" in argv else None
            for path in (out, out and out + ".manifest.json"):
                if path and os.path.exists(path):
                    self.count("cli.output_bytes", os.path.getsize(path))

        self.patch_function(cli, "main", "cli.main", after=output_bytes)

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> dict:
        """Copy of every span and counter, to subtract a phase from."""
        spans = {k: (v.calls, v.total, v.own) for k, v in self.spans.items()}
        return {"spans": spans, "counters": dict(self.counters)}

    def per_layer(self, setup: dict, rounds: int) -> dict[str, float]:
        """Per-layer metrics for one set-up plus one round.

        Set-up spans count once; spans and counters from the timed
        rounds are divided by the number of rounds. The deepest stage
        size is a maximum, not a sum.
        """
        def phase(calls, total, own, name):
            s_calls, s_total, s_own = setup["spans"].get(name, (0, 0.0, 0.0))
            return (
                s_calls + (calls - s_calls) / rounds,
                s_total + (total - s_total) / rounds,
                s_own + (own - s_own) / rounds,
            )

        span = {}
        for name, sp in self.spans.items():
            span[name] = phase(sp.calls, sp.total, sp.own, name)
        zero = (0, 0.0, 0.0)

        def calls(*names):
            return sum(span.get(n, zero)[0] for n in names)

        def total(*names):
            return sum(span.get(n, zero)[1] for n in names)

        def own(*names):
            return sum(span.get(n, zero)[2] for n in names)

        def counter(name):
            before = setup["counters"].get(name, 0)
            return before + (self.counters.get(name, 0) - before) / rounds

        families = [f"gallery.{fam}.type_fn" for fam in GALLERY_FAMILIES.values()]
        out = {
            "seeds.child_calls": calls("seeds.child"),
            "seeds.child_s": total("seeds.child"),
            "seeds.raw_calls": calls("seeds.raw", "seeds.xi_raw"),
            "seeds.raw_s": total("seeds.raw", "seeds.xi_raw"),
            "seeds.prf_words": counter("seeds.prf_words"),
            "sexpr.parse_calls": calls("sexpr.parse"),
            "sexpr.parse_s": total("sexpr.parse"),
            "gallery.type_fn_calls": calls(*families),
            "gallery.type_fn_s": own(*families),
        }
        for name in families:
            n = calls(name)
            out[name + "_us"] = total(name) / n * 1e6 if n else 0.0
        out.update({
            "fixtures.type_fn_calls": calls("fixtures.type_fn"),
            "fixtures.type_fn_s": total("fixtures.type_fn"),
            "logic.models_calls": calls("logic.models"),
            "logic.models_s": total("logic.models"),
            "logic.reindex_calls": calls("logic.reindex"),
            "logic.reindex_s": total("logic.reindex"),
            "logic.qf_fingerprint_calls": calls("logic.qf_fingerprint"),
            "logic.qf_fingerprint_s": total("logic.qf_fingerprint"),
            "logic.structure_from_fingerprint_s": total("logic.structure_from_fingerprint"),
            "logic.eval_qf_calls": calls("logic.eval_qf"),
            "logic.eval_qf_s": total("logic.eval_qf"),
            "engine.audit_calls": calls("engine.audit"),
            "engine.trials": counter("engine.trials"),
            "engine.self_s": own("engine.audit", "engine.sample"),
            "stats.collision_s": total("stats.collision"),
            "stats.rootedness_calls": calls("stats.rootedness"),
            "stats.rootedness_s": total("stats.rootedness"),
            "morley.morleyize_s": total("morley.morleyize"),
            "morley.axiom_holds_calls": calls("morley.axiom_holds"),
            "morley.axiom_holds_s": total("morley.axiom_holds"),
            "morley.roundtrip_s": total("morley.roundtrip"),
            "limits.advance_stage_s": total("limits.advance_stage"),
            "limits.stage_invariants_s": total("limits.stage_invariants"),
            "limits.sample_structure_s": total("limits.sample_structure"),
            "limits.guide_fact_calls": calls("limits.guide_fact"),
            "limits.guide_bit_calls": calls("limits.guide_bit"),
            "limits.path_levels": counter("limits.path_levels"),
            "limits.snapshot_audit_s": total("limits.snapshot_audit"),
            "limits.estimate_marginal_s": total("limits.estimate_marginal"),
            "limits.stage_elements": self.counters.get("limits.stage_elements", 0),
            "cli.main_calls": calls("cli.main"),
            "cli.self_s": own("cli.main"),
            "cli.output_bytes": counter("cli.output_bytes"),
        })
        return out


def _argument_reader(fn, param: str):
    """Reader of one named argument from a call's (args, kwargs)."""
    names = list(inspect.signature(fn).parameters)
    index = names.index(param)

    def get(args, kwargs):
        return args[index] if len(args) > index else kwargs[param]

    return get
