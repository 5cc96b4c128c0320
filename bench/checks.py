"""Correctness checks on the program's outputs.

Every check is a pure function that returns a list of problems (empty
when the output is right), so the benchmark's own tests can feed it a
tampered output and see it fail. Statistical checks compare against the
exact references in `refs.py` with a gate of Z_GATE standard errors:
wide enough that a correct sampler driven by other randomness (another
PRF, another seed) passes, narrow enough that an estimate moved by ten
standard errors fails.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import permutations

from refs import binomial_stderr

Z_GATE = 6.0


def within(estimate, reference: Fraction, stderr: float, what: str) -> list[str]:
    """|estimate - reference| <= Z_GATE * stderr; exact when stderr is 0."""
    gap = abs(Fraction(estimate) - reference)
    if stderr == 0.0:
        return [] if gap == 0 else [f"{what}: {float(estimate)} != exact {reference}"]
    if float(gap) > Z_GATE * stderr:
        return [
            f"{what}: {float(estimate):.6f} is {float(gap) / stderr:.1f} stderr "
            f"from {float(reference):.6f}"
        ]
    return []


def binomial_within(report, reference: Fraction, what: str) -> list[str]:
    """A StatReport's estimate against an exact probability."""
    return within(report.estimate, reference, binomial_stderr(reference, report.trials), what)


# ---------------------------------------------------------------------------
# mc_audits
# ---------------------------------------------------------------------------


def coherence_clean(report, what: str) -> list[str]:
    if report.failures:
        f = report.failures[0]
        return [f"{what}: {len(report.failures)} coherence failures, first {f.condition} at {f.seed_hex}"]
    return []


def fixture_caught(report, condition: str, what: str) -> list[str]:
    hits = [f for f in report.failures if f.condition == condition]
    if not hits:
        return [f"{what}: no {condition} failure reported"]
    bad = [f for f in hits if len(f.seed_hex) != 32 or (condition == "equivariance") != (f.sigma is not None)]
    return [f"{what}: malformed counterexample {bad[0]}"] if bad else []


def dissociation_quiet(report, what: str) -> list[str]:
    if not math.isfinite(report.z) or abs(report.z) > Z_GATE:
        return [f"{what}: dissociated sampler flagged, z = {report.z}"]
    return []


def dissociation_gap(report, reference: Fraction, what: str) -> list[str]:
    out = within(report.gap, reference, report.gap_stderr, what)
    if report.gap != report.joint.estimate - report.marginal_a.estimate * report.marginal_b.estimate:
        out.append(f"{what}: gap is not joint - product")
    return out


def invariance_identity(report, what: str) -> list[str]:
    if report.gap != 0 or report.at_identity.estimate != report.at_permuted.estimate:
        return [f"{what}: identity permutation gave gap {report.gap}"]
    return []


def invariance_gap(report, reference: Fraction, what: str) -> list[str]:
    out = within(report.gap, reference, report.gap_stderr, what)
    if report.gap != report.at_identity.estimate - report.at_permuted.estimate:
        out.append(f"{what}: gap is not identity - permuted")
    return out


def postypes_empty(report, what: str) -> list[str]:
    if report.entries or report.covered != 0:
        return [f"{what}: {len(report.entries)} positive types where none has mass >= epsilon"]
    return []


def postypes_classes(report, masses, class_of, what: str) -> list[str]:
    """Entries of a class law: every frequency near its mass, the cut at epsilon respected."""
    out = []
    eps, trials = report.epsilon, report.trials
    seen = set()
    for fp, freq in report.entries:
        c = class_of(fp)
        if c is None or not 0 <= c < len(masses):
            out.append(f"{what}: entry decodes to no class")
            continue
        if c in seen:
            out.append(f"{what}: class {c} listed twice")
        seen.add(c)
        out += within(freq, masses[c], binomial_stderr(masses[c], trials), f"{what} class {c}")
        if freq < eps:
            out.append(f"{what}: entry below epsilon")
    for c, p in enumerate(masses):
        margin = Z_GATE * binomial_stderr(p, trials)
        if float(p) - margin > float(eps) and c not in seen:
            out.append(f"{what}: class {c} of mass {p} missing")
        if float(p) + margin < float(eps) and c in seen:
            out.append(f"{what}: class {c} of mass {p} listed")
    if report.covered != sum((f for _, f in report.entries), Fraction(0)):
        out.append(f"{what}: covered is not the sum of the entries")
    return out


# ---------------------------------------------------------------------------
# wide_structures: CLI outputs
# ---------------------------------------------------------------------------


def parse_sample(data: bytes, symbols: list[tuple[str, int]], n: int):
    """Facts of a `sample` JSONL output, per symbol name, and its problems."""
    index = {name: i for i, (name, _) in enumerate(symbols)}
    facts: dict[str, set] = {name: set() for name, _ in symbols}
    problems: list[str] = []
    last = None
    for line in data.decode().splitlines():
        row = json.loads(line)
        name, args = row.get("symbol"), tuple(row.get("args", ()))
        if name not in index or len(args) != symbols[index[name]][1]:
            problems.append(f"bad fact row {line}")
            continue
        if any(not 0 <= a < n for a in args):
            problems.append(f"argument out of domain in {line}")
        key = (index[name], args)
        if last is not None and key <= last:
            problems.append(f"facts not sorted or repeated at {line}")
        last = key
        facts[name].add(args)
    return facts, problems


def kaleidoscope_facts(facts: dict[str, set], k: int, n: int) -> list[str]:
    """Symmetric, irreflexive, and each relation on about half of the k-sets."""
    out = []
    sets = math.comb(n, k)
    sd = math.sqrt(sets) / 2
    for name, tuples in facts.items():
        if any(len(set(t)) < k for t in tuples):
            out.append(f"{name}: fact on a repeated element")
        chosen = {tuple(sorted(t)) for t in tuples}
        if len(tuples) != len(chosen) * math.factorial(k) or any(
            p not in tuples for s in chosen for p in permutations(s)
        ):
            out.append(f"{name}: not symmetric")
        if abs(len(chosen) - sets / 2) > Z_GATE * sd:
            out.append(f"{name}: holds on {len(chosen)} of {sets} sets")
    return out


def symmetric_irreflexive(facts: dict[str, set]) -> list[str]:
    out = []
    for name, pairs in facts.items():
        if any(i == j for i, j in pairs):
            out.append(f"{name}: loop")
        if any((j, i) not in pairs for i, j in pairs):
            out.append(f"{name}: not symmetric")
    return out


def pair_types(facts: dict[str, set], symbols: list[tuple[str, int]], n: int):
    """Rootedness of every realized 2-type of distinct points, by the definition.

    Returns {type key: (realizing pairs, roots)}; a type is rooted when
    some element lies in every realizing pair.
    """
    def key(i, j):
        out = []
        for name, arity in symbols:
            rel = facts[name]
            if arity == 1:
                out += [(i,) in rel, (j,) in rel]
            elif arity == 2:
                out += [(i, i) in rel, (i, j) in rel, (j, i) in rel, (j, j) in rel]
            else:
                raise ValueError("pair types need arities <= 2")
        return tuple(out)

    groups: dict[tuple, list] = {}
    for i, j in permutations(range(n), 2):
        groups.setdefault(key(i, j), []).append((i, j))
    result = {}
    for k, pairs in groups.items():
        common = set(pairs[0])
        for p in pairs[1:]:
            common &= set(p)
        result[k] = (pairs, tuple(sorted(common)))
    return result


def maxgraph_rootedness(facts: dict[str, set], d: int, n: int, types: dict) -> list[str]:
    """Pair types of a max graph are rooted unless prefixes tie, as the law predicts.

    The pattern of a pair is max(prefix_i, prefix_j), so the least
    pattern at a vertex recovers its own prefix, except at the global
    minimum, which recovers the second least. With distinct prefixes the
    least recovered value occurs exactly twice and every other once; any
    other count is a prefix tie, and only a tie leaves a type unrooted.
    """
    names = [f"R{m}" for m in range(d)]

    def pattern(i, j):
        return tuple((i, j) in facts[name] for name in names)

    recovered = [min(pattern(w, x) for x in range(n) if x != w) for w in range(n)]
    counts = sorted(((v, recovered.count(v)) for v in set(recovered)))
    distinct = counts[0][1] == 2 and all(c == 1 for _, c in counts[1:])
    rooted = all(roots for _, roots in types.values())
    if rooted != distinct:
        return [f"all pair types rooted = {rooted}, but prefixes distinct = {distinct}"]
    return []


def roots_output(data: bytes, code: int, types: dict) -> list[str]:
    """A `roots` output and exit code against the benchmark's own root finder."""
    rows = [json.loads(line) for line in data.decode().splitlines()]
    if not rows or not rows[-1].get("summary"):
        return ["roots output has no summary row"]
    summary, reports = rows[-1], rows[:-1]
    want_passed = all(roots for _, roots in types.values())
    out = []
    if code != (0 if want_passed else 2):
        out.append(f"roots exit code {code}, own finder says passed={want_passed}")
    if summary.get("passed") != want_passed:
        out.append("roots summary disagrees on passed")
    if summary.get("fingerprints") != len(types) or len(reports) != len(types):
        out.append(f"roots lists {summary.get('fingerprints')} types, own finder {len(types)}")
    failures = sum(not roots for _, roots in types.values())
    if summary.get("failures") != failures:
        out.append("roots summary disagrees on failures")
    got = sorted((r["realizations"], tuple(r["roots"]), r["rooted"]) for r in reports)
    want = sorted((len(p), roots, bool(roots)) for p, roots in types.values())
    if got != want:
        out.append("roots rows disagree with own root finder")
    return out


def sentence_agreement(verdicts: dict[str, bool], what: str) -> list[str]:
    """All ways of deciding one sentence must agree."""
    if len(set(verdicts.values())) > 1:
        return [f"{what}: verdicts disagree {verdicts}"]
    return []


# ---------------------------------------------------------------------------
# limit_tree
# ---------------------------------------------------------------------------


def stage_fields(stage) -> list[str]:
    """den = 2^k, size = 2^k - 1, masses positive summing to 1, max <= 2^-k."""
    k, out = stage.index, []
    if stage.den != 2**k:
        out.append(f"stage {k}: den {stage.den} != 2^{k}")
    if len(stage.uids) != 2**k - 1 or len(stage.nums) != 2**k - 1:
        out.append(f"stage {k}: {len(stage.uids)} elements, want {2**k - 1}")
    if sum(stage.nums) + stage.star_num != stage.den:
        out.append(f"stage {k}: masses do not sum to 1")
    if stage.star_num <= 0 or any(v <= 0 for v in stage.nums):
        out.append(f"stage {k}: a mass is not positive")
    if max([stage.star_num, *stage.nums]) * 2**k > stage.den:
        out.append(f"stage {k}: a mass exceeds 2^-{k}")
    return out


def snapshot_predicates(sample, bit) -> list[str]:
    """Every P_n fact (and non-fact) equals bit(uid, n) for its point."""
    sig = sample.structure.signature
    out = []
    for local, (name, arity) in enumerate(sig.symbols):
        if arity != 1 or not (name[:1] == "P" and name[1:].isdigit()):
            continue
        level = int(name[1:])
        for x, uid in enumerate(sample.uids):
            if sample.structure.holds(local, (x,)) != (bit(uid, level) == 1):
                out.append(f"P{level}({x}) disagrees with the guide bit of uid {uid}")
    return out


def separation_pair(handle, key, pair, depth: int) -> list[str]:
    """A reported pair must share its stage-`depth` cell (or sit in the reservoir)."""
    from ergodic.limits import PathPoint

    i, j = pair
    cells = [PathPoint(handle, key.child("point", p)).position(depth) for p in (i, j)]
    if i == j:
        return [] if cells[0] == -1 else [f"point {i} reported but not in the reservoir"]
    return [] if cells[0] == cells[1] else [f"points {i}, {j} reported but in cells {cells}"]


def unary_prints(sample) -> list[tuple]:
    st = sample.structure
    unary = [i for i, (_, a) in enumerate(st.signature.symbols) if a == 1]
    return [tuple((i, (x,)) in st.facts for i in unary) for x in range(st.domain_size)]


def snapshot_prints(sample, reported, m: int) -> list[str]:
    mine = unary_prints(sample)
    out = []
    if len(set(mine)) != m:
        out.append(f"{len(set(mine))} distinct unary prints, want {m}")
    if [tuple(p) for p in reported] != mine:
        out.append("unary_fingerprints disagrees with the snapshot facts")
    return out


def snapshot_verdict(verdict: dict, bit, m: int) -> list[str]:
    """A snapshot and its audits (see workloads.snapshot_audited)."""
    samp = verdict["sample"]
    out = []
    if not verdict["axioms"]:
        out.append("no materialized universal axiom")
    if not all(ok is True for ok in verdict["axioms"]):
        out.append("universal axiom fails")
    if verdict["omitted"] is not True:
        out.append("scheduled type realized")
    return out + snapshot_predicates(samp, bit) + snapshot_prints(samp, verdict["prints"], m)


def marginal_bound(estimate: float, exact: Fraction, reservoir: Fraction,
                   trials: int, what: str) -> list[str]:
    """Estimate within Z_GATE stderr of [exact, exact + reservoir mass]."""
    lo, hi = exact, exact + reservoir
    sd = max(binomial_stderr(lo, trials), binomial_stderr(hi, trials))
    e = Fraction(estimate)
    if float(lo - e) > Z_GATE * sd or float(e - hi) > Z_GATE * sd:
        return [f"{what}: {estimate} outside [{float(lo):.5f}, {float(hi):.5f}] +- {Z_GATE} stderr"]
    return []
