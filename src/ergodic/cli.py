"""Command-line surface tying the samplers, audits, and limit builds together.

Every run writes one primary output (stdout, or ``--out``) plus a run
manifest recording the argv, seed, configuration, and a git-blob hash
of each output file. Re-running the recorded argv reproduces the bytes;
``replay`` does exactly that and compares the hashes.

Exit codes: 0 success / pass, 1 statistical test flagged, 2 exact
invariant violated, 3 usage error (a limit stage past its ceiling too).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import (
    StatReport,
    binomial_stderr,
    coherence_check,
    dissociation_test,
    estimate_measure,
    estimate_positive_types,
    invariance_test,
    sample,
    z_score,
)
from .gallery import parse_sampler_spec
from .limits import (
    WEIGHT_PRESETS,
    LimitError,
    SeparationError,
    build_limit,
    estimate_marginal,
    handle_from_manifest,
    manifest_json,
    materialized_universal_axioms,
    rescale,
    sample_structure,
    snapshot_axiom_holds,
    type_omitted_in_sample,
    unary_fingerprints,
    weight_preset,
)
from .logic import CeilingError, FiniteStructure, LogicError, Permutation, Signature
from .morley import MorleyError, _qf_from_tree, fragment_from_tree, morleyize, result_to_json
from .seeds import SeedKey
from .sexpr import SexprError, parse_many, parse_sexpr
from .stats import collision_stat, rootedness_check

EXIT_OK = 0
EXIT_FLAG = 1
EXIT_VIOLATION = 2
EXIT_USAGE = 3

DEFAULT_SEED = "00112233445566778899aabbccddeeff"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports bad invocations as exit code 3."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------


def _json_cell(value):
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value)
    return value


def _format_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "jsonl":
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows)
    fields: list[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    import csv as _csv

    writer = _csv.DictWriter(buf, fieldnames=fields, restval="", lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _json_cell(v) for k, v in row.items()})
    return buf.getvalue()


def _facts_text(structure: FiniteStructure, fmt: str, more=()) -> str:
    """One row per fact of a structure, then the rows `more`.

    Symbols come by index and each table's entries in C order, which is
    the order of sorted(facts). A JSONL fact line has the bytes
    json.dumps({"symbol": name, "args": args}, sort_keys=True) gives.
    """
    signature, tables = structure.signature, structure.tables
    if fmt != "jsonl":
        rows = [
            {"symbol": signature.name(sym), "args": t}
            for sym, table in tables.items()
            for t in np.argwhere(table).tolist()
        ]
        return _format_rows([*rows, *more], fmt)
    heads = [['{"args": [']]  # heads[k][i]: '{"args": [a, b, c' for entry i of a k-ary table
    out = []
    for sym, table in tables.items():
        while len(heads) <= table.ndim:
            digits = [(", " if len(heads) > 1 else "") + str(i) for i in range(len(table))]
            heads.append([h + d for h in heads[-1] for d in digits])
        tail = '], "symbol": ' + json.dumps(signature.name(sym)) + "}\n"
        if hits := [heads[table.ndim][i] for i in np.flatnonzero(table).tolist()]:
            out.append(tail.join(hits) + tail)
    return "".join(out) + _format_rows(more, fmt)


def _git_blob_hash(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def _manifest_path(args) -> str:
    if args.run_manifest:
        return args.run_manifest
    if args.out:
        return args.out + ".manifest.json"
    return "manifest.json"


# ---------------------------------------------------------------------------
# argument coercion
# ---------------------------------------------------------------------------


def _seed(args) -> SeedKey:
    try:
        return SeedKey.from_hex(args.seed)
    except ValueError as exc:
        raise UsageError(f"bad --seed: {exc}")


def _sampler(args):
    try:
        return parse_sampler_spec(args.sampler)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad --sampler {args.sampler!r}: {exc}")


def _formula(text: str, signature: Signature):
    try:
        return _qf_from_tree(parse_sexpr(text), signature)
    except ValueError as exc:  # SexprError, MorleyError and LogicError among them
        quoted = repr(text[:60]) + ("..." if len(text) > 60 else "")  # one short line, however long
        raise UsageError(f"bad formula {quoted}: {exc}")


def _int_at_least(low: int):
    """argparse type: an int no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # named in argparse's "invalid int value" message
    return parse


def _finite_float(low: float = -math.inf, high: float = math.inf, low_open: bool = False):
    """argparse type: a finite float in [low, high], or in (low, high] when low_open."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
        if value < low or (low_open and value == low) or value > high:
            bounds = f"{'(' if low_open else '['}{low}, {high}]"
            raise argparse.ArgumentTypeError(f"must be in {bounds}, got {value}")
        return value

    parse.__name__ = "float"  # named in argparse's "invalid float value" message
    return parse


def _int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split())
    except ValueError as exc:
        raise UsageError(f"bad {what} {text!r}: {exc}")


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, output_text)
# ---------------------------------------------------------------------------


def _cmd_sample(args):
    return EXIT_OK, _facts_text(sample(_sampler(args), args.n, _seed(args)), args.format)


def _cmd_estimate(args):
    sampler = _sampler(args)
    phi = _formula(args.phi, sampler.signature)
    report = estimate_measure(sampler, phi, args.trials, _seed(args))
    return EXIT_OK, _format_rows([report.row()], args.format)


def _cmd_dissoc(args):
    sampler = _sampler(args)
    phi = _formula(args.phi, sampler.signature)
    psi = _formula(args.psi, sampler.signature)
    seed = _seed(args)
    rep = dissociation_test(sampler, phi, psi, args.trials, seed)
    gap = StatReport("gap", rep.gap, rep.gap_stderr, args.trials, seed, rep.z)
    rows = [rep.joint.row(), rep.marginal_a.row(), rep.marginal_b.row(), gap.row()]
    code = EXIT_FLAG if abs(rep.z) > args.z_limit else EXIT_OK
    return code, _format_rows(rows, args.format)


def _cmd_invariance(args):
    sampler = _sampler(args)
    phi = _formula(args.phi, sampler.signature)
    seed = _seed(args)
    try:
        sigma = Permutation(_int_list(args.sigma, "--sigma"))
        rep = invariance_test(sampler, phi, sigma, args.trials, seed)
    except LogicError as exc:
        raise UsageError(f"bad --sigma: {exc}")
    gap = StatReport("gap", rep.gap, rep.gap_stderr, args.trials, seed, rep.z)
    rows = [rep.at_identity.row(), rep.at_permuted.row(), gap.row()]
    code = EXIT_FLAG if abs(rep.z) > args.z_limit else EXIT_OK
    return code, _format_rows(rows, args.format)


def _cmd_coherence(args):
    sampler = _sampler(args)
    if args.m > args.n:
        raise UsageError("need -m <= -n")
    rep = coherence_check(sampler, args.n, args.m, args.trials, _seed(args))
    rows: list[dict] = [
        {
            "sampler": rep.sampler,
            "n": rep.n,
            "m": rep.m,
            "trials": rep.trials,
            "failures": len(rep.failures),
        }
    ]
    rows += [
        {
            "trial": f.trial,
            "seed_hex": f.seed_hex,
            "condition": f.condition,
            "sigma": list(f.sigma) if f.sigma else None,
        }
        for f in rep.failures
    ]
    return (EXIT_OK if rep.passed else EXIT_VIOLATION), _format_rows(rows, args.format)


def _cmd_collide(args):
    sampler = _sampler(args)
    seed = _seed(args)
    rep = collision_stat(sampler, args.n, args.trials, seed)
    rows = [rep.row()]
    code = EXIT_OK
    if args.expect is not None:
        gap = float(rep.estimate) - args.expect
        dev = StatReport("deviation", gap, rep.stderr, args.trials, seed, z_score(gap, rep.stderr))
        rows.append(dev.row())
        if abs(dev.z) > args.z_limit:
            code = EXIT_FLAG
    return code, _format_rows(rows, args.format)


def _cmd_roots(args):
    sampler = _sampler(args)
    M = sample(sampler, args.n, _seed(args))
    chi = _formula(args.chi, sampler.signature)
    sub = None
    if args.sub is not None:
        sub = _int_list(args.sub, "--sub")
        bad = [s for s in sub if not 0 <= s < len(M.signature)]
        if bad:
            raise UsageError(f"--sub indices out of signature range: {bad}")
    rep = rootedness_check(M, chi, sub)
    rows = [r.row() for r in rep.reports]
    rows.append(
        {
            "summary": True,
            "passed": rep.passed,
            "fingerprints": len(rep.reports),
            "failures": len(rep.failures),
        }
    )
    return (EXIT_OK if rep.passed else EXIT_VIOLATION), _format_rows(rows, args.format)


def _cmd_postypes(args):
    sampler = _sampler(args)
    rep = estimate_positive_types(sampler, args.arity, args.epsilon, args.trials, _seed(args))
    rows = [
        {"bits": fp.bits, "arity": fp.arity, "frequency": float(freq)}
        for fp, freq in rep.entries
    ]
    rows.append(
        {
            "covered": float(rep.covered),
            "covered_stderr": rep.covered_stderr,
            "entries": len(rep.entries),
            "epsilon": float(rep.epsilon),
        }
    )
    return EXIT_OK, _format_rows(rows, args.format)


def _parse_base_spec(text: str) -> Signature:
    symbols = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, arity = part.partition("/")
        if not arity:
            raise UsageError(f"bad --base entry {part!r}: want name/arity")
        try:
            symbols.append((name, int(arity)))
        except ValueError as exc:
            raise UsageError(f"bad --base entry {part!r}: {exc}")
    if not symbols:
        raise UsageError("--base names no symbols")
    try:
        return Signature(tuple(symbols))
    except LogicError as exc:
        raise UsageError(f"bad --base: {exc}")


def _cmd_morleyize(args):
    if not args.fragment and not args.sentence:
        raise UsageError("need --fragment FILE or at least one --sentence")
    base = _parse_base_spec(args.base)
    texts: list = []
    try:
        if args.fragment:
            texts += parse_many(Path(args.fragment).read_text())
        texts += [parse_sexpr(s) for s in args.sentence]
        sentences = [fragment_from_tree(t) for t in texts]
        result = morleyize(sentences, base)
    except OSError as exc:
        raise UsageError(f"cannot read --fragment: {exc}")
    except (SexprError, MorleyError) as exc:
        raise UsageError(str(exc))
    return EXIT_OK, result_to_json(result) + "\n"


def _cmd_build_limit(args):
    try:
        handle = build_limit(args.stages, _seed(args), base_depth=args.base_depth)
    except LimitError as exc:
        doc = {"kind": "build-limit-error", "error": str(exc)}
        return EXIT_VIOLATION, json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return EXIT_OK, manifest_json(handle) + "\n"


def _load_build_manifest(path: str):
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read --manifest: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"--manifest is not JSON: {exc}")
    try:
        return handle_from_manifest(doc)
    except (LimitError, KeyError, TypeError) as exc:
        raise UsageError(f"bad build manifest: {exc}")


def _cmd_limit_sample(args):
    handle = _load_build_manifest(args.manifest)
    try:
        samp = sample_structure(handle, args.n, args.depth, _seed(args))
    except SeparationError as exc:
        rows = [{"error": str(exc), "pair": list(exc.pair)}]
        return EXIT_VIOLATION, _format_rows(rows, args.format)
    audits = []
    code = EXIT_OK
    if not args.no_audit:
        axioms = materialized_universal_axioms(handle.theory, samp.symbol_ids)
        bad = sum(not snapshot_axiom_holds(samp, ax) for ax in axioms)
        omitted = type_omitted_in_sample(samp, handle.theory)
        fps = unary_fingerprints(samp)
        distinct = len(set(fps)) == len(fps)
        audits = [
            {"audit": "universal-axioms", "checked": len(axioms), "passed": bad == 0},
            {"audit": "qtype-omitted", "passed": omitted},
            {"audit": "unary-types-distinct", "passed": distinct},
        ]
        if bad or not omitted or not distinct:
            code = EXIT_VIOLATION
    return code, _facts_text(samp.structure, args.format, audits)


def _cmd_rescale(args):
    handle = _load_build_manifest(args.manifest)
    stage = args.stage if args.stage is not None else handle.depth
    depth = args.depth if args.depth is not None else handle.depth
    seed = _seed(args)
    try:
        weight = weight_preset(handle, args.preset, stage)
        scaled = rescale(handle, weight)
    except LimitError as exc:
        rows = [{"error": str(exc)}]
        return EXIT_VIOLATION, _format_rows(rows, args.format)
    base_est = estimate_marginal(handle, args.level, args.trials, seed.child("base"), depth)
    resc_est = estimate_marginal(scaled, args.level, args.trials, seed.child("rescaled"), depth)
    base_err = binomial_stderr(base_est, args.trials)
    resc_err = binomial_stderr(resc_est, args.trials)
    gap_err = math.hypot(base_err, resc_err)
    rows = [
        StatReport("marginal-base", base_est, base_err, args.trials, seed).row(),
        StatReport("marginal-rescaled", resc_est, resc_err, args.trials, seed).row(),
        StatReport("gap", resc_est - base_est, gap_err, args.trials, seed).row(),
    ]
    return EXIT_OK, _format_rows(rows, args.format)


# ---------------------------------------------------------------------------
# parser assembly
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", default=DEFAULT_SEED, help="128-bit hex master seed")
    common.add_argument("--out", default=None, help="write output here instead of stdout")
    common.add_argument("--format", choices=("jsonl", "csv"), default="jsonl")
    common.add_argument(
        "--run-manifest",
        default=None,
        help="run-manifest path (default: <out>.manifest.json, or manifest.json)",
    )

    parser = _Parser(prog="ergodic", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, trials=False, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(func=func)
        if trials:
            p.add_argument("--trials", type=_int_at_least(1), default=1000)
        return p

    p = add("sample", _cmd_sample,
            help="sample one finite structure; one row per fact, in (symbol index, args) order")
    p.add_argument("--sampler", required=True)
    p.add_argument("-n", type=_int_at_least(0), required=True)

    p = add("estimate", _cmd_estimate, trials=True, help="Monte Carlo measure of a qf event")
    p.add_argument("--sampler", required=True)
    p.add_argument("--phi", required=True, help='s-expr, e.g. "(rel R0 x0 x1)"')

    p = add("dissoc", _cmd_dissoc, trials=True, help="joint-vs-product audit on disjoint tuples")
    p.add_argument("--sampler", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--psi", required=True)
    p.add_argument("--z-limit", type=_finite_float(0.0), default=3.0)

    p = add("invariance", _cmd_invariance, trials=True,
            help="compare an event at a permuted tuple")
    p.add_argument("--sampler", required=True)
    p.add_argument("--phi", required=True)
    p.add_argument("--sigma", required=True, help='permutation image, e.g. "1 0 2"')
    p.add_argument("--z-limit", type=_finite_float(0.0), default=3.0)

    p = add("coherence", _cmd_coherence, trials=True, help="exact restriction/equivariance check")
    p.add_argument("--sampler", required=True)
    p.add_argument("-n", type=_int_at_least(0), default=5)
    p.add_argument("-m", type=_int_at_least(0), default=3)

    p = add("collide", _cmd_collide, trials=True, help="two-block fingerprint collision rate")
    p.add_argument("--sampler", required=True)
    p.add_argument("-n", type=_int_at_least(1), default=1)
    p.add_argument("--expect", type=_finite_float(), default=None)
    p.add_argument("--z-limit", type=_finite_float(0.0), default=3.0)

    p = add("roots", _cmd_roots, help="rootedness sweep over one sampled structure")
    p.add_argument("--sampler", required=True)
    p.add_argument("-n", type=_int_at_least(0), required=True)
    p.add_argument("--chi", default="(not (eq x0 x1))")
    p.add_argument("--sub", default=None, help='sublanguage indices, e.g. "0 1"')

    p = add("postypes", _cmd_postypes, trials=True, help="positive-frequency fingerprint spectrum")
    p.add_argument("--sampler", required=True)
    p.add_argument("--arity", type=_int_at_least(0), required=True)
    p.add_argument("--epsilon", type=_finite_float(0.0, 1.0, low_open=True), default=0.05)

    p = add("morleyize", _cmd_morleyize, help="emit defining axioms for a fragment")
    p.add_argument("--base", required=True, help='base signature, e.g. "P/1,E/2"')
    p.add_argument("--fragment", default=None, help="file of sentences, one s-expr each")
    p.add_argument("--sentence", action="append", default=[], help="inline sentence s-expr")

    p = add("build-limit", _cmd_build_limit, help="run the staged limit construction")
    p.add_argument("--stages", type=_int_at_least(1), required=True)
    p.add_argument("--base-depth", type=_int_at_least(2), default=4)

    p = add("limit-sample", _cmd_limit_sample, help="sample points of a built limit")
    p.add_argument("--manifest", required=True, help="build manifest from build-limit")
    p.add_argument("-n", type=_int_at_least(0), required=True)
    p.add_argument("--depth", type=_int_at_least(0), required=True)
    p.add_argument("--no-audit", action="store_true")

    p = add("rescale", _cmd_rescale, trials=True,
            help="reweight a built limit and compare marginals")
    p.add_argument("--manifest", required=True)
    p.add_argument("--preset", required=True, choices=WEIGHT_PRESETS)
    p.add_argument("--stage", type=_int_at_least(0), default=None)
    p.add_argument("--level", type=_int_at_least(0), default=0)
    p.add_argument("--depth", type=_int_at_least(0), default=None)

    return parser


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_SKIP_CONFIG_KEYS = {"func", "command", "out", "run_manifest"}


def _run_manifest_doc(argv, args, code: int, outputs: dict[str, str]) -> dict:
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in _SKIP_CONFIG_KEYS
    }
    return {
        "kind": "run-manifest",
        "command": args.command,
        "argv": list(argv),
        "seed": args.seed,
        "config": config,
        "hash_algorithm": "git-blob-sha1",
        "outputs": outputs,
        "exit_code": code,
    }


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, text = args.func(args)
    except (UsageError, CeilingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    data = text.encode()
    out_name = args.out or "-"
    if args.out:
        Path(args.out).write_bytes(data)
    else:
        sys.stdout.write(text)
    doc = _run_manifest_doc(argv, args, code, {out_name: _git_blob_hash(data)})
    Path(_manifest_path(args)).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return code


def replay(manifest_path) -> bool:
    """Re-run a recorded invocation and compare output hashes byte-for-byte."""
    doc = json.loads(Path(manifest_path).read_text())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(doc["argv"]))
    if code != doc["exit_code"]:
        return False
    for name, want in doc["outputs"].items():
        data = buf.getvalue().encode() if name == "-" else Path(name).read_bytes()
        if _git_blob_hash(data) != want:
            return False
    return True


if __name__ == "__main__":
    sys.exit(main())
