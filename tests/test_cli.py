"""End-to-end command-line coverage: exit codes, formats, manifests, replay."""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from ergodic import cli, limits
from ergodic.cli import main, replay
from ergodic.engine import sample
from ergodic.gallery import parse_sampler_spec
from ergodic.logic import FiniteStructure, Signature, fingerprint_tables, qf_fingerprint
from ergodic.seeds import SeedKey

SEED_ARGS = ["--seed", "00112233445566778899aabbccddeeff"]


def nested_not(depth: int, atom: str) -> str:
    """`atom` under depth - 1 negations: parentheses nest `depth` deep."""
    return "(not " * (depth - 1) + atom + ")" * (depth - 1)


@pytest.fixture(autouse=True)
def _in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def jsonl_rows(text):
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def git_blob(data: bytes) -> str:
    return hashlib.sha1(b"blob %d\x00" % len(data) + data).hexdigest()


def test_sample_jsonl(capsys):
    code, out = run(capsys, ["sample", "--sampler", "maxgraph:d=3", "-n", "5", *SEED_ARGS])
    assert code == 0
    rows = jsonl_rows(out)
    assert rows
    assert all(set(r) == {"symbol", "args"} for r in rows)
    assert all(0 <= a < 5 for r in rows for a in r["args"])


@pytest.mark.parametrize("spec", ["kaleidoscope:k=2,d=8", "kaleidoscope:k=3,d=8", "maxgraph:d=16",
                                  "geometric:dim=2,norm=sup,p=0.5", "blowup:d=3", "digraph:d=3",
                                  "bipartite:i=2,j=2", "mixture:p1=0.1,p2=0.9"])
def test_sample_rows_come_in_sorted_fact_order(capsys, spec):
    code, out = run(capsys, ["sample", "--sampler", spec, "-n", "8", *SEED_ARGS])
    assert code == 0
    M = sample(parse_sampler_spec(spec), 8, SeedKey.from_hex(SEED_ARGS[1]))
    want = "".join(
        json.dumps({"symbol": M.signature.name(sym), "args": list(t)}, sort_keys=True) + "\n"
        for sym, t in sorted(M.facts)
    )
    assert out == want


def test_fact_rows_cover_every_arity():
    # a 0-ary symbol, and symbols of arity 1-3, on 4 points
    sig = Signature((("Z", 0), ("P", 1), ("E", 2), ("T", 3)))
    facts = {(0, ()), (1, (3,)), (2, (0, 3)), (2, (3, 0)), (3, (1, 0, 2)), (3, (3, 3, 3))}
    M = FiniteStructure(sig, 4, frozenset(facts))
    tables = fingerprint_tables(qf_fingerprint(M, tuple(range(4))))
    read = FiniteStructure.from_tables(sig, 4, tables)
    rows = [{"symbol": sig.name(sym), "args": list(t)} for sym, t in sorted(M.facts)]
    more = [{"audit": "x", "passed": True}]
    for fmt in ("jsonl", "csv"):
        assert cli._facts_text(read, fmt, more) == cli._format_rows(rows + more, fmt)


def test_estimate_stdout_and_manifest(capsys):
    code, out = run(
        capsys,
        ["estimate", "--sampler", "kaleidoscope:k=2,d=1", "--phi", "(rel R0 x0 x1)",
         "--trials", "400", *SEED_ARGS],
    )
    assert code == 0
    (row,) = jsonl_rows(out)
    assert abs(row["estimate"] - 0.5) < 5 * row["stderr"] + 1e-9
    doc = json.loads(Path("manifest.json").read_text())
    assert doc["kind"] == "run-manifest"
    assert doc["exit_code"] == 0
    assert doc["outputs"] == {"-": git_blob(out.encode())}


def test_estimate_csv_to_file(capsys):
    code, out = run(
        capsys,
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)",
         "--trials", "200", "--format", "csv", "--out", "est.csv", *SEED_ARGS],
    )
    assert code == 0 and out == ""
    text = Path("est.csv").read_text()
    assert text.splitlines()[0].count("estimate") == 1
    doc = json.loads(Path("est.csv.manifest.json").read_text())
    assert doc["outputs"]["est.csv"] == git_blob(Path("est.csv").read_bytes())


@pytest.mark.parametrize(
    "argv",
    [
        ["no-such-command"],
        ["sample", "--sampler", "maxgraph:d=3"],  # missing -n
        ["sample", "--sampler", "nonsense:d=3", "-n", "4"],
        ["sample", "--sampler", "bipartite:i=1,j=1,i=2", "-n", "4"],  # a repeated key
        ["sample", "--sampler", "maxgraph:d=3", "-n", "4", "--seed", "xyz"],
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R9 x0 x1)"],
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0"],
        ["build-limit", "--guide", "bogus", "--stages", "3"],
        ["rescale", "--manifest", "absent.json", "--preset", "p0-heavy"],
        # out-of-range numbers
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)", "--trials", "0"],
        ["sample", "--sampler", "maxgraph:d=3", "-n", "-1"],
        ["collide", "--sampler", "maxgraph:d=3", "-n", "0"],
        ["coherence", "--sampler", "maxgraph:d=3", "-m", "-1"],
        ["postypes", "--sampler", "maxgraph:d=3", "--arity", "-2"],
        ["build-limit", "--stages", "0"],
        ["build-limit", "--stages", "3", "--base-depth", "1"],
        ["build-limit", "--stages", "40"],  # past the stage ceiling
        # --trials only on the subcommands that read it
        ["build-limit", "--stages", "3", "--trials", "7"],
        # formula arity differs from the symbol's
        ["estimate", "--sampler", "bipartite:i=2,j=2", "--phi", "(rel P x0 x1)"],
        ["estimate", "--sampler", "kaleidoscope:k=3,d=1", "--phi", "(rel R0 x0 x1)"],
        # variables are x followed by a canonical decimal
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 q0 x1)"],
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x+1)"],
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(eq x0 x-1)"],
        # a permutation on fewer points than the formula uses
        ["invariance", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)", "--sigma", "0"],
        # non-finite floats
        ["postypes", "--sampler", "blowup:d=3", "--arity", "1", "--epsilon", "nan"],
        ["postypes", "--sampler", "blowup:d=3", "--arity", "1", "--epsilon", "inf"],
        ["collide", "--sampler", "maxgraph:d=3", "--expect", "nan"],
        ["collide", "--sampler", "maxgraph:d=3", "--z-limit", "inf"],
        ["dissoc", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)",
         "--psi", "(rel R1 x0 x1)", "--z-limit", "nan"],
        ["invariance", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)", "--sigma", "1 0",
         "--z-limit", "nan"],
        # out-of-range floats: a negative z limit, an epsilon outside (0, 1]
        ["collide", "--sampler", "maxgraph:d=3", "--z-limit", "-1"],
        ["dissoc", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)",
         "--psi", "(rel R1 x0 x1)", "--z-limit", "-0.5"],
        ["postypes", "--sampler", "blowup:d=3", "--arity", "1", "--epsilon", "-1"],
        ["postypes", "--sampler", "blowup:d=3", "--arity", "1", "--epsilon", "0"],
        ["postypes", "--sampler", "blowup:d=3", "--arity", "1", "--epsilon", "1.5"],
        # a scheme's prefix length is a canonical positive decimal
        ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence",
         "(forall x (schemeAnd n 0_3 (rel (P n) x)))"],
        ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence",
         "(forall x (schemeAnd n +3 (rel (P n) x)))"],
        ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence",
         "(forall x (schemeAnd n 03 (rel (P n) x)))"],
        ["morleyize", "--base", "P0/1,P1/1,P2/1", "--sentence",
         "(forall x (schemeAnd n 0 (rel (P n) x)))"],
        # parentheses nested past the reader's bound
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", nested_not(1200, "(rel R0 x0 x1)")],
        ["morleyize", "--base", "P0/1", "--sentence",
         f"(forall x {nested_not(1200, '(rel P0 x)')})"],
        # work past a size ceiling, refused before the first draw
        ["sample", "--sampler", "kaleidoscope:k=6,d=2", "-n", "30"],
        ["sample", "--sampler", "kaleidoscope:k=4,d=1", "-n", "60"],  # C(60, 4) subset masks
        ["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x99999)"],
        ["roots", "--sampler", "kaleidoscope:k=2,d=3", "-n", "30", "--chi", "(rel R0 x0 x7)"],
        # a preset outside the list, on a manifest that loads
        ["rescale", "--manifest", "built.json", "--preset", "bogus"],
        # a build manifest that is a JSON list, whose seed is not 32 hex digits,
        # or whose stage count is not the number of stages it describes
        ["limit-sample", "--manifest", "list.json", "-n", "4", "--depth", "6"],
        ["rescale", "--manifest", "list.json", "--preset", "p0-heavy"],
        ["limit-sample", "--manifest", "bad-seed.json", "-n", "4", "--depth", "6"],
        ["rescale", "--manifest", "bad-seed.json", "--preset", "p0-heavy"],
        ["limit-sample", "--manifest", "int-seed.json", "-n", "4", "--depth", "6"],
        ["limit-sample", "--manifest", "half-stage.json", "-n", "4", "--depth", "6"],
    ],
)
def test_usage_errors_exit_3(capsys, argv):
    if "--manifest" in argv:
        doc = json.loads(limits.manifest_json(limits.build_limit(6, SeedKey(1))))
        for name, text in [("built.json", doc), ("list.json", [doc]),
                           ("bad-seed.json", {**doc, "seed": "zz" + doc["seed"][2:]}),
                           ("int-seed.json", {**doc, "seed": 5}),
                           ("half-stage.json", {**doc, "stages": 6.5})]:
            Path(name).write_text(json.dumps(text))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and err.count("\n") == 1


def test_a_bad_formula_is_quoted_by_its_prefix(capsys):
    phi = nested_not(1200, "(rel R0 x0 x1)")  # 7,262 characters
    code = main(["estimate", "--sampler", "maxgraph:d=2", "--phi", phi, *SEED_ARGS])
    err = capsys.readouterr().err
    assert code == 3 and err.count("\n") == 1
    assert len(err) < 200 and repr(phi[:60]) + "..." in err
    code = main(["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R9 x0 x1)", *SEED_ARGS])
    assert code == 3 and "'(rel R9 x0 x1)':" in capsys.readouterr().err


@pytest.mark.parametrize(
    "phi, named",
    [
        ("(eq x0 x1 x2)", "(eq x y) needs two variables"),
        ("(not (eq x0 x1) (rel R0 x0 x1))", "(not form) needs one subformula"),
        ("()", "empty form"),
        ("(not)", "(not form) needs one subformula"),
        ("(eq x0)", "(eq x y) needs two variables"),
        ("x0", "bare token 'x0' is not a formula"),
    ],
)
def test_a_misshapen_formula_exits_3_naming_its_form(capsys, phi, named):
    code = main(["estimate", "--sampler", "maxgraph:d=2", "--phi", phi, *SEED_ARGS])
    err = capsys.readouterr().err
    assert code == 3 and err.count("\n") == 1
    assert err.startswith(f"error: bad formula {phi!r}: {named}")


def test_formulas_nested_to_the_bound_still_run(capsys):
    phi = nested_not(100, "(rel R0 x0 x1)")
    code, out = run(capsys, ["estimate", "--sampler", "maxgraph:d=2", "--phi", phi,
                             "--trials", "20", *SEED_ARGS])
    assert code == 0 and jsonl_rows(out)[0]["statistic"] == "measure"
    sentence = f"(forall x {nested_not(99, '(rel P0 x)')})"
    code, out = run(capsys, ["morleyize", "--base", "P0/1", "--sentence", sentence])
    assert code == 0 and json.loads(out)["axioms"]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--sampler", "kaleidoscope:k=3,d=8", "-n", "30"],
        ["roots", "--sampler", "kaleidoscope:k=2,d=8", "-n", "30"],
        ["roots", "--sampler", "maxgraph:d=16", "-n", "30"],
        ["roots", "--sampler", "maxgraph:d=16", "-n", "30", "--chi", "(rel R0 x0 x2)"],
    ],
)
def test_benchmark_sizes_stay_under_the_ceilings(capsys, argv):
    code, _ = run(capsys, [*argv, *SEED_ARGS])
    assert code in (0, 2)
    assert capsys.readouterr().err == ""


# the seed as typed: upper case, with a leading space
LOOSE_SEED = ["--seed", " 00112233445566778899AABBCCDDEEFF"]


@pytest.mark.parametrize(
    "argv",
    [
        ["dissoc", "--sampler", "kaleidoscope:k=2,d=3", "--phi", "(rel R0 x0 x1)",
         "--psi", "(rel R1 x0 x1)", "--trials", "200"],
        ["invariance", "--sampler", "digraph:d=3", "--phi", "(rel R x0 x1)", "--sigma", "1 0",
         "--trials", "200"],
        ["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2", "--expect", "0.25",
         "--trials", "200"],
        ["rescale", "--manifest", "b3.json", "--preset", "p0-heavy", "--trials", "200"],
    ],
)
def test_every_statistic_row_prints_the_canonical_seed(capsys, argv):
    run(capsys, ["build-limit", "--stages", "3", "--out", "b3.json", *SEED_ARGS])
    code, out = run(capsys, [*argv, *LOOSE_SEED])
    assert code == 0
    rows = jsonl_rows(out)
    assert len(rows) >= 2
    assert all(r["seed_hex"] == SEED_ARGS[1] for r in rows)


@pytest.mark.parametrize(
    "argv",
    [
        ["limit-sample", "--manifest", "b3.json", "-n", "4", "--depth", "40"],
        ["rescale", "--manifest", "b3.json", "--preset", "p0-heavy", "--depth", "40"],
        ["rescale", "--manifest", "b3.json", "--preset", "p0-heavy", "--stage", "40"],
    ],
)
def test_depth_past_the_stage_ceiling_exits_3(capsys, argv):
    run(capsys, ["build-limit", "--stages", "3", "--out", "b3.json", *SEED_ARGS])
    code = main([*argv, *SEED_ARGS])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "ceiling" in err and err.count("\n") == 1


def test_more_points_than_any_stage_holds_exits_3(capsys):
    # 2^22 points fit in no stage up to the ceiling: refused before any point is drawn
    run(capsys, ["build-limit", "--stages", "3", "--out", "b3.json", *SEED_ARGS])
    code = main(["limit-sample", "--manifest", "b3.json", "-n", "4194304", "--depth", "1",
                 *SEED_ARGS])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("error:") and "ceiling" in err and err.count("\n") == 1
    assert "Traceback" not in err


def test_collide_flags_bad_expectation(capsys):
    base = ["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2",
            "--trials", "1500", *SEED_ARGS]
    code, out = run(capsys, [*base, "--expect", "0.25"])
    assert code == 0
    code, out = run(capsys, [*base, "--expect", "0.5"])
    assert code == 1
    dev = [r for r in jsonl_rows(out) if r["statistic"] == "deviation"]
    assert dev and abs(dev[0]["z"]) > 3.0


def test_roots_exit_codes(capsys):
    code, _ = run(capsys, ["roots", "--sampler", "maxgraph:d=12", "-n", "16", *SEED_ARGS])
    assert code == 0
    code, out = run(capsys, ["roots", "--sampler", "kaleidoscope:k=2,d=2", "-n", "16", *SEED_ARGS])
    assert code == 2
    assert any(not r["rooted"] for r in jsonl_rows(out))


def test_dissoc_flags_mixture(capsys):
    code, out = run(
        capsys,
        ["dissoc", "--sampler", "mixture:p1=0.1,p2=0.9", "--phi", "(rel R0 x0 x1)",
         "--psi", "(rel R0 x0 x1)", "--trials", "2000", *SEED_ARGS],
    )
    assert code == 1
    code, _ = run(
        capsys,
        ["dissoc", "--sampler", "kaleidoscope:k=2,d=3", "--phi", "(rel R0 x0 x1)",
         "--psi", "(rel R0 x0 x1)", "--trials", "2000", *SEED_ARGS],
    )
    assert code == 0


def test_invariance_symmetric_formula_is_exact(capsys):
    # R0 is symmetric, so swapping the pair changes nothing draw by draw
    code, out = run(
        capsys,
        ["invariance", "--sampler", "geometric:dim=1,norm=sup,p=0.5",
         "--phi", "(rel R0 x0 x1)", "--sigma", "1 0", "--trials", "800", *SEED_ARGS],
    )
    assert code == 0
    (row,) = [r for r in jsonl_rows(out) if r["statistic"] == "gap"]
    assert row["estimate"] == 0.0
    assert row["z"] == 0.0


def test_coherence_and_postypes(capsys):
    code, _ = run(capsys, ["coherence", "--sampler", "bipartite:i=2,j=2", "-n", "4",
                           "-m", "2", "--trials", "40", *SEED_ARGS])
    assert code == 0
    code, out = run(capsys, ["postypes", "--sampler", "blowup:d=2", "--arity", "1",
                             "--trials", "600", *SEED_ARGS])
    assert code == 0
    rows = jsonl_rows(out)
    freqs = [r["frequency"] for r in rows if "frequency" in r]
    (summary,) = [r for r in rows if "covered" in r]
    assert len(freqs) == 3
    assert sum(freqs) == pytest.approx(1.0, abs=1e-12)
    assert summary["covered"] == 1.0


def test_morleyize_single_doc(capsys):
    code, out = run(
        capsys,
        ["morleyize", "--base", "R/2",
         "--sentence", "(forall x (exists y (rel R x y)))", *SEED_ARGS],
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"axioms", "base", "qtypes", "table"}
    assert len(doc["axioms"]) == 4
    assert [a["prefix"] for a in doc["axioms"]] == ["AA", "AAE", "AE", ""]
    assert doc["table"][-1]["arity"] == 0


def test_build_limit_sample_rescale_pipeline(capsys):
    code, _ = run(capsys, ["build-limit", "--stages", "5", "--out", "build.json", *SEED_ARGS])
    assert code == 0
    doc = json.loads(Path("build.json").read_text())
    assert len(doc["stage_summaries"]) == 6  # stages 0..5

    code, out = run(capsys, ["limit-sample", "--manifest", "build.json", "-n", "4",
                             "--depth", "10", *SEED_ARGS])
    assert code == 0
    rows = jsonl_rows(out)
    audits = [r for r in rows if "audit" in r]
    assert len(audits) == 3
    assert all(r["passed"] for r in audits)

    code, out = run(capsys, ["rescale", "--manifest", "build.json", "--preset", "p0-heavy",
                             "--trials", "300", *SEED_ARGS])
    assert code == 0
    stats = {r["statistic"] for r in jsonl_rows(out)}
    assert {"marginal-base", "marginal-rescaled", "gap"} <= stats


def test_limit_sample_audit_failure_exits_2(capsys, monkeypatch):
    run(capsys, ["build-limit", "--stages", "5", "--out", "b5.json", *SEED_ARGS])
    argv = ["limit-sample", "--manifest", "b5.json", "-n", "4", "--depth", "5", *SEED_ARGS]
    # these points first separate at level 7, so the snapshot reads there,
    # over that level's language, and every audit passes
    code, out = run(capsys, argv)
    assert code == 0
    assert all(r["passed"] for r in jsonl_rows(out) if "audit" in r)
    # a failed audit exits 2; --no-audit skips the audits
    monkeypatch.setattr(cli, "type_omitted_in_sample", lambda samp, theory: False)
    code, out = run(capsys, argv)
    assert code == 2
    assert any(r.get("passed") is False for r in jsonl_rows(out) if "audit" in r)
    code, _ = run(capsys, [*argv, "--no-audit"])
    assert code == 0


def test_failed_build_names_the_witness_in_its_error_document(capsys, monkeypatch):
    audit = limits.stage_invariants

    def tampered(prev, nxt, guide):
        report = audit(prev, nxt, guide)
        if report.k < 3:
            return report
        return dataclasses.replace(report, type_preservation_ok=False, type_witness=(0, (1, 4)))

    monkeypatch.setattr(limits, "stage_invariants", tampered)
    code, out = run(capsys, ["build-limit", "--stages", "4", *SEED_ARGS])
    assert code == 2
    assert json.loads(out) == {
        "kind": "build-limit-error",
        "error": "stage 3 failed its exact checks:"
                 " type_preservation (copy 4 departs from origin 1 at level 0)",
    }


@pytest.mark.parametrize(
    "argv,manifest",
    [
        (["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)",
          "--trials", "150"], "manifest.json"),
        (["build-limit", "--stages", "4", "--out", "rb.json"], "rb.json.manifest.json"),
        (["morleyize", "--base", "P/1", "--sentence", "(exists x (rel P x))"],
         "manifest.json"),
        (["collide", "--sampler", "kaleidoscope:k=2,d=2", "-n", "2", "--trials", "200"],
         "manifest.json"),
    ],
)
def test_replay_reproduces_runs(capsys, argv, manifest):
    main([*argv, *SEED_ARGS])
    capsys.readouterr()
    assert replay(manifest)


def test_replay_pipeline_commands(capsys):
    main(["build-limit", "--stages", "4", "--out", "p.json", *SEED_ARGS])
    main(["limit-sample", "--manifest", "p.json", "-n", "4", "--depth", "4",
          "--out", "pts.jsonl", *SEED_ARGS])
    main(["rescale", "--manifest", "p.json", "--preset", "p0-light", "--trials", "200",
          "--out", "resc.jsonl", *SEED_ARGS])
    capsys.readouterr()
    assert replay("pts.jsonl.manifest.json")
    assert replay("resc.jsonl.manifest.json")


def test_one_parser_serves_every_call_in_a_process(capsys):
    # a functools cache, so emptying the package's caches rebuilds it
    assert callable(cli.build_parser.cache_clear)
    assert cli.build_parser() is cli.build_parser()
    morley = ["morleyize", "--base", "P/1"]
    assert main([*morley, "--sentence", "(exists x (rel P x))"]) == 0
    assert main(morley) == 3  # no sentence is left over from the call before
    argv = ["sample", "--sampler", "maxgraph:d=16", "-n", "30", *SEED_ARGS]
    assert main(argv[:3]) == 3
    assert main([*argv, "--out", "reused.jsonl"]) == 0
    cli.build_parser.cache_clear()
    assert main([*argv, "--out", "fresh.jsonl"]) == 0
    assert Path("reused.jsonl").read_bytes() == Path("fresh.jsonl").read_bytes()
    main(["roots", "--sampler", "maxgraph:d=16", "-n", "30", "--out", "r.jsonl", *SEED_ARGS])
    capsys.readouterr()
    assert replay("r.jsonl.manifest.json")


def test_replay_detects_tampering(capsys):
    main(["estimate", "--sampler", "maxgraph:d=2", "--phi", "(rel R0 x0 x1)",
          "--trials", "150", "--out", "t.jsonl", *SEED_ARGS])
    capsys.readouterr()
    path = Path("t.jsonl.manifest.json")
    doc = json.loads(path.read_text())
    doc["outputs"]["t.jsonl"] = "0" * 40
    path.write_text(json.dumps(doc))
    assert not replay(path)
