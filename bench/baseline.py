"""Regenerate the baseline table: every workload, untraced and traced.

    python3 bench/baseline.py

Runs the benchmark command of BENCHMARK.json from the checkout root,
with its run length: ten untraced runs per workload (seeds 1..10) and
one traced run (seed 1). It prints Markdown: median and quartiles of
each end-to-end metric with the quartile spread as a share of the
median, the failed share, how much slower each run's first round was
than its median round, the per-layer figures of the traced run, and
the tracing overhead (the traced run's median round minus the untraced
`wall_s`, both in reference seconds; a traced run rescales each call
by the loop's time at its two ends only, since ticks would land inside
spans).
"""

from __future__ import annotations

import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = range(1, 11)
ROUND_LINE = re.compile(r"(\d+) rounds, round reference min/median/max [\d.]+/([\d.]+)/[\d.]+ s \(([\d.]+)")


def run(spec: dict, workload: str, seed: int, trace: int):
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds, median_round, first_round = ROUND_LINE.search(proc.stderr).groups()
    return result, int(rounds), float(median_round), float(first_round)


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    traced = {}
    for w in spec["workloads"]:
        name = w["name"]
        results = [run(spec, name, seed, 0) for seed in SEEDS]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r, *_ in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"| {name} | {m['name']} ({m['unit']}) | {med:.4g} | {q1:.4g} | {q3:.4g} "
                  f"| {(q3 - q1) / med:.3f} | {m['bound']} |")
        shares = {r["failed"] / r["attempted"] for r, *_ in results}
        rounds = [n for _, n, _, _ in results]
        first = [f / m - 1 for _, _, m, f in results]
        print(f"| {name} | failed share | {sorted(shares)} | | | | |")
        print(f"| {name} | rounds per run | {statistics.median(rounds)} | {min(rounds)} "
              f"| {max(rounds)} | | |")
        print(f"| {name} | first round / median round - 1 | {statistics.median(first):+.3f} "
              f"| {min(first):+.3f} | {max(first):+.3f} | | |")
        untraced_wall = statistics.median(r["metrics"]["wall_s"]["value"] for r, *_ in results)
        traced[name] = (run(spec, name, 1, 1), untraced_wall)

    names = [w["name"] for w in spec["workloads"]]
    print()
    print("| per-layer metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in spec["per_layer"]:
        cells = [f"{traced[n][0][0]['metrics'][m['name']]['value']:.4g}" for n in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    cells = []
    for n in names:
        (_, _, traced_round, _), untraced_wall = traced[n]
        cells.append(f"{traced_round - untraced_wall:+.3f} s ({traced_round / untraced_wall - 1:+.0%})")
    print("| tracing overhead (traced minus untraced wall_s) | s | " + " | ".join(cells) + " |")


if __name__ == "__main__":
    main()
