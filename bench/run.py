"""Benchmark of the whole system: one workload per run, in one process.

    python3 bench/run.py --workload mc_audits --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory and nowhere else. The run sets up the workload
(imports, sampler specs, formulas, theories), then repeats the
workload's fixed batch of operations, each round on inputs derived from
(workload, seed, round), until `--seconds` have passed, checking every
output. The program's caches are emptied before each round, so every
round is as cold as a CLI call. The last line of standard output is one
JSON object: `correct`, `attempted`, `failed` and `metrics`. `failed`
counts every wrong output; `correct` is false when one of them is not a
known fault of the program (see Batch.call). With `--trace 0` the
metrics are the end-to-end ones (setup_s, wall_s, peak_rss_mb), with
times in reference seconds (see refclock.py); with
`--trace 1` the per-layer ones, from spans recorded around each module's
public functions (see tracer.py).
"""

from __future__ import annotations

import os
import time


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time.

    The start time has clock-tick resolution (10 ms on Linux). A system
    without /proc/self/stat cannot run the benchmark: setup_s counts
    interpreter start-up, and nothing else here can see it.
    """
    with open("/proc/self/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0)


_AGE_AT_START = _process_age()

from refclock import REF_LOOP_S, RefClock  # noqa: E402

_CLOCK = RefClock()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("mc_audits", "wide_structures", "limit_tree")


def _import_program():
    """Import `ergodic` from this checkout's src/, refusing any other copy."""
    sys.path[:0] = [SRC, HERE]
    import ergodic

    where = os.path.dirname(os.path.abspath(ergodic.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"ergodic was imported from {where}, not from {SRC}")
    from ergodic import cli, engine, fixtures, gallery, limits, logic, morley, seeds, sexpr, stats  # noqa: F401


def _clear_program_caches() -> None:
    """Empty the program's module-level caches (`functools.lru_cache`).

    A CLI call starts a new process and fills them again; clearing them
    before each round makes every round pay what such a call pays.
    """
    for name, module in list(sys.modules.items()):
        if name == "ergodic" or name.startswith("ergodic."):
            for obj in list(vars(module).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        _CLOCK.stop_ticks()


def _main(argv) -> int:
    args = parse_args(argv)
    if not args.trace:  # in a traced run, ticks inside spans would count as program time
        _CLOCK.start_ticks()
    try:
        _import_program()
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2

    from harness import Batch, Inputs
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS as TABLE

    setup, run_round = TABLE[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    scratch = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(scratch, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        state = setup(args.seed, tmp)
        setup_s = _AGE_AT_START * REF_LOOP_S / _CLOCK.first_loop_s + _CLOCK.now()[1]
        setup_trace = tracer.snapshot() if tracer is not None else None

        walls, refs, attempted, failed, wrong = [], [], 0, 0, 0
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < args.seconds:
            _clear_program_caches()
            batch = Batch(_CLOCK, tracer)
            run_round(state, Inputs(args.workload, args.seed, len(walls)), batch)
            walls.append(batch.wall)
            refs.append(batch.ref)
            attempted += batch.attempted
            failed += batch.failed
            wrong += batch.wrong
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    if tracer is not None:
        values = tracer.per_layer(setup_trace, len(walls))
        tracer.uninstall()
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(refs), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    for label, times in (("wall", walls), ("reference", refs)):
        print(
            f"{args.workload} seed={args.seed}: {len(times)} rounds, round {label} "
            f"min/median/max {min(times):.3f}/{statistics.median(times):.3f}/"
            f"{max(times):.3f} s ({' '.join(f'{t:.3f}' for t in times)})",
            file=sys.stderr,
        )
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
