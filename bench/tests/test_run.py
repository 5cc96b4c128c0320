"""The tracer's spans and counters, and the runner's refusal to run without the program."""

import os
import shutil
import subprocess
import sys

from ergodic import cli, engine, gallery, logic, seeds
from tracer import PER_LAYER, Tracer

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KEY = seeds.SeedKey(7)


def test_tracer_records_spans_and_restores_bindings(tmp_path):
    originals = (engine.estimate_measure, cli.sample, logic.TypeFingerprint.models)
    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.snapshot()
        sampler = gallery.parse_sampler_spec("kaleidoscope:k=2,d=2")
        phi = logic.Rel(0, (0, 1))
        engine.estimate_measure(sampler, phi, 10, KEY)
        out = str(tmp_path / "s.jsonl")
        assert cli.main(["sample", "--sampler", "maxgraph:d=3", "-n", "5", "--out", out]) == 0
        with tracer.paused():
            engine.estimate_measure(sampler, phi, 10, KEY)
        values = tracer.per_layer(setup, 1)
    finally:
        tracer.uninstall()
    assert (engine.estimate_measure, cli.sample, logic.TypeFingerprint.models) == originals
    assert [name for name, _ in PER_LAYER] == list(values)
    assert values["engine.audit_calls"] == 1 and values["engine.trials"] == 10
    assert values["seeds.child_calls"] == 10
    assert values["logic.models_calls"] == 10
    assert values["gallery.type_fn_calls"] == 11  # 10 trials plus one maxgraph sample
    assert values["cli.main_calls"] == 1
    assert values["cli.output_bytes"] == sum(os.path.getsize(p) for p in (out, out + ".manifest.json"))
    assert values["seeds.prf_words"] > 0
    for name, _ in PER_LAYER:
        assert values[name] >= 0


def test_per_layer_counts_setup_once_and_rounds_on_average():
    tracer = Tracer()
    tracer.count("limits.path_levels", 4)
    setup = tracer.snapshot()
    tracer.count("limits.path_levels", 10)
    assert tracer.per_layer(setup, 2)["limits.path_levels"] == 4 + 10 / 2


def test_caches_are_emptied_between_rounds():
    from run import _clear_program_caches

    gallery._orderings(5, 2)
    logic._layout(3, (2,))
    assert gallery._orderings.cache_info().currsize and logic._layout.cache_info().currsize
    _clear_program_caches()
    assert gallery._orderings.cache_info().currsize == 0
    assert logic._layout.cache_info().currsize == 0
    assert seeds._encode_frozenset.cache_info().currsize == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_audits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
