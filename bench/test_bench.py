"""Tests of the benchmark itself.

    python -m pytest bench

The smoke test runs every workload at tiny sizes, plain and traced, and
checks that a corrupted output fails its check (about half a minute on two
cores).
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    json_layers = [(n, u) for n, u in run.PER_LAYER if n not in run.PRINTED_ONLY]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == json_layers


def test_spans_pass_arguments_and_results_through():
    module = types.SimpleNamespace(solve_mean=lambda a, b=2: (a, b, np.arange(3)))
    tracer = Tracer()
    tracer.wrap(module, "solve_mean")
    a, b, arr = module.solve_mean(1, b=5)
    assert (a, b) == (1, 5) and arr.tolist() == [0, 1, 2]
    summary = tracer.summary()
    assert summary["spans"]["pg.solve_mean"]["calls"] == 1
    span = summary["spans"]["pg.solve_mean"]
    assert span["self_s"] == span["incl_s"]


def test_nested_self_times_partition_the_outer_span():
    module = types.SimpleNamespace()
    module.noise_quadratic_form = lambda: sum(range(10000))
    module.rhs_second_moment = lambda: [module.noise_quadratic_form() for _ in range(5)]
    tracer = Tracer()
    tracer.wrap(module, "noise_quadratic_form")
    tracer.wrap(module, "rhs_second_moment")
    module.rhs_second_moment()
    spans = tracer.summary()["spans"]
    outer, inner = spans["pg.rhs_second_moment"], spans["oracle.noise_quadratic_form"]
    assert inner["calls"] == 5
    assert abs(outer["self_s"] + inner["incl_s"] - outer["incl_s"]) < 1e-9


def test_smoke_mode_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "smoke: all workloads passed" in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "wide-n16",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
