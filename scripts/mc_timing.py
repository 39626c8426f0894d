#!/usr/bin/env python3
"""Wall time and memory of `simulate_moments`, the Monte Carlo route.

    python scripts/mc_timing.py [runs]

Four problems, each simulated as `validate` simulates it (`cli._simulate`:
its paths, recording grid and scheme steps): `configs/multimode.json`,
the same problem at N=16 modes on a domain of length 4 pi, with 2000
paths on 16 recording steps of 256 scheme steps each, the same problem
at its N=4 modes with 2000 paths on a fine recording grid of 128 steps
(D = 516 recorded values a path, where the moment sums dominate the
memory), and `configs/scalar_multiplicative.json`. For each, the
script prints the group size G; the median and range of `runs` timed
calls (default 5) that fan out over the CPUs of the process's affinity;
the median of `runs` calls held to one process (`_fanout._cpus` -> 1:
nothing is forked), alternated with the first; and the tracemalloc
peak of one more call against `montecarlo.estimate_bytes`. The traced
call runs on one CPU, so that it forks no worker and every allocation
is traced. The fan-out holds numpy's OpenBLAS to one thread in each of
its processes, however many, so the one-process calls run one BLAS
thread too, as the fan-out's processes do.
"""

import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this tree's package, whatever PYTHONPATH holds

from spde_moments import _fanout, cli, montecarlo  # noqa: E402
from spde_moments.config import parse_config  # noqa: E402


def shipped_raw(name: str) -> dict:
    """The shipped config `configs/<name>.json`."""
    return json.loads((ROOT / "configs" / f"{name}.json").read_text(encoding="utf-8"))


def multimode_raw(n: int | None = None, grid_steps: int | None = None) -> dict:
    """`configs/multimode.json`, or with n modes on a domain of length 4 pi,
    2000 paths and 16 recording steps of 256 scheme steps (the noise and
    the initial mean extend the shipped 2**-j and 1/j sequences), or with
    2000 paths on `grid_steps` recording steps."""
    raw = shipped_raw("multimode")
    if grid_steps is not None:
        raw["mc"].update(paths=2000, grid_steps=grid_steps)
    if n is not None:
        raw["model"]["dimension"] = n
        raw["model"]["eigenvalues"]["length"] = 4 * math.pi
        raw["noise"]["q_eigenvalues"] = [2.0 ** -j for j in range(1, n + 1)]
        raw["initial"]["mean"] = [1.0 / j for j in range(1, n + 1)]
        raw["time"]["steps"] = 16 * 256
        raw["mc"].update(paths=2000, grid_steps=16, substeps=1)
    return raw


def simulation(raw: dict):
    """The config's Monte Carlo run as `validate` makes it, as a call of no
    arguments, with the paths, width, modes and noise modes of the run."""
    cfg = parse_config(raw)
    width = (cfg.mc_grid_steps + 1) * cfg.model.dim
    return lambda: cli._simulate(cfg), (cfg.mc_paths, width, cfg.model.dim, cfg.noise.dim)


def traced_peak(call) -> int:
    """tracemalloc peak of call() run on one CPU of the affinity."""
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        call()  # numpy keeps small freed blocks in caches that tracemalloc counts
        tracemalloc.start()
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        os.sched_setaffinity(0, cpus)


def timed(call) -> float:
    """Wall time of one call of call()."""
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def one_process(call) -> None:
    """call() with the fan-out held to one process, as the tests hold it."""
    cpus = _fanout._cpus
    _fanout._cpus = lambda: 1
    try:
        call()
    finally:
        _fanout._cpus = cpus


def report(name: str, raw: dict, runs: int) -> None:
    call, sizes = simulation(raw)
    # alternated, so that the host's drift falls on both medians alike
    times, alone = zip(*[(timed(call), timed(lambda: one_process(call))) for _ in range(runs)])
    peak, count = traced_peak(call), montecarlo.estimate_bytes(*sizes)
    print(f"{name}: G = {montecarlo._group_size(*sizes)}, median {statistics.median(times):.3f} s "
          f"over {runs} runs (min {min(times):.3f}, max {max(times):.3f}), "
          f"{statistics.median(alone):.3f} s on one process; "
          f"traced peak {peak / 2**20:.3f} MiB of estimate_bytes {count / 2**20:.3f} MiB")


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    report("multimode", multimode_raw(), runs)
    report("multimode N=16", multimode_raw(16), runs)
    report("multimode grid_steps=128", multimode_raw(grid_steps=128), runs)
    report("scalar_multiplicative", shipped_raw("scalar_multiplicative"), runs)
