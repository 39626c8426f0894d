#!/usr/bin/env python3
"""Peak resident set size after each stage of the wide library pipeline.

    python scripts/pipeline_memory.py N [N ...]

For each N, a fresh Python process runs the benchmark's wide-n16
library pipeline (`bench/pipeline.run`) on that workload's config
(`bench/workloads.wide_config` at its default seed) with N modes in
place of 16: `model.dimension`, the noise eigenvalues 2**-m and the
initial mean 1/k are extended to N, everything else, K=32 steps
included, is the workload's. The pipeline's functions are wrapped where
it looks them up, so its stages run as the benchmark runs them: config
(parse and build), assemble, mean, load, picard, inf_sup and oracle.
The script prints one row per N with the process's peak RSS in MiB
(`ru_maxrss`) after the imports and after each stage, and the process's
wall time; the peak only grows, so a stage's rise is the difference
from the column before. At N > 22 the fastest mode has lambda dt > 2,
and the stiff-mode warning goes to stderr.
"""

import functools
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
# the pipeline function that ends each stage after the imports
STAGE_ENDS = {
    "initial_law": "config",
    "assemble_per_mode": "assemble",
    "solve_mean": "mean",
    "rhs_second_moment": "load",
    "picard_solve_second_moment": "picard",
    "discrete_inf_sup": "inf_sup",
    "lyapunov_solve": "oracle",
}
STAGES = ("import", *STAGE_ENDS.values())


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def stages(n: int) -> list[float]:
    """Run the pipeline at n modes in this process; the peak RSS after
    the imports and after each stage."""
    sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]
    import pipeline
    from workloads import DEFAULT_SEED, wide_config

    raw = wide_config(DEFAULT_SEED["wide-n16"], smoke=False)
    raw["model"]["dimension"] = n
    raw["noise"]["q_eigenvalues"] = [2.0 ** -m for m in range(1, n + 1)]
    raw["initial"]["mean"] = [1.0 / k for k in range(1, n + 1)]
    peaks = [peak_mib()]

    def after(function):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            peaks.append(peak_mib())
            return result
        return wrapper

    for name in STAGE_ENDS:
        setattr(pipeline, name, after(getattr(pipeline, name)))
    with tempfile.TemporaryDirectory() as out:
        if pipeline.run(raw, Path(out), {}) != 0:
            sys.exit(f"the Picard iteration did not converge at N = {n}")
    return peaks


def main(args: list[str]) -> None:
    if args[:1] == ["--stages"]:
        print(" ".join(f"{peak:.1f}" for peak in stages(int(args[1]))))
        return
    if not args:
        sys.exit(__doc__)
    print("N " + " ".join(STAGES) + " seconds")
    for n in (int(arg) for arg in args):
        started = time.perf_counter()
        run = subprocess.run([sys.executable, __file__, "--stages", str(n)],
                             stdout=subprocess.PIPE, text=True, check=True)
        print(f"{n} {run.stdout.strip()} {time.perf_counter() - started:.1f}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
