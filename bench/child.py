"""One benchmark invocation, run in a fresh process by run.py.

    python3 bench/child.py <spec.json>

The spec names the workload's entry ("cli" with an argument list, or
"pipeline" with a config dict), the output directory, whether to trace,
and the file that receives this process's record: its exit code, the
time of its first solver call and, when traced, its span summary. The
exit code is the program's own.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import spde_moments.cli as cli
import spde_moments.montecarlo as montecarlo
import spde_moments.oracle as oracle
import spde_moments.petrov_galerkin as petrov_galerkin

import pipeline
from tracer import Tracer, install_setup_mark

CLI_TRACED = {
    cli: [
        "main", "load_config", "build_model", "build_noise", "build_gmap", "initial_law",
        "assemble_per_mode", "solve_mean", "rhs_second_moment", "rhs_covariance",
        "picard_solve_second_moment", "solve_covariance", "discrete_inf_sup",
        "per_mode_inf_sup", "per_mode_operator_bound",
        "lyapunov_solve", "mean_exact", "two_time_extend",
        "simulate_ensemble", "estimate_moments",
    ],
    oracle: ["noise_quadratic_form"],
    petrov_galerkin: ["noise_quadratic_form"],
    montecarlo: ["sample_increments", "g_apply"],
}
PIPELINE_TRACED = {
    pipeline: pipeline.TRACED,
    oracle: ["noise_quadratic_form"],
    petrov_galerkin: ["noise_quadratic_form"],
}
SOLVER_MODULES = {petrov_galerkin.__name__, oracle.__name__, montecarlo.__name__}


def cli_solver_entries() -> list[str]:
    """Functions of the three solver modules as cli looks them up."""
    return [name for name, obj in vars(cli).items()
            if callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) in SOLVER_MODULES]


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    out = Path(spec["out"])
    out.mkdir(parents=True, exist_ok=True)
    is_cli = spec["entry"] == "cli"
    tracer = None
    marks: dict = {}
    if spec["trace"]:
        tracer = Tracer()
        for module, attrs in (CLI_TRACED if is_cli else PIPELINE_TRACED).items():
            for attr in attrs:
                if hasattr(module, attr):  # a name the program dropped is not traced
                    tracer.wrap(module, attr)
    elif is_cli:
        marks = install_setup_mark(cli, cli_solver_entries())

    if is_cli:
        code = cli.main(spec["argv"] + ["--out", str(out)])
    else:
        code = pipeline.run(spec["config"], out, marks)

    record = {"exit": code, **marks}
    if tracer is not None:
        record.update(tracer.summary())
    Path(spec["record"]).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    # without a spec the imports alone run, which warms the byte-code cache
    sys.exit(main(sys.argv[1]) if len(sys.argv) > 1 else 0)
