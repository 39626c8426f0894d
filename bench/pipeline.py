"""Library pipeline of the wide-n16 workload, through the public API only.

The functions are imported into this module's namespace, so a traced run
wraps them here, where this pipeline looks them up.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from spde_moments.config import build_gmap, build_model, build_noise, initial_law, parse_config
from spde_moments.oracle import lyapunov_solve
from spde_moments.petrov_galerkin import (
    PicardNonConvergence,
    TimeGrid,
    assemble_per_mode,
    discrete_inf_sup,
    picard_solve_second_moment,
    rhs_second_moment,
    solve_mean,
)

TRACED = [
    "parse_config", "build_model", "build_noise", "build_gmap", "initial_law",
    "assemble_per_mode", "solve_mean", "rhs_second_moment",
    "picard_solve_second_moment", "discrete_inf_sup", "lyapunov_solve",
]


def run(raw_config: dict, out: Path, marks: dict) -> int:
    """Solve the second moment and its oracle; write both to out/fields.npz.

    Returns 0, or 3 when the Picard iteration does not converge (the exit
    code the CLI uses for the same failure).
    """
    cfg = parse_config(raw_config)
    model, noise = build_model(cfg), build_noise(cfg)
    gmap = build_gmap(cfg, model, noise)
    mean0, m2_0, _ = initial_law(cfg)
    marks.setdefault("setup_mark", time.monotonic())

    system = assemble_per_mode(model, TimeGrid(steps=cfg.time_steps, horizon=cfg.model_horizon))
    mean_coeffs = solve_mean(system, mean0)
    load = rhs_second_moment(system, noise, gmap, mean_coeffs, m2_0)
    try:
        solution = picard_solve_second_moment(
            system, noise, gmap, load,
            tol=cfg.solver_picard_tol, max_iter=cfg.solver_picard_max_iter,
        )
    except PicardNonConvergence:
        return 3
    discrete_inf_sup(system)
    oracle = lyapunov_solve(model, noise, gmap, mean0, m2_0, cfg.time_steps)
    np.savez(
        out / "fields.npz",
        pg_diag=solution.time_diagonal(),
        oracle_diag=oracle.diag_second_moment[1:],
        picard_trace=solution.trace,
    )
    return 0
