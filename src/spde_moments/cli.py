"""Command-line orchestration: simulate, solve, validate, report.

The subcommands are the keys of COMMANDS, which maps each to its
handler. Every subcommand reads one JSON configuration and writes CSV
tables (one file per emitted field, 17 significant digits) plus a
report.json with run metadata into the output directory. A field table
is formatted by the array kernel of `_format`, byte-identical to
`"%.17g" % v` (FMT), with `%` itself for each value outside the
kernel's exact range. Identical configurations and seeds produce
byte-identical tables. Monte Carlo batches and the rows of a field table
are spread over one process per CPU of the process's affinity
(`_fanout`), with numpy's OpenBLAS held to one thread in each however
many run, so that every process rounds a Monte Carlo batch's
`block.T @ block` alike and the count changes no table (montecarlo);
the report records that count as `workers`, and the peak resident set
sizes of the process and of its workers. `--threads` is accepted and ignored.

Monte Carlo runs never hold their paths: each batch is reduced to its
moment sums where it is simulated (`simulate_moments`), so a run with
nb batches of P paths on a recording grid of D values a path holds
nb D (D + 3) / 2 + O(D^2 + (P / nb) D) float64, with no P D term.

The structure of a moment field is petrov_galerkin's alone: a field
table is written one time row at a time (SpaceTimeMoment.row), and
validate's covariance identity check is covariance_identity_error.
An input that could not run is refused before any solve, with a
ConfigError naming its config key: model.dimension, time.steps,
mc.grid_steps or mc.paths when what the run must hold would not fit in
memory (for time.steps, the peak of the mean and moment solves,
petrov_galerkin.solve_bytes), and time.steps or mc.grid_steps when its
tables would not fit in the free space under --out.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from ._fanout import fan_out, split, workers
from ._format import FMT, RowText
from .config import ConfigError, ExperimentConfig, _check_memory, initial_law, load_config
from .montecarlo import BATCHES, estimate_bytes, simulate_moments
from .noise_map import action_bytes, g1_v_to_hs_norm
from .oracle import MomentField, lyapunov_solve, mean_exact, propagator_bytes, two_time_extend
from .petrov_galerkin import (
    PerModeSystem,
    PicardNonConvergence,
    TimeGrid,
    assemble_per_mode,
    covariance_identity_error,
    discrete_inf_sup,
    per_mode_singular_range,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    solve_bytes,
    solve_mean,
)


def _write_table(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(FMT % v if isinstance(v, float) else str(v) for v in row) + "\n")


def _write_field(path: Path, header: list[str], row, rows: int) -> int:
    """Write a field table, one line per entry in C order: the entry's
    indices, then its value as FMT % v gives it. row(k) returns the
    values at leading index k for k < rows, so a field is formatted one
    row at a time and never held whole. A row's lines are formatted by
    _format.RowText, byte-identical to FMT, in blocks of about 1 MiB of
    buffers, with FMT % v for the values that fall back. Contiguous
    ranges of rows are formatted by workers(rows) processes, the first
    range straight into the table and each other into a part file beside
    it, which is then appended to the table and removed. Returns the
    number of processes."""
    ranges = split(rows, workers(rows))
    files = [path] + [path.with_name(f"{path.name}.part{w}") for w in range(1, len(ranges))]

    def write(w: int) -> None:
        with open(files[w], "wb") as fh:
            if w == 0:
                fh.write((",".join(header) + "\n").encode())
            text = None
            for k in range(*ranges[w]):
                chunk = row(k)
                if text is None:  # every row has the shape of the first
                    text = RowText(chunk.shape, rows)
                text.write(fh, k, chunk)

    try:
        fan_out(write, list(range(len(ranges))))
        with open(path, "r+b", buffering=0) as table:
            table.seek(0, os.SEEK_END)  # copy_file_range refuses a table opened to append
            for part in files[1:]:
                with open(part, "rb", buffering=0) as src:
                    while os.copy_file_range(src.fileno(), table.fileno(), 2**30):
                        pass
                part.unlink()
    finally:
        for part in files[1:]:
            part.unlink(missing_ok=True)
    return len(ranges)


def _peak_rss_mib() -> dict:
    """Peak resident set sizes in MiB, by resource.getrusage, over the
    process's life so far: `self` of this process (RUSAGE_SELF), and
    `children` of the largest of its reaped workers (RUSAGE_CHILDREN). A
    forked worker's figure starts from its parent's high-water mark at
    the fork, so `children` counts the parent's memory up to that fork
    beside what the worker added. It also counts the children that a
    launcher reaped before it exec'd this process, such as a version
    manager's shell shim."""
    unit = 2**20 if sys.platform == "darwin" else 2**10  # ru_maxrss is in bytes there, else KiB
    return {who: resource.getrusage(flag).ru_maxrss * unit / 2**20
            for who, flag in (("self", resource.RUSAGE_SELF),
                              ("children", resource.RUSAGE_CHILDREN))}


def _report(out: Path, cfg: ExperimentConfig, subcommand: str, payload: dict) -> None:
    """Write report.json: the subcommand, the config hash, the versions,
    the peak resident set sizes (_peak_rss_mib) and `payload`."""
    body = {
        "subcommand": subcommand,
        "config_hash": cfg.digest,
        "peak_rss_mib": _peak_rss_mib(),
        "versions": {
            "spde_moments": __version__,
            "numpy": np.__version__,
        },
        **payload,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_picard_trace(out: Path, trace) -> None:
    _write_table(out / "picard_trace.csv", ["iteration", "update_norm"],
                 ((i + 1, float(d)) for i, d in enumerate(trace)))


def _check_mc_memory(cfg: ExperimentConfig) -> None:
    """Refuse with a ConfigError when what a Monte Carlo run holds at once
    on the config's recording grid would not fit in the machine's
    physical memory. With D = (mc.grid_steps + 1) N, the peak of
    simulate_moments, montecarlo.estimate_bytes of the run's scheme steps
    (mc.grid_steps x _substeps) and noise model, which counts the
    sampler's Poisson counts only where jumps are drawn, names
    mc.grid_steps when even one path a batch would not fit, and mc.paths
    when one batch of ceil(paths / nb) paths, with the increments it
    draws ahead, is what does not. The run never holds all paths x D
    values at once.
    """
    grid_steps, paths = cfg.mc_grid_steps, cfg.mc_paths
    width = (grid_steps + 1) * cfg.model_dimension
    run = (cfg.model_dimension, cfg.noise, _substeps(cfg))
    batches = min(BATCHES, paths)
    _check_memory("mc.grid_steps", estimate_bytes(batches, width, *run), f"the moment buffers "
                  f"of {grid_steps} recording steps of {cfg.model_dimension} modes")
    _check_memory("mc.paths", estimate_bytes(paths, width, *run),
                  f"the moment buffers and a batch of {-(-paths // batches)} paths of {width} "
                  "recorded values with its drawn-ahead increments")


def _check_table_space(out: Path, key: str, tables: list[tuple[int, int, int]]) -> None:
    """Refuse with a ConfigError naming `key` when field tables of (leading
    indices, rows, columns), written in this order, could not fit in the
    free space under `out`, even with every field one character long:
    each row then takes two bytes a column. The last table is assembled
    by _write_field from the ranges of its leading indices: each range
    but the first goes to a part file, whose rows are on disk twice from
    when it is appended to the table until it is removed, so the largest
    such range counts twice."""
    lead, count, columns = tables[-1]
    largest = max((hi - lo for lo, hi in split(lead, workers(lead))[1:]), default=0)
    part = 2 * columns * (count // lead) * largest
    rows = sum(count for _, count, _ in tables)
    need = sum(2 * count * columns for _, count, columns in tables) + part
    free = shutil.disk_usage(out).free
    if need > free:
        raise ConfigError(
            f"{key}: the tables hold {rows} rows, at least {need / 2**30:.3g} GiB, "
            f"more than the {free / 2**30:.3g} GiB free under {out}"
        )


def _write_diagnostics(out: Path, cfg: ExperimentConfig, system: PerModeSystem,
                       **rows) -> dict:
    """Write diagnostics.csv: the norm of G1, the discrete inf-sup value,
    the largest lambda dt and the smallest ratio of the pairing over the
    modes (PerModeSystem.ratio, negative for a stiff mode), the trace of
    Q, then `rows`. Returns the diagnostics for the report."""
    diagnostics = {
        "g1_v_to_hs_norm": g1_v_to_hs_norm(cfg.gmap, cfg.model, cfg.noise),
        "discrete_inf_sup": discrete_inf_sup(system),
        "max_lambda_dt": float(system.lambda_dt.max()),
        "min_ratio": float(system.ratio.min()),
        "trace_q": cfg.noise.trace,
        **rows,
    }
    _write_table(out / "diagnostics.csv", ["name", "value"],
                 ((k, float(v)) for k, v in diagnostics.items()))
    return diagnostics


def _substeps(cfg: ExperimentConfig) -> int:
    """Scheme steps of the config's Monte Carlo run per recording step."""
    return cfg.mc_substeps * (cfg.time_steps // cfg.mc_grid_steps)


def _simulate(cfg: ExperimentConfig):
    """Estimate the moments of the config's ensemble on its recording grid
    of mc.grid_steps steps, batch by batch, without holding the paths.
    Returns the estimate, the scheme steps per recording step and the
    number of processes the batches were spread over."""
    mean0, _, x0_cov = cfg.initial  # no covariance: a deterministic initial value
    substeps = _substeps(cfg)
    est = simulate_moments(
        cfg.model, cfg.noise, cfg.gmap, mean0, cfg.mc_grid_steps, cfg.mc_paths, cfg.mc_seed,
        x0_cov=x0_cov, substeps=substeps,
    )
    return est, substeps, workers(min(BATCHES, cfg.mc_paths))


def cmd_simulate(cfg: ExperimentConfig, out: Path) -> int:
    _check_mc_memory(cfg)
    nodes = cfg.mc_grid_steps + 1
    width = nodes * cfg.model_dimension
    _check_table_space(out, "mc.grid_steps",
                       [(nodes, width, 3)] * 2 + [(nodes, width * width, 5)] * 4)
    est, substeps, mc_procs = _simulate(cfg)
    two = ["time_index", "mode", "value"]
    four = ["time_index_1", "mode_1", "time_index_2", "mode_2", "value"]
    procs = [mc_procs]
    for name in ("mean", "mean_se", "second_moment", "second_moment_se",
                 "covariance", "covariance_se"):
        field = getattr(est, name)
        procs.append(_write_field(out / f"{name}.csv", two if field.ndim == 2 else four,
                                  field.__getitem__, nodes))
    _report(out, cfg, "simulate", {
        "workers": max(procs),
        "expected_jumps_per_path": cfg.noise.drawn_jump_rate * cfg.model_horizon,
        "paths": cfg.mc_paths,
        "grid_steps": cfg.mc_grid_steps,
        "scheme_steps_per_grid_step": substeps,
        "trace_q": float(cfg.noise.trace),
    })
    return 0


def cmd_solve_mean(cfg: ExperimentConfig, out: Path) -> int:
    steps, n = cfg.time_steps, cfg.model_dimension
    _check_memory("time.steps", solve_bytes(steps, n, cfg.noise.dim, 0),
                  f"the mean coefficients of {steps} steps of {n} modes")
    # both tables are written whole by one process: one leading index each
    _check_table_space(out, "time.steps", [(1, steps * n, 4), (1, steps * n, 5)])
    grid = TimeGrid(steps=cfg.time_steps, horizon=cfg.model_horizon)
    system = assemble_per_mode(cfg.model, grid)
    mean0 = cfg.initial[0]
    coeffs = solve_mean(system, mean0)
    exact = mean_exact(cfg.model, mean0, cfg.time_steps)[1:]  # right nodes
    nodes = grid.nodes[1:]
    _write_table(
        out / "mean_coefficients.csv",
        ["interval", "mode", "right_node_time", "value"],
        ((k, n, float(nodes[k]), float(coeffs[k, n]))
         for k in range(coeffs.shape[0]) for n in range(coeffs.shape[1])),
    )
    _write_table(
        out / "mean_error_vs_exact.csv",
        ["interval", "mode", "solver", "exact", "abs_error"],
        ((k, n, float(coeffs[k, n]), float(exact[k, n]), float(abs(coeffs[k, n] - exact[k, n])))
         for k in range(coeffs.shape[0]) for n in range(coeffs.shape[1])),
    )
    _report(out, cfg, "solve-mean", {
        "workers": 1,
        "sup_error_vs_exact": float(np.max(np.abs(coeffs - exact))),
    })
    return 0


def _check_moment_memory(cfg: ExperimentConfig, fields: int) -> None:
    """Refuse, with a ConfigError, when what `fields` moment solves hold
    would not fit in memory (config._check_memory): naming
    model.dimension for what building the noise map's symmetric action
    holds (noise_map.action_bytes), and time.steps for the solves' peak,
    petrov_galerkin.solve_bytes."""
    steps, n, modes = cfg.time_steps, cfg.model_dimension, cfg.noise.dim
    _check_memory("model.dimension", action_bytes(n, modes), "the noise map's symmetric "
                  f"action of {n} modes and its build from {modes} noise modes")
    _check_memory("time.steps", solve_bytes(steps, n, modes, fields),
                  f"the moment solves of {steps} steps of {n} modes")


def _solve_moment_problems(cfg: ExperimentConfig, covariances: tuple[bool, ...]):
    """Assemble a config's problem once, then solve one moment problem per
    entry of `covariances`: the covariance for True, the second moment
    for False. Returns the assembled system, the mean coefficients and
    the solutions in order. Callers refuse first by _check_moment_memory."""
    steps = cfg.time_steps
    noise, gmap = cfg.noise, cfg.gmap
    system = assemble_per_mode(cfg.model, TimeGrid(steps=steps, horizon=cfg.model_horizon))
    mean0, m2_0, cov_0 = initial_law(cfg)
    mean_coeffs = solve_mean(system, mean0)
    loads = (rhs_covariance(system, noise, gmap, mean_coeffs, cov_0) if covariance
             else rhs_second_moment(system, noise, gmap, mean_coeffs, m2_0)
             for covariance in covariances)
    return system, mean_coeffs, [picard_solve_second_moment(
        system, noise, gmap, load, tol=cfg.solver_picard_tol,
        max_iter=cfg.solver_picard_max_iter) for load in loads]


def _emit_moment(cfg: ExperimentConfig, out: Path, covariance: bool) -> int:
    name = "covariance" if covariance else "moment"
    width = cfg.time_steps * cfg.model_dimension
    _check_table_space(out, "time.steps", [(cfg.time_steps, width * width, 5)])
    _check_moment_memory(cfg, 1)
    system, _, (solution,) = _solve_moment_problems(cfg, (covariance,))
    four = ["interval_1", "mode_1", "interval_2", "mode_2", "value"]
    procs = _write_field(out / f"{name}_coefficients.csv", four, solution.row,
                         solution.grid.steps)
    _write_picard_trace(out, solution.trace)
    diagnostics = _write_diagnostics(out, cfg, system, picard_iterations=solution.iterations)
    _report(out, cfg, f"solve-{name}", {
        "workers": procs,
        "diagnostics": diagnostics,
        "picard_trace": [float(d) for d in solution.trace],
    })
    return 0


def cmd_inf_sup(cfg: ExperimentConfig, out: Path) -> int:
    model = cfg.model
    rows = []
    global_rows = []
    for factor in (1, 2, 4):
        steps = cfg.time_steps * factor
        system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=cfg.model_horizon))
        per_mode, bounds = per_mode_singular_range(system)
        for n in range(model.dim):
            rows.append((steps, n, float(model.eigenvalues[n]), float(per_mode[n]),
                         float(bounds[n]), float(system.lambda_dt[n])))
        global_rows.append((steps, float(per_mode.min())))
    _write_table(out / "inf_sup.csv",
                 ["steps", "mode", "eigenvalue", "inf_sup", "operator_bound", "lambda_dt"], rows)
    _write_table(out / "inf_sup_global.csv", ["steps", "value"], global_rows)
    _report(out, cfg, "inf-sup", {
        "workers": 1,
        "sweep_steps": [cfg.time_steps * f for f in (1, 2, 4)],
    })
    return 0


def _relative_error(value: np.ndarray, reference: np.ndarray) -> float:
    """max|value - reference| / max|reference|, the scale floored at 1e-300
    so that an exact value of a reference of zeros has error 0."""
    scale = max(1.0e-300, float(np.max(np.abs(reference))))
    return float(np.max(np.abs(value - reference)) / scale)


def cmd_validate(cfg: ExperimentConfig, out: Path) -> int:
    started = time.perf_counter()
    _check_mc_memory(cfg)
    _check_moment_memory(cfg, 2)
    n = cfg.model_dimension
    _check_memory("model.dimension", propagator_bytes(n, cfg.noise.dim), "the oracle's "
                  f"noise action and Pade matrices of {n} modes")
    system, mean_coeffs, (m2_sol, cov_sol) = _solve_moment_problems(cfg, (False, True))
    model, noise, gmap = cfg.model, cfg.noise, cfg.gmap
    mean0, m2_0, _ = cfg.initial
    steps = cfg.time_steps

    # covariance equals second moment minus the mean outer product, per solve
    identity_err = covariance_identity_error(m2_sol, cov_sol, mean_coeffs)
    # equal-time second moment against the matrix differential equation
    oracle = lyapunov_solve(model, noise, gmap, mean0, m2_0, steps)
    diag_err = _relative_error(m2_sol.diagonal, oracle.diag_second_moment[1:])
    # solver mean against the exact semigroup mean, sup normalized
    mean_err = _relative_error(mean_coeffs, mean_exact(model, mean0, steps)[1:])

    # Monte Carlo cross-checks on the recording grid: the fraction of
    # entries within z standard errors of the estimate
    est, _, mc_procs = _simulate(cfg)
    stride = steps // cfg.mc_grid_steps
    idx = np.arange(1, cfg.mc_grid_steps + 1) * stride - 1  # intervals ending at the MC nodes

    def within_z(value: np.ndarray, mc: np.ndarray, se: np.ndarray) -> float:
        return float(np.mean(np.abs(value - mc) <= cfg.validate_z_threshold * se))

    frac_cov = within_z(np.stack([cov_sol.row(k)[:, idx] for k in idx]),
                        est.covariance[1:, :, 1:, :], est.covariance_se[1:, :, 1:, :])
    # the exact propagator's values at the MC nodes are the solver grid's at a stride
    oracle_two = two_time_extend(model, MomentField(oracle.grid[::stride],
                                                    oracle.diag_second_moment[::stride]))
    frac_oracle = within_z(oracle_two, est.second_moment, est.second_moment_se)

    # errors pass at most their tolerance, Monte Carlo fractions at least theirs
    tol, least = cfg.validate_oracle_rel_tol, cfg.validate_min_within_fraction
    checks = [(name, value, threshold, "PASS" if ok else "FAIL")
              for name, value, threshold, ok in (
                  ("covariance_identity_max_abs_diff", identity_err, cfg.validate_identity_tol,
                   identity_err <= cfg.validate_identity_tol),
                  ("variational_diag_vs_oracle_rel", diag_err, tol, diag_err <= tol),
                  ("variational_mean_vs_exact_rel", mean_err, tol, mean_err <= tol),
                  ("mc_vs_variational_cov_within_z", frac_cov, least, frac_cov >= least),
                  ("mc_vs_oracle_two_time_within_z", frac_oracle, least, frac_oracle >= least))]
    _write_table(out / "checks.csv", ["check", "value", "threshold", "status"],
                 ((name, float(value), float(threshold), status)
                  for name, value, threshold, status in checks))
    # regularity monitor: sup over the grid of the estimated root second
    # moment in the base and energy norms (no quantitative target exists)
    mc_diag = np.einsum("knkn->kn", est.second_moment)
    sup_h0 = float(np.sqrt(np.sum(mc_diag, axis=1).max()))
    sup_h1 = float(np.sqrt((mc_diag @ model.eigenvalues).max()))
    diagnostics = _write_diagnostics(
        out, cfg, system,
        picard_iterations_second_moment=m2_sol.iterations,
        picard_iterations_covariance=cov_sol.iterations,
        mc_sup_grid_h0_moment_norm=sup_h0,
        mc_sup_grid_h1_moment_norm=sup_h1,
    )
    all_pass = all(status == "PASS" for *_, status in checks)
    _report(out, cfg, "validate", {
        "workers": mc_procs,
        "expected_jumps_per_path": cfg.noise.drawn_jump_rate * cfg.model_horizon,
        # the clock reading goes to the report only, so the tables stay byte-identical
        "diagnostics": {**diagnostics, "elapsed_seconds": time.perf_counter() - started},
        "picard_trace_second_moment": [float(d) for d in m2_sol.trace],
        "picard_trace_covariance": [float(d) for d in cov_sol.trace],
        "checks": [{"check": name, "value": value, "threshold": threshold, "status": status}
                   for name, value, threshold, status in checks],
        "status": "PASS" if all_pass else "FAIL",
    })
    for name, value, threshold, status in checks:
        print(f"{status} {name}: {value:.6g} (threshold {threshold:.6g})")
    return 0 if all_pass else 2


# subcommand name -> handler(cfg, out), returning the exit code
COMMANDS = {
    "simulate": cmd_simulate,
    "solve-mean": cmd_solve_mean,
    "solve-moment": functools.partial(_emit_moment, covariance=False),
    "solve-covariance": functools.partial(_emit_moment, covariance=True),
    "validate": cmd_validate,
    "inf-sup": cmd_inf_sup,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spde-moments",
        description="Moment and covariance laboratory for parabolic equations "
                    "with affine multiplicative Levy noise",
    )
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON configuration")
    parser.add_argument("--out", required=True, help="output directory (created if absent)")
    parser.add_argument("--threads", type=int, default=1,
                        help="ignored: Monte Carlo batches and table rows are spread over "
                             "one process per CPU of the process's affinity (accepted so "
                             "that existing command lines still run)")
    args = parser.parse_args(argv)

    out = Path(args.out)
    try:
        cfg = load_config(args.config)
        out.mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        return COMMANDS[args.subcommand](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PicardNonConvergence as exc:
        _write_picard_trace(out, exc.trace)
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
