"""The benchmark's workloads: generated inputs and output checks.

Every workload takes the benchmark's seed. validate-multimode puts it in
mc.seed; the other two put it in g.g1.seed, the seed of the scaled_random
coupling. The default seeds reproduce the shipped multimode values.

Each check compares an invocation's output with an independent route at a
stated tolerance, never with stored bytes, so a solver change that moves
the last bits still passes while a wrong field fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spde_moments.config import build_gmap, build_model, build_noise, initial_law, parse_config
from spde_moments.oracle import lyapunov_solve

DEFAULT_SEED = {"validate-multimode": 7, "solve-moment-multimode": 12345, "wide-n16": 12345}
WORKLOADS = tuple(DEFAULT_SEED)

# validate's two Monte Carlo checks are statistical: at a seed other than
# the default, a miss by a correct program is reported as mc.within_z_frac
# and does not count as a failure
MC_CHECKS = ("mc_vs_variational_cov_within_z", "mc_vs_oracle_two_time_within_z")
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float
    ok: bool
    counted: bool = True  # does a miss make the invocation a failure

    def line(self) -> str:
        verdict = "PASS" if self.ok else ("FAIL" if self.counted else "MISS (not counted)")
        return f"{self.name} = {self.value:.6g} (threshold {self.threshold:.6g}) {verdict}"


def multimode_config(root: Path, workload: str, seed: int, smoke: bool) -> dict:
    raw = json.loads((root / "configs" / "multimode.json").read_text())
    if workload == "validate-multimode":
        raw["mc"]["seed"] = seed
    else:
        raw["g"]["g1"]["seed"] = seed
    if smoke:
        raw["time"]["steps"] = 128
        raw["mc"].update(paths=2000, grid_steps=8, substeps=4)
    return raw


def wide_config(seed: int, smoke: bool) -> dict:
    # N=16 Dirichlet modes with length 4*pi: lambda_max = (16/4)^2 = 16, so
    # lambda_max*dt = 16/32 = 0.5 stays well below 2, out of the stiff regime
    # where r = (1 - lambda dt/2)/(1 + lambda dt/2) turns negative. K=32, not
    # the K=1024 of a full scaled run: one dense (K*N)^2 field at K=1024 is
    # 2 GiB and Picard holds at least four at once, more than the 7.7 GiB of
    # memory the benchmark machine has.
    n = 6 if smoke else 16
    return {
        "model": {"dimension": n, "horizon": 1.0,
                  "eigenvalues": {"generator": "dirichlet_laplacian", "length": 4 * math.pi}},
        "time": {"steps": 32},
        "noise": {"q_eigenvalues": [2.0 ** -m for m in range(1, n + 1)],
                  "wiener_fraction": 0.5, "jump_rate": 4.0},
        "g": {"g1": {"preset": "scaled_random", "seed": seed, "target_norm": 0.5},
              "g2": {"preset": "diagonal", "value": 0.5}},
        "initial": {"mean": [1.0 / k for k in range(1, n + 1)], "deterministic": True},
        "mc": {"paths": 2, "seed": 0},  # required by the schema; no Monte Carlo runs
        "solver": {"picard_tol": 1e-10, "picard_max_iter": 100},
        "validate": {"oracle_rel_tol": 0.03},
    }


def make_config(root: Path, workload: str, seed: int, smoke: bool) -> dict:
    if workload == "wide-n16":
        return wide_config(seed, smoke)
    return multimode_config(root, workload, seed, smoke)


def child_spec(workload: str, config: dict, config_path: Path) -> dict:
    """The entry and arguments of one invocation (without out/trace/record)."""
    if workload == "validate-multimode":
        argv = ["validate", "--config", str(config_path), "--threads", "1"]
        return {"entry": "cli", "argv": argv}
    if workload == "solve-moment-multimode":
        return {"entry": "cli", "argv": ["solve-moment", "--config", str(config_path)]}
    return {"entry": "pipeline", "config": config}


def _rel_diag_error(diag: np.ndarray, oracle_diag: np.ndarray) -> float:
    return float(np.max(np.abs(diag - oracle_diag)) / np.max(np.abs(oracle_diag)))


class Checker:
    """Output checks of one workload at one seed.

    The oracle the solve-moment check needs is computed once, lazily.
    """

    def __init__(self, workload: str, config: dict, seed: int) -> None:
        self.workload = workload
        self.cfg = parse_config(copy.deepcopy(config))
        self.default_seed = seed == DEFAULT_SEED[workload]
        self._oracle_diag = None
        self._verdicts: dict[str, tuple[list[Check], dict]] = {}

    def oracle_diag(self) -> np.ndarray:
        if self._oracle_diag is None:
            cfg = self.cfg
            model, noise = build_model(cfg), build_noise(cfg)
            mean0, m2_0, _ = initial_law(cfg)
            field = lyapunov_solve(model, noise, build_gmap(cfg, model, noise),
                                   mean0, m2_0, cfg.time_steps)
            self._oracle_diag = field.diag_second_moment[1:]
        return self._oracle_diag

    def check(self, exit_code: int, out: Path) -> tuple[list[Check], dict]:
        """Checks of one invocation's output, plus the counts read from it.

        An output byte-identical to one already checked in this run gets
        that output's verdict without parsing the tables again.
        """
        digest = hashlib.sha256(str(exit_code).encode())
        for path in sorted(out.iterdir()):
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        key = digest.hexdigest()
        if key not in self._verdicts:
            if self.workload == "validate-multimode":
                self._verdicts[key] = self._check_validate(exit_code, out)
            elif self.workload == "solve-moment-multimode":
                self._verdicts[key] = self._check_solve_moment(exit_code, out)
            else:
                self._verdicts[key] = self._check_wide(exit_code, out)
        checks, counts = self._verdicts[key]
        return list(checks), dict(counts)

    def _check_validate(self, exit_code: int, out: Path) -> tuple[list[Check], dict]:
        report = json.loads((out / "report.json").read_text())
        checks = [
            Check(c["check"], c["value"], c["threshold"], c["status"] == "PASS",
                  counted=self.default_seed or c["check"] not in MC_CHECKS)
            for c in report["checks"]
        ]
        z = [c.value for c in checks if c.name in MC_CHECKS]
        n_checks = len(checks)
        checks.append(Check("check_count", n_checks, 5, n_checks == 5))
        # validate exits 2 exactly when one of its checks fails
        expected = 0 if all(c.ok for c in checks[:n_checks]) else 2
        checks.append(Check("exit_code", exit_code, expected, exit_code == expected))
        counts = {"mc.within_z_frac": min(z) if z else 0.0}
        diag = report.get("diagnostics", {})
        solves = ("picard_iterations_second_moment", "picard_iterations_covariance")
        if all(k in diag for k in solves):
            counts["pg.picard_iterations"] = sum(diag[k] for k in solves)
        return checks, counts

    def _check_solve_moment(self, exit_code: int, out: Path) -> tuple[list[Check], dict]:
        checks = [Check("exit_code", exit_code, 0, exit_code == 0)]
        if exit_code != 0:
            return checks, {}
        cfg = self.cfg
        K, N = cfg.time_steps, cfg.model_dimension
        table = np.loadtxt(out / "moment_coefficients.csv", delimiter=",", skiprows=1, ndmin=2)
        rows = table.shape[0]
        checks.append(Check("row_count", rows, K * K * N * N, rows == K * K * N * N))
        if rows != K * K * N * N:
            return checks, {}
        index = np.indices((K, N, K, N)).reshape(4, -1).T
        bad_index = int(np.count_nonzero(np.any(table[:, :4] != index, axis=1)))
        checks.append(Check("misplaced_index_rows", bad_index, 0, bad_index == 0))
        field = table[:, 4].reshape(K, N, K, N)
        scale = float(np.max(np.abs(field)))
        asym = float(np.max(np.abs(field - field.transpose(2, 3, 0, 1)))) / scale
        checks.append(Check("field_asymmetry_rel", asym, SYMMETRY_TOL, asym <= SYMMETRY_TOL))
        trace = np.loadtxt(out / "picard_trace.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
        tol = cfg.solver_picard_tol * max(1.0, scale)
        checks.append(Check("picard_last_update", trace[-1], tol, trace[-1] <= tol))
        err = _rel_diag_error(np.einsum("knkm->knm", field), self.oracle_diag())
        rel_tol = cfg.validate_oracle_rel_tol
        checks.append(Check("diag_vs_oracle_rel", err, rel_tol, err <= rel_tol))
        return checks, {"pg.picard_iterations": len(trace)}

    def _check_wide(self, exit_code: int, out: Path) -> tuple[list[Check], dict]:
        checks = [Check("exit_code", exit_code, 0, exit_code == 0)]
        if exit_code != 0:
            return checks, {}
        cfg = self.cfg
        with np.load(out / "fields.npz") as f:
            pg_diag, oracle_diag, trace = f["pg_diag"], f["oracle_diag"], f["picard_trace"]
        K, N = cfg.time_steps, cfg.model_dimension
        shape_ok = pg_diag.shape == oracle_diag.shape == (K, N, N)
        checks.append(Check("diag_shape_ok", float(shape_ok), 1.0, shape_ok))
        if not shape_ok:
            return checks, {}
        err = _rel_diag_error(pg_diag, oracle_diag)
        rel_tol = cfg.validate_oracle_rel_tol
        checks.append(Check("diag_vs_oracle_rel", err, rel_tol, err <= rel_tol))
        return checks, {"pg.picard_iterations": len(trace)}


def table_counts(out: Path) -> dict:
    """Rows and MiB of the CSV tables an invocation wrote.

    diagnostics.csv is left out: validate writes its elapsed_seconds there,
    a clock reading whose digit count varies from run to run.
    """
    rows, size = 0, 0
    for path in sorted(out.glob("*.csv")):
        if path.name == "diagnostics.csv":
            continue
        with open(path, "rb") as fh:
            rows += sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1
        size += path.stat().st_size
    return {"cli.table_rows": rows, "cli.table_mb": size / 2.0 ** 20}


def corrupt(workload: str, out: Path) -> None:
    """Turn a good output into the kind a broken program would write."""
    if workload == "validate-multimode":
        path = out / "report.json"
        report = json.loads(path.read_text())
        for entry in report["checks"]:
            if entry["check"] == "variational_diag_vs_oracle_rel":
                entry.update(value=0.5, status="FAIL")
        path.write_text(json.dumps(report))
    elif workload == "solve-moment-multimode":
        path = out / "moment_coefficients.csv"
        header = path.read_text().split("\n", 1)[0]
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        table[:, 4] *= 1.1  # symmetric, but 10% off the oracle
        np.savetxt(path, table, fmt=["%d"] * 4 + ["%.17g"], delimiter=",",
                   header=header, comments="")
    else:
        path = out / "fields.npz"
        with np.load(path) as f:
            fields = dict(f)
        fields["pg_diag"] = fields["pg_diag"] * 1.1
        np.savez(path, **fields)
