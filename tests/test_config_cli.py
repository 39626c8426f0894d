import ast
import copy
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import spde_moments.config as config
from spde_moments import _fanout
import spde_moments.montecarlo as mc
import spde_moments.noise_map as noise_map
import spde_moments.oracle as oracle
from spde_moments import (
    TimeGrid,
    assemble_per_mode,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    solve_mean,
)
from spde_moments import cli
from spde_moments.cli import main
from spde_moments.config import (
    ConfigError,
    build_gmap,
    build_model,
    build_noise,
    initial_law,
    load_config,
    parse_config,
)
import spde_moments.petrov_galerkin as pg
from spde_moments.petrov_galerkin import covariance_identity_error, solve_bytes

from conftest import multimode_setup
from dense_reference import dense_coeffs

ROOT = Path(__file__).resolve().parent.parent


def multimode_raw():
    return json.loads((ROOT / "configs" / "multimode.json").read_text())


def multimode_raw_at(n):
    """configs/multimode.json at n modes and 8 steps, with two Monte Carlo
    paths on one recording step; the noise and the initial mean extend the
    shipped 2**-j and 1/j sequences."""
    raw = multimode_raw()
    raw["model"]["dimension"] = n
    raw["time"]["steps"] = 8
    raw["noise"]["q_eigenvalues"] = [2.0 ** -j for j in range(1, n + 1)]
    raw["initial"]["mean"] = [1.0 / j for j in range(1, n + 1)]
    raw["mc"] = {"paths": 2, "seed": 7, "grid_steps": 1}
    return raw


def numeric_leaves(node, path=()):
    """Key paths of the numbers (not booleans) in a raw configuration."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []
    return [leaf for key, child in items for leaf in numeric_leaves(child, path + (key,))]


def minimal_config(**overrides):
    raw = {
        "model": {"dimension": 1, "horizon": 1.0, "eigenvalues": [1.0]},
        "time": {"steps": 8},
        "noise": {"q_eigenvalues": [1.0], "wiener_fraction": 1.0, "jump_rate": 0.0},
        "g": {
            "g1": {"preset": "scalar", "value": 0.5},
            "g2": {"preset": "scalar", "value": 0.5},
        },
        "initial": {"mean": [1.0], "deterministic": True},
        "mc": {"paths": 64, "seed": 1, "grid_steps": 8},
        "solver": {"picard_tol": 1e-10, "picard_max_iter": 100},
    }
    for key, value in overrides.items():
        raw[key] = value
    return raw


class TestParsing:
    def test_shipped_configs_parse(self):
        for name in ("scalar_ou", "scalar_multiplicative", "multimode"):
            cfg = load_config(ROOT / "configs" / f"{name}.json")
            model = build_model(cfg)
            noise = build_noise(cfg)
            gmap = build_gmap(cfg, model, noise)
            assert gmap.state_dim == model.dim
            mean, m2, cov = initial_law(cfg)
            np.testing.assert_allclose(m2 - np.outer(mean, mean), cov, atol=1e-15)

    def test_missing_section_names_path(self):
        raw = minimal_config()
        del raw["noise"]
        with pytest.raises(ConfigError, match="noise"):
            parse_config(raw)

    def test_dimension_mismatch_names_both_keys(self):
        raw = minimal_config()
        raw["model"] = {"dimension": 2, "horizon": 1.0, "eigenvalues": [1.0]}
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        message = str(excinfo.value)
        assert "model.eigenvalues" in message and "model.dimension" in message

    def test_initial_requires_exactly_one_law(self):
        raw = minimal_config()
        raw["initial"] = {"mean": [1.0]}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)
        raw["initial"] = {"mean": [1.0], "deterministic": True, "covariance": [[0.0]]}
        with pytest.raises(ConfigError, match="exactly one"):
            parse_config(raw)

    def test_grid_steps_must_divide_steps(self):
        raw = minimal_config()
        raw["mc"] = {"paths": 64, "seed": 1, "grid_steps": 3}
        with pytest.raises(ConfigError, match="grid_steps"):
            parse_config(raw)

    @pytest.mark.parametrize("steps, expected", [(64, 16), (16, 16), (24, 24), (8, 8)])
    def test_grid_steps_default(self, steps, expected):
        # 16 recording steps when they divide time.steps, else time.steps
        raw = minimal_config(time={"steps": steps}, mc={"paths": 64, "seed": 1})
        assert parse_config(raw).mc_grid_steps == expected

    def test_negative_noise_eigenvalue_rejected(self):
        raw = minimal_config()
        raw["noise"] = {"q_eigenvalues": [-1.0]}
        with pytest.raises(ConfigError, match="noise"):
            parse_config(raw)

    def test_gaussian_initial_law(self):
        raw = minimal_config()
        raw["initial"] = {"mean": [1.0], "covariance": [[0.25]]}
        cfg = parse_config(raw)
        mean, m2, cov = initial_law(cfg)
        assert cov[0, 0] == pytest.approx(0.25)
        assert m2[0, 0] == pytest.approx(1.25)

    @pytest.mark.parametrize("key", ["g1", "g2"])
    @pytest.mark.parametrize(
        "noise_modes, values, prefix",
        [(1, None, ""), (2, [0.5], ".values")],
        ids=["dimension", "length"],
    )
    def test_diagonal_preset_errors_name_their_key(self, key, noise_modes, values, prefix):
        dense = {"g1": np.zeros((2, 2, noise_modes)).tolist(),
                 "g2": np.zeros((2, noise_modes)).tolist()}
        spec = {"preset": "diagonal", "value": 0.5}
        if values is not None:
            spec["values"] = values
        raw = minimal_config(
            model={"dimension": 2, "horizon": 1.0, "eigenvalues": [1.0, 4.0]},
            noise={"q_eigenvalues": [1.0] * noise_modes},
            g={**dense, key: spec},
            initial={"mean": [1.0, 0.5], "deterministic": True},
        )
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        message = str(excinfo.value)
        assert message.startswith(f"g.{key}{prefix}: ")
        assert ("g.g2" if key == "g1" else "g.g1") not in message

    def test_diagonal_preset_mismatch_refused_before_g1_is_allocated(self):
        # the (N, N, N) coupling of a diagonal preset, 216 MB here, is not
        # allocated for a noise with fewer modes than the state
        n = 300
        raw = minimal_config(
            model={"dimension": n, "horizon": 1.0,
                   "eigenvalues": {"generator": "dirichlet_laplacian", "length": 1.0}},
            g={"g1": {"preset": "diagonal", "value": 0.5}, "g2": [[0.5]] * n},
            initial={"mean": [0.0] * n, "deterministic": True},
        )
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^g.g1: diagonal preset"):
                parse_config(raw)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("key, edit", [
        ("solver.picard_max_iter", lambda raw: raw["solver"].update(picard_max_iter=0)),
        ("solver.picard_tol", lambda raw: raw["solver"].update(picard_tol=0.0)),
        ("mc.paths", lambda raw: raw["mc"].update(paths=1)),
        ("mc.seed", lambda raw: raw["mc"].update(seed=-1)),
        ("g.g1.seed", lambda raw: raw["g"].update(
            g1={"preset": "scaled_random", "seed": -1, "target_norm": 0.5})),
        ("g.g1.target_norm", lambda raw: raw["g"].update(
            g1={"preset": "scaled_random", "seed": 1, "target_norm": -0.5})),
        ("g.g1", lambda raw: raw.update(
            noise={"q_eigenvalues": [0.0]},
            g={"g1": {"preset": "scaled_random", "seed": 1, "target_norm": 0.5},
               "g2": [[0.5]]})),
        ("model.horizon", lambda raw: raw["model"].update(
            horizon=0.0, eigenvalues={"generator": "dirichlet_laplacian", "length": 1.0})),
        ("model.eigenvalues.length", lambda raw: raw["model"].update(
            eigenvalues={"generator": "dirichlet_laplacian", "length": 0.0})),
        ("model.horizon", lambda raw: raw["model"].update(horizon=0.0)),
        ("g.g2", lambda raw: raw["g"].update(g2=[[float("nan")]])),
        ("g.g1", lambda raw: raw["g"].update(g1=[[["a"]]])),
        ("g.g2", lambda raw: raw["g"].update(g2=[["a"]])),
        ("g.g2", lambda raw: raw["g"].update(g2=[["0.5"]])),
        ("g.g2", lambda raw: raw["g"].update(g2=[[True]])),
        ("initial.second_moment", lambda raw: raw.update(
            initial={"mean": [1.0], "second_moment": [["a"]]})),
        ("initial.covariance", lambda raw: raw.update(
            initial={"mean": [1.0], "covariance": [["a"]]})),
        ("g.g1", lambda raw: raw["g"].update(g1=[[[0.1], [0.2]], [[0.3]]])),
        ("g.g2", lambda raw: raw["g"].update(g2=[[1.0, 2.0], [3.0]])),
        ("initial.covariance", lambda raw: raw.update(
            initial={"mean": [1.0], "covariance": [[1.0, 0.0], [0.0]]})),
        # an integer beyond the float range, as json.loads returns it
        ("model.horizon", lambda raw: raw["model"].update(horizon=10 ** 400)),
    ], ids=["max_iter", "tol", "paths", "mc_seed", "g1_seed", "target_norm", "zero_norm",
            "generator_horizon", "length", "list_horizon", "g2_nan", "g1_text", "g2_text",
            "g2_numeric_text", "g2_bool", "second_moment_text", "covariance_text",
            "g1_ragged", "g2_ragged", "covariance_ragged", "horizon_overflow"])
    def test_out_of_range_values_name_their_key(self, key, edit):
        raw = minimal_config()
        edit(raw)
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        assert str(excinfo.value).startswith(f"{key}: ")

    def test_indefinite_initial_covariance_rejected(self):
        raw = minimal_config()
        raw["initial"] = {"mean": [0.0], "covariance": [[-0.5]]}
        with pytest.raises(ConfigError, match="semidefinite"):
            parse_config(raw)

    @pytest.mark.parametrize("key, value", [
        ("initial.deterministic", "no"),
        ("initial.deterministic", 1),
        ("validate.oracle_rel_tol", -0.03),
        ("validate.identity_tol", -1e-8),
        ("validate.z_threshold", -3.0),
        ("validate.min_within_fraction", -0.5),
        ("validate.min_within_fraction", 1.5),
    ], ids=["deterministic_text", "deterministic_number", "oracle_rel_tol", "identity_tol",
            "z_threshold", "min_within_fraction_low", "min_within_fraction_high"])
    def test_malformed_initial_and_validate_values_exit_one(self, tmp_path, capsys, key, value):
        raw = minimal_config()
        section, name = key.split(".")
        raw.setdefault(section, {})[name] = value
        with pytest.raises(ConfigError) as excinfo:
            parse_config(raw)
        assert str(excinfo.value).startswith(f"{key}: ")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: ")

    def test_validate_bounds_are_inclusive(self):
        raw = minimal_config(validate={"z_threshold": 0.0, "min_within_fraction": 1.0,
                                       "oracle_rel_tol": 0.0, "identity_tol": 0.0})
        cfg = parse_config(raw)
        assert (cfg.validate_z_threshold, cfg.validate_min_within_fraction) == (0.0, 1.0)
        raw["validate"]["min_within_fraction"] = 0.0
        assert parse_config(raw).validate_min_within_fraction == 0.0

    def test_config_hash_changes_with_every_value(self):
        raw = multimode_raw()
        # model.dimension fixes the length of three lists, so it cannot change alone
        leaves = [path for path in numeric_leaves(raw) if path != ("model", "dimension")]
        assert len(leaves) == 26
        digests = {parse_config(raw).digest}
        for path in leaves:
            changed = copy.deepcopy(raw)
            node = changed
            for key in path[:-1]:
                node = node[key]
            value = node[path[-1]]
            node[path[-1]] = value // 2 if isinstance(value, int) else value / 2
            digests.add(parse_config(changed).digest)
        assert len(digests) == len(leaves) + 1


class TestCli:
    def write_config(self, tmp_path, raw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        return str(path)

    def test_malformed_json_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["solve-mean", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [5, [], None, "x"])
    @pytest.mark.parametrize("section", [
        "model", "time", "noise", "g", "initial", "mc", "solver", "validate"])
    def test_section_that_is_not_an_object_exits_one(self, tmp_path, capsys, section, value):
        cfg = self.write_config(tmp_path, minimal_config(**{section: value}))
        rc = main(["solve-mean", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {section}: expected an object, got {json.dumps(value)}\n")

    @pytest.mark.parametrize("key, edit, shown", [
        ("time.steps", lambda raw: raw["time"].update(steps=True), "true"),
        ("initial.deterministic", lambda raw: raw["initial"].update(deterministic=None),
         "null"),
        ("g.g1.preset", lambda raw: raw["g"].update(g1={"preset": "x", "value": 0.5}), '"x"'),
    ], ids=["steps_true", "deterministic_null", "preset_text"])
    def test_offending_value_is_shown_as_json(self, tmp_path, capsys, key, edit, shown):
        raw = minimal_config()
        edit(raw)
        rc = main(["solve-mean", "--config", self.write_config(tmp_path, raw),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ")
        assert err.endswith(f" {shown}\n")

    def test_coupling_larger_than_memory_refused_while_parsing(
        self, tmp_path, capsys, monkeypatch
    ):
        # the diagonal preset's g1 of N x N x M float64 takes 8 N^2 M bytes
        n = m = 3
        raw = minimal_config(
            model={"dimension": n, "horizon": 1.0, "eigenvalues": [1.0, 4.0, 9.0]},
            noise={"q_eigenvalues": [1.0] * m},
            g={"g1": {"preset": "diagonal", "value": 0.5},
               "g2": {"preset": "diagonal", "value": 0.5}},
            initial={"mean": [1.0] * n, "deterministic": True},
        )
        monkeypatch.setattr(config, "_physical_memory", lambda: 8 * n * n * m)
        assert parse_config(raw).gmap.g1.shape == (n, n, m)

        def not_built(*args):
            raise AssertionError("g1 was built")

        monkeypatch.setattr(config, "_g1", not_built)
        monkeypatch.setattr(config, "_physical_memory", lambda: 8 * n * n * m - 1)
        rc = main(["solve-mean", "--config", self.write_config(tmp_path, raw),
                   "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.dimension:")
        assert "physical memory" in err
        assert "Traceback" not in err

    def test_coupling_beyond_the_address_space_limit_refused_while_parsing(
        self, tmp_path, capsys, monkeypatch
    ):
        # under ulimit -v an allocation past the soft limit fails however
        # much physical memory the machine has; g1 takes 8 N^2 M bytes
        n = m = 3
        raw = minimal_config(
            model={"dimension": n, "horizon": 1.0, "eigenvalues": [1.0, 4.0, 9.0]},
            noise={"q_eigenvalues": [1.0] * m},
            g={"g1": {"preset": "diagonal", "value": 0.5},
               "g2": {"preset": "diagonal", "value": 0.5}},
            initial={"mean": [1.0] * n, "deterministic": True},
        )
        # the limit counts the address space the process has mapped already
        need, mapped = 8 * n * n * m, 2 ** 20
        limit = [need + mapped]

        def getrlimit(which):
            assert which == config.resource.RLIMIT_AS
            return limit[0], config.resource.RLIM_INFINITY

        monkeypatch.setattr(config.resource, "getrlimit", getrlimit)
        monkeypatch.setattr(config, "_mapped_bytes", lambda: mapped)
        monkeypatch.setattr(config, "_physical_memory", lambda: 2 ** 40)
        assert parse_config(raw).gmap.g1.shape == (n, n, m)

        def not_built(*args):
            raise AssertionError("g1 was built")

        monkeypatch.setattr(config, "_g1", not_built)
        # one byte short of the room left, then a need below the whole limit
        for limit[0] in (need + mapped - 1, need + 1):
            rc = main(["solve-mean", "--config", self.write_config(tmp_path, raw),
                       "--out", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith("error: model.dimension:")
            assert "address-space limit" in err
            assert "Traceback" not in err

    def test_mapped_bytes_is_the_size_of_the_address_space(self):
        # VmSize of /proc/self/status, in kB, is the first field of statm in pages
        status = Path("/proc/self/status")
        if not status.exists():
            pytest.skip("no /proc on this system")
        mapped = config._mapped_bytes()
        vm_size = next(int(line.split()[1]) for line in status.read_text().splitlines()
                       if line.startswith("VmSize:"))
        assert abs(mapped - 1024 * vm_size) < 2 ** 24  # the two reads are not at once

    def test_out_naming_a_file_exits_one(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, minimal_config())
        taken = tmp_path / "taken"
        taken.write_text("")
        rc = main(["solve-mean", "--config", cfg, "--out", str(taken)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_solve_mean_outputs_and_reproducibility(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve-mean", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve-mean", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("mean_coefficients.csv", "mean_error_vs_exact.csv", "report.json"):
            assert (out1 / name).exists()
        a = (out1 / "mean_coefficients.csv").read_bytes()
        b = (out2 / "mean_coefficients.csv").read_bytes()
        assert a == b

    def test_tables_carry_seventeen_significant_digits(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        main(["solve-mean", "--config", cfg, "--out", str(out)])
        first_value = (out / "mean_coefficients.csv").read_text().splitlines()[1].split(",")[-1]
        mantissa = first_value.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
        assert len(mantissa) >= 16

    def test_solve_moment_emits_trace_and_diagnostics(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main(["solve-moment", "--config", cfg, "--out", str(out)]) == 0
        for name in ("moment_coefficients.csv", "picard_trace.csv", "diagnostics.csv"):
            assert (out / name).exists()
        trace = (out / "picard_trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,update_norm"
        assert len(trace) >= 2

    def test_validate_solves_the_oracle_once(self, tmp_path, monkeypatch):
        # the Monte Carlo grid's oracle values are the solver grid's at a stride
        calls = []

        def counter(*args):
            calls.append(args[-1])
            return oracle.lyapunov_solve(*args)

        monkeypatch.setattr(cli, "lyapunov_solve", counter)
        cfg = self.write_config(tmp_path, minimal_config(
            time={"steps": 32}, mc={"paths": 64, "seed": 1, "grid_steps": 8}))
        assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 2)
        assert calls == [32]

    def test_solve_covariance_runs(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main(["solve-covariance", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "covariance_coefficients.csv").exists()

    def test_additive_moment_solve_reports_one_iteration(self, tmp_path):
        raw = minimal_config()
        raw["g"]["g1"] = {"preset": "scalar", "value": 0.0}
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["solve-moment", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["picard_iterations"] == 1

    def test_simulate_emits_one_file_per_field(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        for name in ("mean", "mean_se", "second_moment", "second_moment_se",
                     "covariance", "covariance_se"):
            assert (out / f"{name}.csv").exists()

    def test_simulate_threads_do_not_change_tables(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1), "--threads", "4"])
        main(["simulate", "--config", cfg, "--out", str(out2), "--threads", "1"])
        assert (out1 / "covariance.csv").read_bytes() == (out2 / "covariance.csv").read_bytes()

    def test_inf_sup_sweep(self, tmp_path):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main(["inf-sup", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "inf_sup.csv").read_text().splitlines()
        assert lines[0] == "steps,mode,eigenvalue,inf_sup,operator_bound,lambda_dt"
        assert len(lines) == 4  # one mode, three refinement levels
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert (max(values) - min(values)) / min(values) <= 0.10
        lambda_dt = [float(line.split(",")[5]) for line in lines[1:]]
        assert lambda_dt == [1.0 / 8, 1.0 / 16, 1.0 / 32]

    @pytest.mark.parametrize("subcommand", ["solve-moment", "solve-covariance", "validate"])
    def test_stiff_rows_in_diagnostics(self, tmp_path, subcommand):
        raw = minimal_config()
        raw["model"]["eigenvalues"] = [40.0]   # lambda dt = 5 on 8 steps
        raw["mc"]["paths"] = 16
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="lambda\\*dt > 2"):
            assert main([subcommand, "--config", cfg, "--out", str(out)]) in (0, 2)
        rows = dict(line.split(",") for line in (out / "diagnostics.csv").read_text().splitlines())
        assert float(rows["max_lambda_dt"]) == 5.0
        assert float(rows["min_ratio"]) == -1.5 / 3.5   # -c / a with a = 3.5, c = 1.5
        report = json.loads((out / "report.json").read_text())
        assert report["diagnostics"]["max_lambda_dt"] == 5.0

    def test_picard_nonconvergence_exits_three_with_trace(self, tmp_path, recwarn):
        raw = minimal_config()
        raw["g"]["g1"] = {"preset": "scalar", "value": 1.3}
        raw["solver"] = {"picard_tol": 1e-10, "picard_max_iter": 4}
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        rc = main(["solve-moment", "--config", cfg, "--out", str(out)])
        assert rc == 3
        trace = (out / "picard_trace.csv").read_text().splitlines()
        assert len(trace) == 5  # header plus one row per attempted iteration

    @pytest.mark.parametrize("subcommand", ["solve-moment", "solve-covariance", "validate"])
    def test_noise_matrix_larger_than_memory_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, subcommand
    ):
        def not_built(*args):
            raise AssertionError("the noise map's action was built")

        # the symmetric action that Picard and the oracle's generator read
        # alike, where each route looks it up
        for route in (pg, oracle):
            monkeypatch.setattr(route, "symmetric_action", not_built)
        n = 8
        # building the action takes noise_map.action_bytes, one byte more
        # than the machine has; validate's Monte Carlo buffers, 27 kB,
        # still fit
        monkeypatch.setattr(config, "_physical_memory", lambda: noise_map.action_bytes(n, n) - 1)
        cfg = self.write_config(tmp_path, multimode_raw_at(n))
        rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.dimension: the noise map's symmetric action")
        assert "physical memory" in err

    def test_oracle_larger_than_memory_refused_before_solving(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("solve_mean", "picard_solve_second_moment", "lyapunov_solve", "_simulate"):
            monkeypatch.setattr(cli, name, no_solve)
        n = 16
        # room for Picard's action, the two solves of 8 steps and the Monte
        # Carlo buffers, but one byte short of the larger of the oracle's
        # two phases
        need = oracle.propagator_bytes(n, n)
        assert need > solve_bytes(8, n, n, 2) > noise_map.action_bytes(n, n)
        monkeypatch.setattr(config, "_physical_memory", lambda: need - 1)
        cfg = self.write_config(tmp_path, multimode_raw_at(n))
        rc = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.dimension: the oracle's")
        assert "physical memory" in err

    @pytest.mark.parametrize("subcommand", ["solve-mean", "validate"])
    def test_steps_larger_than_memory_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, subcommand
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        for name in ("solve_mean", "mean_exact", "picard_solve_second_moment",
                     "lyapunov_solve", "_simulate"):
            monkeypatch.setattr(cli, name, no_solve)
        raw = multimode_raw()
        # the 2^40 x 4 mean coefficients alone take 32 TiB
        raw["time"]["steps"] = 2 ** 40
        cfg = self.write_config(tmp_path, raw)
        rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: time.steps:")

    @pytest.mark.parametrize("subcommand, fields", [
        ("solve-mean", 0), ("solve-moment", 1), ("solve-covariance", 1), ("validate", 2),
    ])
    def test_steps_past_the_solve_count_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, subcommand, fields
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        real = {name: getattr(cli, name) for name in (
            "solve_mean", "mean_exact", "picard_solve_second_moment", "lyapunov_solve", "_simulate")}
        for name in real:
            monkeypatch.setattr(cli, name, no_solve)
        n, steps = 4, 256
        need = solve_bytes(steps, n, n, fields)
        # the coefficients alone fit, 8 K N bytes of the mean or 24 K N^2,
        # more than a field's block diagonals, and so does validate's oracle
        assert need > (24 * steps * n * n if fields else 8 * steps * n)
        assert fields < 2 or need > oracle.propagator_bytes(n, n)
        memory = {"bytes": need - 1}
        monkeypatch.setattr(config, "_physical_memory", lambda: memory["bytes"])
        raw = multimode_raw_at(n)
        raw["time"]["steps"] = steps
        cfg = self.write_config(tmp_path, raw)
        rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: time.steps:")
        assert "physical memory" in err
        # with exactly the count in memory, the run goes ahead
        memory["bytes"] = need
        for name, solve in real.items():
            monkeypatch.setattr(cli, name, solve)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "again")]) in (0, 2)

    @pytest.mark.parametrize("n, steps", [(1, 8), (4, 64), (16, 8), (4, 4096)])
    def test_solve_peaks_within_the_solve_count(self, tmp_path, n, steps):
        # the mean alone, one solve of either load, and validate's two
        # solves with the first field kept, at sizes where the K N^2
        # fields, numpy's buffers or the N^4 noise action dominate; at
        # 4096 steps numpy elides temporaries of 256 KiB and more
        raw = multimode_raw_at(n)
        raw["time"]["steps"] = steps
        cfg = parse_config(raw)

        def peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # stiff modes at 8 steps
            assert peak(lambda: cli.cmd_solve_mean(cfg, tmp_path)) <= solve_bytes(steps, n, n, 0)
            for covariances in [(False,), (True,), (False, True)]:
                assert peak(lambda: cli._solve_moment_problems(cfg, covariances)) <= solve_bytes(
                    steps, n, n, len(covariances)), covariances

    @pytest.mark.parametrize("covariances", [(False,), (True,), (False, True)])
    def test_solutions_hold_two_block_diagonals_a_field(self, covariances):
        # after the solves, each field holds its diagonal and upper block
        # diagonals, 2 K N^2 float64, beside the K N mean and 16 KiB of
        # interpreter objects
        n, steps = 4, 4096
        raw = multimode_raw_at(n)
        raw["time"]["steps"] = steps
        cfg = parse_config(raw)
        tracemalloc.start()
        try:
            solved = cli._solve_moment_problems(cfg, covariances)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(solved[2]) == len(covariances)
        values = 2 * len(covariances) * steps * n * n + steps * n
        assert held <= 8 * values + 16 * 1024

    def test_integer_past_the_digit_limit_is_invalid_json(self, tmp_path, capsys):
        # json.load itself refuses an integer literal of more than 4300 digits
        raw = minimal_config()
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw).replace('"horizon": 1.0', '"horizon": 1' + "0" * 5000))
        assert main(["solve-moment", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["simulate", "validate"])
    def test_path_array_larger_than_memory_refused_before_allocating(
        self, tmp_path, capsys, monkeypatch, subcommand
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("the run went ahead")

        monkeypatch.setattr(cli, "_solve_moment_problems", no_run)
        monkeypatch.setattr(cli, "_simulate", no_run)
        raw = multimode_raw()
        # the moment buffers on 17 nodes of 4 modes take 3.8 MB, but the
        # block of the largest of 32 batches, (31_250_000_000, 17, 4)
        # float64, is 15.5 TiB
        raw["mc"]["paths"] = 10 ** 12
        cfg = self.write_config(tmp_path, raw)
        tracemalloc.start()
        try:
            rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mc.paths:")
        assert "physical memory" in err
        assert peak < 2 ** 20

    def test_paths_beyond_memory_run_in_batches_that_fit(self, tmp_path, capsys, monkeypatch):
        # 2048 paths of 9 recorded values in 32 batches of 64: the run
        # needs the moment buffers and one 64-path batch with the
        # increments it draws ahead, estimate_bytes(2048, 9, 1, 1); a byte
        # less would still hold the buffers with one path a batch, so it
        # is the path count that does not fit. At two paths a batch the
        # reduction of the sums, not the batch, would set the peak
        need = mc.estimate_bytes(2048, 9, 1, 1)
        assert mc.estimate_bytes(32, 9, 1, 1) == mc.estimate_bytes(64, 9, 1, 1) < need
        raw = minimal_config()
        raw["mc"]["paths"] = 2048
        cfg = self.write_config(tmp_path, raw)
        monkeypatch.setattr(config, "_physical_memory", lambda: need)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        monkeypatch.setattr(config, "_physical_memory", lambda: need - 1)
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "again")]) == 1
        assert capsys.readouterr().err.startswith("error: mc.paths:")

    def test_solve_moment_draws_the_coupling_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        real = config.scaled_random_coupling
        monkeypatch.setattr(config, "scaled_random_coupling", counted)
        raw = multimode_raw()
        raw["time"]["steps"] = 32  # the multimode problem on a short table
        cfg = self.write_config(tmp_path, raw)
        assert main(["solve-moment", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("initial, sampled", [
        ({"mean": [1.0], "deterministic": True}, False),
        ({"mean": [1.0], "covariance": [[0.0]]}, True),
    ], ids=["deterministic", "gaussian"])
    def test_only_a_gaussian_initial_value_is_sampled(
        self, tmp_path, monkeypatch, initial, sampled
    ):
        seen = []

        def spy(*args, **kwargs):
            seen.append(kwargs["x0_cov"])
            return real(*args, **kwargs)

        real = cli.simulate_moments
        monkeypatch.setattr(cli, "simulate_moments", spy)
        cfg = self.write_config(tmp_path, minimal_config(initial=initial))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert (seen[0] is not None) == sampled

    def test_config_hash_is_the_digest_of_the_sorted_raw_json(self, tmp_path):
        def reverse(node):
            if not isinstance(node, dict):
                return node
            return {key: reverse(node[key]) for key in reversed(list(node))}

        raw = multimode_raw()
        changed = copy.deepcopy(raw)
        changed["mc"]["seed"] += 1
        hashes = []
        for i, config_raw in enumerate((raw, reverse(raw), changed)):
            path = tmp_path / f"config{i}.json"
            path.write_text(json.dumps(config_raw, indent=2 if i == 1 else None))
            out = tmp_path / f"out{i}"
            assert main(["solve-mean", "--config", str(path), "--out", str(out)]) == 0
            hashes.append(json.loads((out / "report.json").read_text())["config_hash"])
        assert list(reverse(raw)) != list(raw)
        assert hashes[0] == hashes[1] != hashes[2]
        assert hashes[0] == hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("subcommand", ["simulate", "validate"])
    def test_oversized_moment_buffers_refused_before_stepping(
        self, tmp_path, capsys, monkeypatch, subcommand
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("a path was stepped")

        monkeypatch.setattr(mc, "sample_increments", no_draws)
        raw = minimal_config()
        # D = 2**24 + 1 nodes of one mode: a single D x D float64 field is 2 PiB
        raw["time"] = {"steps": 2 ** 24}
        raw["mc"] = {"paths": 64, "seed": 1, "grid_steps": 2 ** 24}
        cfg = self.write_config(tmp_path, raw)
        rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mc.grid_steps:")
        assert "physical memory" in err

    @pytest.mark.parametrize("subcommand, key, need", [
        # the shortest row is two bytes a column: (8 steps x 1 mode)^2 rows
        # of five columns, or four (9 nodes)^2 tables of five and two 9-row
        # tables of three
        ("solve-moment", "time.steps", 640),
        ("solve-covariance", "time.steps", 640),
        ("simulate", "mc.grid_steps", 4 * 81 * 10 + 2 * 9 * 6),
        # two tables of 8 steps x 1 mode rows, of four and five columns
        ("solve-mean", "time.steps", 8 * 8 + 8 * 10),
    ])
    def test_tables_larger_than_free_space_refused_before_solving(
        self, tmp_path, capsys, monkeypatch, subcommand, key, need
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("the solver ran")

        monkeypatch.setattr(_fanout, "_cpus", lambda: 1)  # one process writes no part file
        free = {"bytes": need - 1}
        monkeypatch.setattr(cli.shutil, "disk_usage",
                            lambda path: SimpleNamespace(total=2 ** 40, used=0, free=free["bytes"]))
        real = {name: getattr(cli, name)
                for name in ("_solve_moment_problems", "_simulate", "solve_mean")}
        for name in real:
            monkeypatch.setattr(cli, name, no_solve)
        cfg = self.write_config(tmp_path, minimal_config())
        rc = main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}:")
        assert "free under" in err
        # with exactly the shortest tables' size free, the run goes ahead
        free["bytes"] = need
        for name, solve in real.items():
            monkeypatch.setattr(cli, name, solve)
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "again")]) == 0

    @pytest.mark.parametrize("subcommand, key, need", [
        # at three processes the last table's largest part file, its first,
        # holds 3 of 8 leading indices (ranges of 3, 3 and 2), 8 rows each,
        # or 3 of 9, 9 rows each, on disk twice until the part is removed
        ("solve-moment", "time.steps", 640 + 3 * 8 * 10),
        ("simulate", "mc.grid_steps", 4 * 81 * 10 + 2 * 9 * 6 + 3 * 9 * 10),
    ])
    def test_table_space_counts_the_last_part_file(
        self, tmp_path, capsys, monkeypatch, subcommand, key, need
    ):
        monkeypatch.setattr(_fanout, "_cpus", lambda: 3)
        free = {"bytes": need - 1}
        monkeypatch.setattr(cli.shutil, "disk_usage",
                            lambda path: SimpleNamespace(total=2 ** 40, used=0, free=free["bytes"]))
        cfg = self.write_config(tmp_path, minimal_config())
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}:")
        free["bytes"] = need
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / "again")]) == 0

    @pytest.mark.parametrize("subcommand", ["simulate", "solve-moment"])
    def test_worker_count_does_not_change_the_output(self, tmp_path, monkeypatch, subcommand):
        cfg = self.write_config(tmp_path, minimal_config())
        trees = []
        for procs in (1, 3):
            monkeypatch.setattr(_fanout, "_cpus", lambda: procs)
            out = tmp_path / f"procs{procs}"
            assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
            tree = {path.name: path.read_bytes() for path in out.iterdir()}
            report = json.loads(tree.pop("report.json"))
            assert report.pop("workers") == procs
            report.pop("peak_rss_mib")  # a measurement of this run
            trees.append((tree, report))
        assert trees[0] == trees[1]
        assert not [name for name in trees[0][0] if ".part" in name]
        assert all(name.endswith(".csv") for name in trees[0][0])

    @pytest.mark.parametrize("subcommand", ["simulate", "solve-mean", "solve-moment",
                                            "solve-covariance", "validate", "inf-sup"])
    def test_report_records_peak_rss(self, tmp_path, subcommand):
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) in (0, 2)
        peak = json.loads((out / "report.json").read_text())["peak_rss_mib"]
        assert sorted(peak) == ["children", "self"]
        assert peak["self"] > 1.0 and peak["children"] >= 0.0

    @pytest.mark.parametrize("subcommand", ["simulate", "validate"])
    @pytest.mark.parametrize("wiener_fraction, expected", [(0.5, 6.0), (1.0, 0.0)])
    def test_report_records_expected_jumps_per_path(self, tmp_path, subcommand,
                                                    wiener_fraction, expected):
        # jump rate 3 over a horizon of 2; an all-Wiener driver draws no jumps
        raw = minimal_config(noise={"q_eigenvalues": [1.0], "wiener_fraction": wiener_fraction,
                                    "jump_rate": 3.0})
        raw["model"]["horizon"] = 2.0
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) in (0, 2)
        report = json.loads((out / "report.json").read_text())
        assert report["expected_jumps_per_path"] == expected

    def test_moment_path_never_loads_scipy_linalg(self, tmp_path):
        # numpy is the only runtime dependency: no subcommand and no oracle
        # call may import any part of scipy
        cfg = self.write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        script = f"""
import sys
import numpy as np
from spde_moments.cli import main
for sub in ("solve-moment", "solve-covariance", "solve-mean", "inf-sup", "simulate",
            "validate"):
    # validate exits 2 when a statistical check fails at 64 paths
    assert main([sub, "--config", {cfg!r}, "--out", {str(out)!r}]) in (0, 2), sub
    assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], sub
from spde_moments import (NoiseModel, SpectralModel, AffineNoiseMap, lyapunov_solve,
                          two_time_extend)
model = SpectralModel(eigenvalues=[1.0])
field = lyapunov_solve(model, NoiseModel(q_eigenvalues=[1.0]),
                       AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5)),
                       np.ones(1), np.ones((1, 1)), 4)
assert np.all(np.isfinite(two_time_extend(model, field)))
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_package_imports_only_declared_dependencies(self):
        # every third-party top-level import in the package is a runtime
        # dependency declared in pyproject.toml
        text = (ROOT / "pyproject.toml").read_text()
        block = text[text.index("dependencies = ["):]
        block = block[:block.index("]")]
        declared = {re.match(r"[A-Za-z0-9_.-]+", item).group(0).lower().replace("-", "_")
                    for item in re.findall(r'"([^"]+)"', block)}
        assert declared == {"numpy"}
        imported = set()
        for path in (ROOT / "src" / "spde_moments").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = {name for name in imported
                       if name not in sys.stdlib_module_names and name != "spde_moments"}
        assert third_party == declared

    def test_validate_passes_when_every_moment_is_zero(self, tmp_path):
        # scalar_ou without its additive noise, started at zero: every
        # route gives zero moments exactly, and no relative error divides
        # by a zero scale
        raw = json.loads((ROOT / "configs" / "scalar_ou.json").read_text())
        raw["g"]["g2"]["value"] = 0.0
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        checks = {c["check"]: c for c in json.loads((out / "report.json").read_text())["checks"]}
        assert checks["variational_diag_vs_oracle_rel"]["value"] == 0.0
        assert all(c["status"] == "PASS" for c in checks.values())

    def test_validate_passes_on_relaxed_scalar_config(self, tmp_path, capsys):
        raw = minimal_config()
        raw["time"] = {"steps": 128}
        raw["mc"] = {"paths": 2000, "seed": 3, "grid_steps": 8, "substeps": 8}
        raw["validate"] = {
            "z_threshold": 3.0,
            "min_within_fraction": 0.95,
            "oracle_rel_tol": 0.05,
            "identity_tol": 1e-8,
        }
        cfg = self.write_config(tmp_path, raw)
        out, again = tmp_path / "out", tmp_path / "again"
        rc = main(["validate", "--config", cfg, "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["status"] == "PASS"
        assert (out / "checks.csv").exists()
        captured = capsys.readouterr().out
        assert "PASS" in captured
        assert main(["validate", "--config", cfg, "--out", str(again)]) == 0
        tables = sorted(path.name for path in out.glob("*.csv"))
        assert "diagnostics.csv" in tables
        assert tables == sorted(path.name for path in again.glob("*.csv"))
        for name in tables:
            assert (out / name).read_bytes() == (again / name).read_bytes(), name

    def test_validate_with_gaussian_initial_law(self, tmp_path):
        raw = minimal_config()
        raw["g"] = {"g1": {"preset": "scalar", "value": 0.0},
                    "g2": {"preset": "scalar", "value": 1.0}}
        raw["initial"] = {"mean": [1.0], "covariance": [[0.25]]}
        raw["time"] = {"steps": 128}
        raw["mc"] = {"paths": 4000, "seed": 6, "grid_steps": 16, "substeps": 4}
        raw["validate"] = {
            "z_threshold": 3.0,
            "min_within_fraction": 0.95,
            "oracle_rel_tol": 0.05,
            "identity_tol": 1e-8,
        }
        cfg = self.write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0


def multimode_variant(out):
    """The N=8, K=64 variant of configs/multimode.json that
    scripts/table_hashes.py hashes, written to `out`; returns its path."""
    spec = importlib.util.spec_from_file_location(
        "table_hashes", ROOT / "scripts" / "table_hashes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script.multimode_variant(out)


def rows_2(values):
    for k in range(values.shape[0]):
        for n in range(values.shape[1]):
            yield (k, n, float(values[k, n]))


def rows_4(values):
    for k in range(values.shape[0]):
        for n in range(values.shape[1]):
            for l in range(values.shape[2]):
                for m in range(values.shape[3]):
                    yield (k, n, l, m, float(values[k, n, l, m]))


class TestFieldTables:
    SPECIAL = [0.0, -0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300, 1.0 / 3.0, np.nan, np.inf,
               -np.inf, -2.5]

    @pytest.mark.parametrize("shape, rows", [((6, 5), rows_2), ((3, 2, 4, 2), rows_4)],
                             ids=["two_index", "four_index"])
    def test_field_writer_matches_row_writer_bytes(self, tmp_path, shape, rows):
        values = np.random.default_rng(3).standard_normal(shape)
        flat = values.reshape(-1)
        flat[:len(self.SPECIAL)] = self.SPECIAL
        header = [f"i{j}" for j in range(len(shape))] + ["value"]
        cli._write_table(tmp_path / "rows.csv", header, rows(values))
        cli._write_field(tmp_path / "field.csv", header, values.__getitem__, len(values))
        cli._write_field(tmp_path / "chunks.csv", header, lambda k: values[k],
                         shape[0])
        expected = (tmp_path / "rows.csv").read_bytes()
        for text in (b",-0\n", b",4.9406564584124654e-324\n", b",nan\n", b",-inf\n"):
            assert text in expected
        assert (tmp_path / "field.csv").read_bytes() == expected
        assert (tmp_path / "chunks.csv").read_bytes() == expected

    @staticmethod
    def dense_identity_error(m2, cov, mean):
        return float(np.max(np.abs(
            dense_coeffs(cov) - (dense_coeffs(m2) - np.einsum("kn,lm->knlm", mean, mean)))))

    def test_identity_error_on_block_diagonals_equals_dense_max(self, tmp_path):
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=32, horizon=1.0))
        mean = solve_mean(system, x0)
        m2 = picard_solve_second_moment(
            system, noise, gmap, rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0)))
        cov = picard_solve_second_moment(
            system, noise, gmap, rhs_covariance(system, noise, gmap, mean, np.zeros((4, 4))))
        problems = [(m2, cov, mean)]
        cfg = load_config(multimode_variant(tmp_path))
        *_, mean, (m2, cov) = cli._solve_moment_problems(cfg, (False, True))
        problems.append((m2, cov, mean))
        for m2, cov, mean in problems:
            structured = covariance_identity_error(m2, cov, mean)
            assert structured > 0.0
            assert structured == self.dense_identity_error(m2, cov, mean)

    def test_solve_moment_memory_stays_structured(self, tmp_path):
        # one dense (K, N, K, N) field at K = 64, N = 8 is 2 MiB
        config = str(multimode_variant(tmp_path))
        out = str(tmp_path / "out")
        tracemalloc.start()
        try:
            assert main(["solve-moment", "--config", config, "--out", out]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2 ** 20

    def test_special_values_write_without_warnings(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "workers", lambda parts: 1)  # every row in this process
        values = np.array(self.SPECIAL).reshape(3, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cli._write_field(tmp_path / "special.csv", ["i", "j", "value"], values.__getitem__, 3)
        lines = [f"{i},{j},{cli.FMT % values[i, j]}\n" for i, j in np.ndindex(3, 4)]
        assert (tmp_path / "special.csv").read_text() == "".join(["i,j,value\n", *lines])

    @pytest.mark.parametrize("field", ["multimode", "wide_rows"])
    def test_field_writer_holds_one_row_and_a_block(self, tmp_path, monkeypatch, field):
        # rows of 4096 values, and rows of 320000 values that format in blocks
        monkeypatch.setattr(cli, "workers", lambda parts: 1)  # every row in this process
        if field == "multimode":
            cfg = load_config(ROOT / "configs" / "multimode.json")
            _, _, (solution,) = cli._solve_moment_problems(cfg, (False,))
            row, rows = solution.row, solution.grid.steps
        else:
            values = np.random.default_rng(4).standard_normal((2, 4, 20000, 4))
            row, rows = values.__getitem__, 2
        header = ["i1", "n1", "i2", "n2", "value"]
        tracemalloc.start()
        try:
            cli._write_field(tmp_path / "field.csv", header, row, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= row(0).nbytes + 2 * 2**20
