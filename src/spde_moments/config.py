"""Experiment configuration: JSON files with nested sections.

The normative keys are

    model:   dimension, horizon, eigenvalues (explicit list, or
             {"generator": "dirichlet_laplacian", "length": ...})
    time:    steps
    noise:   q_eigenvalues, wiener_fraction, jump_rate
    g:       g1, g2 (dense nested lists, or presets: {"preset": "scalar",
             "value": a}, {"preset": "diagonal", "values": [...]},
             and for g1 {"preset": "scaled_random", "seed": s,
             "target_norm": t})
    initial: mean, plus exactly one of deterministic / second_moment /
             covariance
    mc:      paths, seed, and optionally grid_steps, substeps
    solver:  picard_tol, picard_max_iter
    validate (optional): z_threshold, min_within_fraction,
             oracle_rel_tol, identity_tol

A parsed configuration rewritten with `save_config` re-parses to an
equal value.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .levy import NoiseModel
from .noise_map import AffineNoiseMap, scaled_random_coupling
from .spectral import SpectralModel, dirichlet_laplacian

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "save_config",
    "parse_config",
    "build_model",
    "build_noise",
    "build_gmap",
    "initial_law",
]


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key path."""


def _require(section: dict, key: str, path: str) -> Any:
    if key not in section:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return section[key]


def _number(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    number = float(value)
    if not np.isfinite(number) or (positive and number <= 0.0):
        kind = "finite positive" if positive else "finite"
        raise ConfigError(f"{path}: expected a {kind} number, got {value!r}")
    return number


def _integer(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed configuration; g1/g2 and matrices keep their raw JSON form."""

    model_dimension: int
    model_horizon: float
    model_eigenvalues: Any          # list of floats or generator dict
    time_steps: int
    noise_q_eigenvalues: list
    noise_wiener_fraction: float
    noise_jump_rate: float
    g1_spec: Any
    g2_spec: Any
    initial_mean: list
    initial_deterministic: bool
    initial_second_moment: Optional[list]
    initial_covariance: Optional[list]
    mc_paths: int
    mc_seed: int
    mc_grid_steps: Optional[int]
    mc_substeps: int
    solver_picard_tol: float
    solver_picard_max_iter: int
    validate_z_threshold: float = 3.0
    validate_min_within_fraction: float = 0.99
    validate_oracle_rel_tol: float = 0.03
    validate_identity_tol: float = 1e-8

    def to_dict(self) -> dict:
        initial: dict[str, Any] = {"mean": self.initial_mean}
        if self.initial_deterministic:
            initial["deterministic"] = True
        if self.initial_second_moment is not None:
            initial["second_moment"] = self.initial_second_moment
        if self.initial_covariance is not None:
            initial["covariance"] = self.initial_covariance
        mc: dict[str, Any] = {"paths": self.mc_paths, "seed": self.mc_seed,
                              "substeps": self.mc_substeps}
        if self.mc_grid_steps is not None:
            mc["grid_steps"] = self.mc_grid_steps
        return {
            "model": {
                "dimension": self.model_dimension,
                "horizon": self.model_horizon,
                "eigenvalues": self.model_eigenvalues,
            },
            "time": {"steps": self.time_steps},
            "noise": {
                "q_eigenvalues": self.noise_q_eigenvalues,
                "wiener_fraction": self.noise_wiener_fraction,
                "jump_rate": self.noise_jump_rate,
            },
            "g": {"g1": self.g1_spec, "g2": self.g2_spec},
            "initial": initial,
            "mc": mc,
            "solver": {
                "picard_tol": self.solver_picard_tol,
                "picard_max_iter": self.solver_picard_max_iter,
            },
            "validate": {
                "z_threshold": self.validate_z_threshold,
                "min_within_fraction": self.validate_min_within_fraction,
                "oracle_rel_tol": self.validate_oracle_rel_tol,
                "identity_tol": self.validate_identity_tol,
            },
        }


def parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a configuration dictionary."""
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    model = _require(raw, "model", "")
    time_sec = _require(raw, "time", "")
    noise = _require(raw, "noise", "")
    g_sec = _require(raw, "g", "")
    initial = _require(raw, "initial", "")
    mc = _require(raw, "mc", "")
    solver = raw.get("solver", {})
    validate = raw.get("validate", {})

    dimension = _integer(_require(model, "dimension", "model"), "model.dimension", 1)
    horizon = _number(_require(model, "horizon", "model"), "model.horizon", positive=True)
    eigenvalues = _require(model, "eigenvalues", "model")
    if isinstance(eigenvalues, dict):
        gen = _require(eigenvalues, "generator", "model.eigenvalues")
        if gen != "dirichlet_laplacian":
            raise ConfigError(f"model.eigenvalues.generator: unknown generator {gen!r}")
        length = _require(eigenvalues, "length", "model.eigenvalues")
        _number(length, "model.eigenvalues.length", positive=True)
    else:
        values = _number_list(eigenvalues, "model.eigenvalues")
        if len(values) != dimension:
            raise ConfigError(
                f"model.eigenvalues: has {len(values)} entries "
                f"but model.dimension is {dimension}"
            )

    steps = _integer(_require(time_sec, "steps", "time"), "time.steps", 2)

    q_eigenvalues = _number_list(_require(noise, "q_eigenvalues", "noise"), "noise.q_eigenvalues")
    wiener_fraction = _number(noise.get("wiener_fraction", 1.0), "noise.wiener_fraction")
    jump_rate = _number(noise.get("jump_rate", 0.0), "noise.jump_rate")

    g1_spec = _require(g_sec, "g1", "g")
    g2_spec = _require(g_sec, "g2", "g")

    mean = _number_list(_require(initial, "mean", "initial"), "initial.mean")
    if len(mean) != dimension:
        raise ConfigError(
            f"initial.mean: has {len(mean)} entries but model.dimension is {dimension}"
        )
    deterministic = bool(initial.get("deterministic", False))
    second_moment = initial.get("second_moment")
    covariance = initial.get("covariance")
    n_given = sum([deterministic, second_moment is not None, covariance is not None])
    if n_given != 1:
        raise ConfigError(
            "initial: exactly one of deterministic / second_moment / covariance is required"
        )

    paths = _integer(_require(mc, "paths", "mc"), "mc.paths", 2)  # standard errors need two paths
    seed = _integer(_require(mc, "seed", "mc"), "mc.seed", 0)
    grid_steps = mc.get("grid_steps")
    if grid_steps is not None:
        grid_steps = _integer(grid_steps, "mc.grid_steps", 1)
        if steps % grid_steps != 0:
            raise ConfigError(
                f"mc.grid_steps: {grid_steps} must divide time.steps = {steps}"
            )
    substeps = _integer(mc.get("substeps", 1), "mc.substeps", 1)

    cfg = ExperimentConfig(
        model_dimension=dimension,
        model_horizon=horizon,
        model_eigenvalues=eigenvalues,
        time_steps=steps,
        noise_q_eigenvalues=q_eigenvalues,
        noise_wiener_fraction=wiener_fraction,
        noise_jump_rate=jump_rate,
        g1_spec=g1_spec,
        g2_spec=g2_spec,
        initial_mean=mean,
        initial_deterministic=deterministic,
        initial_second_moment=second_moment,
        initial_covariance=covariance,
        mc_paths=paths,
        mc_seed=seed,
        mc_grid_steps=grid_steps,
        mc_substeps=substeps,
        solver_picard_tol=_number(
            solver.get("picard_tol", 1e-10), "solver.picard_tol", positive=True
        ),
        solver_picard_max_iter=_integer(
            solver.get("picard_max_iter", 100), "solver.picard_max_iter", 1
        ),
        validate_z_threshold=_number(validate.get("z_threshold", 3.0), "validate.z_threshold"),
        validate_min_within_fraction=_number(
            validate.get("min_within_fraction", 0.99), "validate.min_within_fraction"
        ),
        validate_oracle_rel_tol=_number(
            validate.get("oracle_rel_tol", 0.03), "validate.oracle_rel_tol"
        ),
        validate_identity_tol=_number(
            validate.get("identity_tol", 1e-8), "validate.identity_tol"
        ),
    )
    # force full validation of the numeric sections up front
    model_obj = build_model(cfg)
    noise_obj = build_noise(cfg)
    build_gmap(cfg, model_obj, noise_obj)
    initial_law(cfg)
    return cfg


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def build_model(cfg: ExperimentConfig) -> SpectralModel:
    if isinstance(cfg.model_eigenvalues, dict):
        return dirichlet_laplacian(
            cfg.model_dimension,
            cfg.model_eigenvalues["length"],
            horizon=cfg.model_horizon,
        )
    try:
        return SpectralModel(
            eigenvalues=np.asarray(cfg.model_eigenvalues, dtype=float),
            horizon=cfg.model_horizon,
        )
    except ValueError as exc:
        raise ConfigError(f"model.eigenvalues: {exc}") from exc


def build_noise(cfg: ExperimentConfig) -> NoiseModel:
    try:
        return NoiseModel(
            q_eigenvalues=np.asarray(cfg.noise_q_eigenvalues, dtype=float),
            wiener_fraction=cfg.noise_wiener_fraction,
            jump_rate=cfg.noise_jump_rate,
        )
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _dense_array(spec: Any, shape: tuple[int, ...], path: str) -> np.ndarray:
    try:
        arr = np.asarray(spec)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{path}: expected a nested list of numbers ({exc})") from exc
    if arr.dtype.kind not in "iuf":  # text, booleans, null or objects
        raise ConfigError(f"{path}: expected a nested list of numbers, got {spec!r}")
    arr = arr.astype(float)
    if arr.shape != shape:
        raise ConfigError(f"{path}: has shape {arr.shape} but dimensions require {shape}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: entries must be finite")
    return arr


def _mode_diagonal(spec: dict, preset: Any, n: int, m: int, path: str) -> list[float]:
    """Per-mode values of a "scalar" or "diagonal" preset at key path `path`.

    Both presets drive state mode i by noise mode i only, so they need
    as many noise modes as state modes; "scalar" is the one-mode case.
    """
    if preset == "scalar":
        if n != 1 or m != 1:
            raise ConfigError(
                f"{path}: scalar preset needs model.dimension = 1 and a single "
                f"noise mode, got dimensions ({n}, {m})"
            )
    elif preset == "diagonal":
        if n != m:
            raise ConfigError(
                f"{path}: diagonal preset needs model.dimension = noise modes, "
                f"got {n} vs {m}"
            )
        if "values" in spec:
            vals = _number_list(spec["values"], f"{path}.values")
            if len(vals) != n:
                raise ConfigError(
                    f"{path}.values: has {len(vals)} entries but model.dimension is {n}"
                )
            return vals
    else:
        raise ConfigError(f"{path}.preset: unknown preset {preset!r}")
    return [_number(_require(spec, "value", path), f"{path}.value")] * n


def _build_g1(cfg: ExperimentConfig, model: SpectralModel, noise: NoiseModel) -> np.ndarray:
    spec = cfg.g1_spec
    n, m = model.dim, noise.dim
    if not isinstance(spec, dict):
        return _dense_array(spec, (n, n, m), "g.g1")
    preset = _require(spec, "preset", "g.g1")
    if preset == "scaled_random":
        seed = _integer(_require(spec, "seed", "g.g1"), "g.g1.seed", 0)
        target = _number(_require(spec, "target_norm", "g.g1"), "g.g1.target_norm")
        if target < 0.0:
            raise ConfigError("g.g1.target_norm: must be nonnegative")
        try:
            return scaled_random_coupling(model, noise, target, seed)
        except ValueError as exc:  # a coupling of zero norm cannot be rescaled
            raise ConfigError(f"g.g1: {exc}") from exc
    g1 = np.zeros((n, n, n))
    idx = np.arange(n)
    g1[idx, idx, idx] = _mode_diagonal(spec, preset, n, m, "g.g1")
    return g1


def _build_g2(cfg: ExperimentConfig, model: SpectralModel, noise: NoiseModel) -> np.ndarray:
    spec = cfg.g2_spec
    n, m = model.dim, noise.dim
    if not isinstance(spec, dict):
        return _dense_array(spec, (n, m), "g.g2")
    preset = _require(spec, "preset", "g.g2")
    return np.diag(np.asarray(_mode_diagonal(spec, preset, n, m, "g.g2"), dtype=float))


def build_gmap(cfg: ExperimentConfig, model: SpectralModel, noise: NoiseModel) -> AffineNoiseMap:
    return AffineNoiseMap(g1=_build_g1(cfg, model, noise), g2=_build_g2(cfg, model, noise))


def initial_law(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial mean, second moment, and covariance implied by the config."""
    n = cfg.model_dimension
    mean = np.asarray(cfg.initial_mean, dtype=float)
    if cfg.initial_deterministic:
        cov = np.zeros((n, n))
        m2 = np.outer(mean, mean)
    elif cfg.initial_second_moment is not None:
        m2 = _dense_array(cfg.initial_second_moment, (n, n), "initial.second_moment")
        cov = m2 - np.outer(mean, mean)
    else:
        cov = _dense_array(cfg.initial_covariance, (n, n), "initial.covariance")
        m2 = cov + np.outer(mean, mean)
    scale = max(1.0, float(np.abs(cov).max()))
    if np.max(np.abs(cov - cov.T)) > 1e-12 * scale:
        raise ConfigError("initial: covariance implied by the config is not symmetric")
    eigs = np.linalg.eigvalsh(cov)
    if eigs.min() < -1e-10 * max(1.0, float(eigs.max(initial=0.0))):
        raise ConfigError("initial: covariance implied by the config is not positive semidefinite")
    return mean, m2, cov
