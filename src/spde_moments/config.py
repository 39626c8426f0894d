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
    initial: mean, plus exactly one of deterministic (true) /
             second_moment / covariance
    mc:      paths, seed, and optionally grid_steps (default 16 when
             it divides time.steps, else time.steps), substeps
    solver:  picard_tol, picard_max_iter
    validate (optional): z_threshold, min_within_fraction,
             oracle_rel_tol, identity_tol

`parse_config` builds the problem a configuration describes once: the
spectral model, the noise model, the affine noise map and the initial
law. Its digest is the SHA-256 of the raw JSON with its keys sorted.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .levy import NoiseModel
from .noise_map import AffineNoiseMap, scaled_random_coupling
from .spectral import SpectralModel, dirichlet_laplacian, moment_matrix

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "build_model",
    "build_noise",
    "build_gmap",
    "initial_law",
]


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key path."""


def _physical_memory() -> int:
    """Bytes of physical memory of the machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _mapped_bytes() -> int:
    """Bytes of address space the process has mapped (VmSize), or 0
    where /proc/self/statm cannot be read."""
    try:
        with open("/proc/self/statm", encoding="ascii") as statm:
            return int(statm.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError, IndexError):
        return 0


def _check_memory(key: str, need: int, what: str) -> None:
    """Refuse with a ConfigError naming `key` when `what`, which takes
    `need` bytes, would not fit in the machine's physical memory or,
    when it is finite and leaves less, in the address space left under
    the process's soft address-space limit (ulimit -v) beside what the
    process has already mapped: past that limit an allocation fails
    whatever memory is free. The message names the limit that refused."""
    room, limit = _physical_memory(), "of physical memory"
    space = resource.getrlimit(resource.RLIMIT_AS)[0]
    if space != resource.RLIM_INFINITY:
        left = max(0, space - _mapped_bytes())
        if left < room:
            room, limit = left, "left under the address-space limit (ulimit -v)"
    if need > room:
        raise ConfigError(f"{key}: {what} need {need / 2**30:.3g} GiB, more than the "
                          f"{room / 2**30:.3g} GiB {limit}")


def _require(section: dict, key: str, path: str) -> Any:
    if key not in section:
        raise ConfigError(f"{path}.{key}: required key is missing")
    return section[key]


def _section(raw: dict, key: str, required: bool = True) -> dict:
    """The top-level object `key`; an optional section that is absent is empty."""
    if key not in raw:
        if required:
            raise ConfigError(f"{key}: required key is missing")
        return {}
    if not isinstance(raw[key], dict):
        raise ConfigError(f"{key}: expected an object, got {json.dumps(raw[key])}")
    return raw[key]


def _number(value: Any, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {json.dumps(value)}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: expected a finite number, got an integer beyond "
                          "the float range") from None
    if not np.isfinite(number) or (positive and number <= 0.0):
        kind = "finite positive" if positive else "finite"
        raise ConfigError(f"{path}: expected a {kind} number, got {json.dumps(value)}")
    return number


def _nonnegative(value: Any, path: str, high: Optional[float] = None) -> float:
    """A finite number at least zero and, when `high` is given, at most `high`."""
    number = _number(value, path)
    if number < 0.0 or (high is not None and number > high):
        bound = "nonnegative" if high is None else f"in [0, {high:g}]"
        raise ConfigError(f"{path}: must be {bound}, got {json.dumps(value)}")
    return number


def _integer(value: Any, path: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {json.dumps(value)}")
    if value < minimum:
        raise ConfigError(f"{path}: must be at least {minimum}, got {value}")
    return value


def _number_list(value: Any, path: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """The problem a configuration describes, built once, and its run settings.

    `initial` holds the initial mean, second moment and covariance; the
    covariance is None for a deterministic initial value, which Monte
    Carlo then does not sample. `digest` is the SHA-256 of the raw JSON
    with its keys sorted.
    """

    model: SpectralModel
    noise: NoiseModel
    gmap: AffineNoiseMap
    initial: tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]
    time_steps: int
    mc_paths: int
    mc_seed: int
    mc_grid_steps: int
    mc_substeps: int
    solver_picard_tol: float
    solver_picard_max_iter: int
    validate_z_threshold: float
    validate_min_within_fraction: float
    validate_oracle_rel_tol: float
    validate_identity_tol: float
    digest: str

    @property
    def model_dimension(self) -> int:
        return self.model.dim

    @property
    def model_horizon(self) -> float:
        return self.model.horizon


def parse_config(raw: dict) -> ExperimentConfig:
    """Parse and validate a configuration dictionary into the problem it describes.

    Refuses model.dimension before the noise map is built when its
    (N, N, M) coupling g1, 8 N^2 M bytes, would not fit in physical
    memory.
    """
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be an object")
    model_sec, time_sec, noise_sec, g_sec, initial_sec, mc = (
        _section(raw, key) for key in ("model", "time", "noise", "g", "initial", "mc"))
    solver = _section(raw, "solver", required=False)
    validate = _section(raw, "validate", required=False)

    model = _model(model_sec)
    steps = _integer(_require(time_sec, "steps", "time"), "time.steps", 2)
    noise = _noise(noise_sec)
    n, m = model.dim, noise.dim
    _check_memory("model.dimension", 8 * n * n * m,
                  f"the {n} x {n} x {m} float64 of the coupling g.g1")
    g1_spec = _require(g_sec, "g1", "g")
    g2_spec = _require(g_sec, "g2", "g")
    gmap = AffineNoiseMap(g1=_g1(g1_spec, model, noise), g2=_g2(g2_spec, model, noise))
    initial = _initial(initial_sec, model.dim)

    paths = _integer(_require(mc, "paths", "mc"), "mc.paths", 2)  # standard errors need two paths
    seed = _integer(_require(mc, "seed", "mc"), "mc.seed", 0)
    # the Monte Carlo recording grid: 16 steps when they divide time.steps, else time.steps
    grid_steps = _integer(mc.get("grid_steps", 16 if steps % 16 == 0 else steps),
                          "mc.grid_steps", 1)
    if steps % grid_steps != 0:
        raise ConfigError(f"mc.grid_steps: {grid_steps} must divide time.steps = {steps}")

    return ExperimentConfig(
        model=model,
        noise=noise,
        gmap=gmap,
        initial=initial,
        time_steps=steps,
        mc_paths=paths,
        mc_seed=seed,
        mc_grid_steps=grid_steps,
        mc_substeps=_integer(mc.get("substeps", 1), "mc.substeps", 1),
        solver_picard_tol=_number(
            solver.get("picard_tol", 1e-10), "solver.picard_tol", positive=True
        ),
        solver_picard_max_iter=_integer(
            solver.get("picard_max_iter", 100), "solver.picard_max_iter", 1
        ),
        validate_z_threshold=_nonnegative(
            validate.get("z_threshold", 3.0), "validate.z_threshold"),
        validate_min_within_fraction=_nonnegative(
            validate.get("min_within_fraction", 0.99), "validate.min_within_fraction", 1.0),
        validate_oracle_rel_tol=_nonnegative(
            validate.get("oracle_rel_tol", 0.03), "validate.oracle_rel_tol"),
        validate_identity_tol=_nonnegative(
            validate.get("identity_tol", 1e-8), "validate.identity_tol"),
        digest=hashlib.sha256(json.dumps(raw, sort_keys=True).encode()).hexdigest(),
    )


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # undecodable text, or an integer past Python's digit limit
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return parse_config(raw)


def build_model(cfg: ExperimentConfig) -> SpectralModel:
    """The spectral model `parse_config` built."""
    return cfg.model


def build_noise(cfg: ExperimentConfig) -> NoiseModel:
    """The noise model `parse_config` built."""
    return cfg.noise


def build_gmap(cfg: ExperimentConfig, model: SpectralModel, noise: NoiseModel) -> AffineNoiseMap:
    """The noise map `parse_config` built; it was built for `cfg`'s own
    model and noise, so `model` and `noise` are not read."""
    return cfg.gmap


def initial_law(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial mean, second moment, and covariance implied by the config."""
    mean, m2, cov = cfg.initial
    return mean, m2, np.zeros_like(m2) if cov is None else cov


def _model(section: dict) -> SpectralModel:
    dimension = _integer(_require(section, "dimension", "model"), "model.dimension", 1)
    horizon = _number(_require(section, "horizon", "model"), "model.horizon", positive=True)
    eigenvalues = _require(section, "eigenvalues", "model")
    if isinstance(eigenvalues, dict):
        gen = _require(eigenvalues, "generator", "model.eigenvalues")
        if gen != "dirichlet_laplacian":
            raise ConfigError(
                f"model.eigenvalues.generator: unknown generator {json.dumps(gen)}")
        length = _require(eigenvalues, "length", "model.eigenvalues")
        return dirichlet_laplacian(
            dimension, _number(length, "model.eigenvalues.length", positive=True),
            horizon=horizon,
        )
    values = _number_list(eigenvalues, "model.eigenvalues")
    if len(values) != dimension:
        raise ConfigError(
            f"model.eigenvalues: has {len(values)} entries "
            f"but model.dimension is {dimension}"
        )
    try:
        return SpectralModel(eigenvalues=np.asarray(values), horizon=horizon)
    except ValueError as exc:
        raise ConfigError(f"model.eigenvalues: {exc}") from exc


def _noise(section: dict) -> NoiseModel:
    q_eigenvalues = _number_list(_require(section, "q_eigenvalues", "noise"),
                                 "noise.q_eigenvalues")
    wiener_fraction = _number(section.get("wiener_fraction", 1.0), "noise.wiener_fraction")
    jump_rate = _number(section.get("jump_rate", 0.0), "noise.jump_rate")
    try:
        return NoiseModel(q_eigenvalues=np.asarray(q_eigenvalues),
                          wiener_fraction=wiener_fraction, jump_rate=jump_rate)
    except ValueError as exc:
        raise ConfigError(f"noise: {exc}") from exc


def _dense_array(spec: Any, shape: tuple[int, ...], path: str) -> np.ndarray:
    try:
        arr = np.asarray(spec)
    except ValueError as exc:  # ragged nesting
        raise ConfigError(f"{path}: expected a nested list of numbers ({exc})") from exc
    if arr.dtype.kind not in "iuf":  # text, booleans, null or objects
        raise ConfigError(f"{path}: expected a nested list of numbers, got {json.dumps(spec)}")
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
        raise ConfigError(f"{path}.preset: unknown preset {json.dumps(preset)}")
    return [_number(_require(spec, "value", path), f"{path}.value")] * n


def _g1(spec: Any, model: SpectralModel, noise: NoiseModel) -> np.ndarray:
    n, m = model.dim, noise.dim
    if not isinstance(spec, dict):
        return _dense_array(spec, (n, n, m), "g.g1")
    preset = _require(spec, "preset", "g.g1")
    if preset == "scaled_random":
        seed = _integer(_require(spec, "seed", "g.g1"), "g.g1.seed", 0)
        target = _nonnegative(_require(spec, "target_norm", "g.g1"), "g.g1.target_norm")
        try:
            return scaled_random_coupling(model, noise, target, seed)
        except ValueError as exc:  # a coupling of zero norm cannot be rescaled
            raise ConfigError(f"g.g1: {exc}") from exc
    values = _mode_diagonal(spec, preset, n, m, "g.g1")  # checks m = n before g1 exists
    g1 = np.zeros((n, n, n))
    idx = np.arange(n)
    g1[idx, idx, idx] = values
    return g1


def _g2(spec: Any, model: SpectralModel, noise: NoiseModel) -> np.ndarray:
    n, m = model.dim, noise.dim
    if not isinstance(spec, dict):
        return _dense_array(spec, (n, m), "g.g2")
    preset = _require(spec, "preset", "g.g2")
    return np.diag(np.asarray(_mode_diagonal(spec, preset, n, m, "g.g2"), dtype=float))


def _initial(section: dict, n: int) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Initial mean, second moment, and covariance (None when deterministic)."""
    mean = np.asarray(_number_list(_require(section, "mean", "initial"), "initial.mean"))
    if len(mean) != n:
        raise ConfigError(
            f"initial.mean: has {len(mean)} entries but model.dimension is {n}"
        )
    deterministic = section.get("deterministic", False)
    if not isinstance(deterministic, bool):
        raise ConfigError(
            f"initial.deterministic: expected true or false, got {json.dumps(deterministic)}")
    second_moment = section.get("second_moment")
    covariance = section.get("covariance")
    if sum([deterministic, second_moment is not None, covariance is not None]) != 1:
        raise ConfigError(
            "initial: exactly one of deterministic / second_moment / covariance is required"
        )
    if deterministic:
        cov = np.zeros((n, n))
        m2 = np.outer(mean, mean)
    elif second_moment is not None:
        m2 = _dense_array(second_moment, (n, n), "initial.second_moment")
        cov = m2 - np.outer(mean, mean)
    else:
        cov = _dense_array(covariance, (n, n), "initial.covariance")
        m2 = cov + np.outer(mean, mean)
    try:
        moment_matrix(cov, (n, n), "covariance implied by the config", psd=True)
    except ValueError as exc:
        raise ConfigError(f"initial: {exc}") from exc
    for array in (mean, m2, cov):
        array.setflags(write=False)
    return mean, m2, None if deterministic else cov
