"""Two exact symmetries of the moment problem, checked bit for bit on
every route.

- Time: T -> c T, lambda -> lambda / c, gamma -> gamma / c and
  nu -> nu / c map X(c .) to X(.) in law.
- Noise: g1, g2 -> s g1, s g2 and gamma -> gamma / s^2 leave the law of
  G(X) dL unchanged.

With c and s powers of two every product involved is exact in binary,
so the PG mean, fields, Picard trace and inf-sup ends, the oracle's
grid values and the six Monte Carlo estimates must keep their bytes.
Every number that the space-time pairing fixes has to be dt times a
function of lambda dt for the first law to hold.
"""

import functools
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from spde_moments import (
    AffineNoiseMap,
    NoiseModel,
    SpectralModel,
    TimeGrid,
    assemble_per_mode,
    lyapunov_solve,
    per_mode_singular_range,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    simulate_moments,
    solve_mean,
)
from spde_moments.config import initial_law, load_config

from conftest import multimode_setup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
CASES = ["multimode_setup", "multimode", "scalar_multiplicative", "scalar_ou"]
LAWS = [("time", 2.0), ("time", 2.0 ** -3), ("time", 2.0 ** 5), ("noise", 2.0), ("noise", 0.25)]
MC = dict(steps=16, paths=2000, seed=7, substeps=2)
ESTIMATES = ("mean", "second_moment", "covariance", "mean_se", "second_moment_se",
             "covariance_se")


@dataclass(frozen=True)
class Problem:
    model: SpectralModel
    noise: NoiseModel
    gmap: AffineNoiseMap
    mean: np.ndarray
    m2: np.ndarray
    cov: np.ndarray
    random_start: bool   # Monte Carlo samples the initial covariance
    steps: int
    tol: float = 1e-10
    max_iter: int = 100


def problem(case: str) -> Problem:
    if case == "multimode_setup":
        model, noise, gmap, x0 = multimode_setup(4)
        return Problem(model, noise, gmap, x0, np.outer(x0, x0), np.zeros((4, 4)), False, 64)
    cfg = load_config(CONFIGS / f"{case}.json")
    mean, m2, cov = initial_law(cfg)
    return Problem(cfg.model, cfg.noise, cfg.gmap, mean, m2, cov, cfg.initial[2] is not None,
                   cfg.time_steps, cfg.solver_picard_tol, cfg.solver_picard_max_iter)


def rescaled(p: Problem, law: str, factor: float) -> Problem:
    noise = p.noise
    if law == "time":
        model = SpectralModel(p.model.eigenvalues / factor, horizon=p.model.horizon * factor)
        noise = NoiseModel(noise.q_eigenvalues / factor, noise.wiener_fraction,
                           noise.jump_rate / factor)
        return replace(p, model=model, noise=noise)
    gmap = AffineNoiseMap(g1=factor * p.gmap.g1, g2=factor * p.gmap.g2)
    noise = NoiseModel(noise.q_eigenvalues / factor ** 2, noise.wiener_fraction, noise.jump_rate)
    return replace(p, noise=noise, gmap=gmap)


def outputs(p: Problem) -> dict[str, np.ndarray]:
    """Every array the three routes compute for `p`, by name."""
    system = assemble_per_mode(p.model, TimeGrid(steps=p.steps, horizon=p.model.horizon))
    mean = solve_mean(system, p.mean)
    solve = functools.partial(picard_solve_second_moment, system, p.noise, p.gmap,
                              tol=p.tol, max_iter=p.max_iter)
    m2 = solve(rhs_second_moment(system, p.noise, p.gmap, mean, p.m2))
    cov = solve(rhs_covariance(system, p.noise, p.gmap, mean, p.cov))
    smallest, largest = per_mode_singular_range(system)
    oracle = lyapunov_solve(p.model, p.noise, p.gmap, p.mean, p.m2, p.steps)
    estimate = simulate_moments(p.model, p.noise, p.gmap, p.mean,
                                x0_cov=p.cov if p.random_start else None, **MC)
    arrays = {
        "pg_mean": mean, "pg_diagonal": m2.diagonal, "pg_upper": m2.upper,
        "pg_trace": m2.trace, "pg_cov_diagonal": cov.diagonal, "inf_sup_smallest": smallest,
        "inf_sup_largest": largest, "oracle_diag_second_moment": oracle.diag_second_moment,
    }
    arrays.update((f"mc_{name}", getattr(estimate, name)) for name in ESTIMATES)
    return arrays


@functools.lru_cache(maxsize=None)
def reference(case: str) -> dict[str, np.ndarray]:
    return outputs(problem(case))


@pytest.mark.parametrize("law, factor", LAWS)
@pytest.mark.parametrize("case", CASES)
def test_scaling_law_keeps_every_array_bit_for_bit(case, law, factor):
    expected = reference(case)
    got = outputs(rescaled(problem(case), law, factor))
    assert got.keys() == expected.keys()
    for name, array in expected.items():
        assert got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), (
            f"{name}: max difference {np.max(np.abs(got[name] - array)):.3e}")
