import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import spde_moments.montecarlo as mc
import spde_moments.oracle as oracle
import spde_moments.petrov_galerkin as pg
from spde_moments import (
    SpectralModel,
    dirichlet_laplacian,
)
from spde_moments.config import parse_config

from conftest import multimode_setup
from criteria_helpers import smoothing_integral

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STEPS = 8


class TestDirichletLaplacian:
    def test_single_mode_unit_length_pi(self):
        model = dirichlet_laplacian(1, math.pi)
        assert model.eigenvalues == pytest.approx([1.0])

    def test_three_modes(self):
        model = dirichlet_laplacian(3, math.pi)
        assert model.eigenvalues == pytest.approx([1.0, 4.0, 9.0])

    def test_unit_length(self):
        model = dirichlet_laplacian(2, 1.0)
        assert model.eigenvalues == pytest.approx([math.pi ** 2, 4 * math.pi ** 2])

    @pytest.mark.parametrize("dim,length", [(0, 1.0), (-2, 1.0), (1, 0.0), (1, -3.0)])
    def test_invalid_arguments(self, dim, length):
        with pytest.raises(ValueError):
            dirichlet_laplacian(dim, length)


class TestModelInvariants:
    def test_rejects_nonpositive_eigenvalue(self):
        with pytest.raises(ValueError):
            SpectralModel(eigenvalues=[0.0, 1.0])

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            SpectralModel(eigenvalues=[2.0, 1.0])

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            SpectralModel(eigenvalues=[1.0], horizon=0.0)


class TestSmoothingIntegral:
    def test_saturates_at_one_half(self):
        model = SpectralModel(eigenvalues=[1.0], horizon=100.0)
        assert abs(smoothing_integral(model, 1, 100.0) - 0.5) < 1e-12

    def test_matches_quadrature(self):
        # independent oracle: numerical quadrature of the integrand
        model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
        expected, _ = quad(lambda t: 1.0 * math.exp(-2.0 * t), 0.0, 1.0)
        value = smoothing_integral(model, 1, 1.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.43233235838169365, abs=1e-15)

    def test_vanishes_for_tiny_upper_limit(self):
        model = SpectralModel(eigenvalues=[1.0, 5.0], horizon=1.0)
        assert abs(smoothing_integral(model, 2, 1e-12)) < 1e-10

    def test_mode_out_of_range(self):
        model = SpectralModel(eigenvalues=[1.0])
        with pytest.raises(ValueError):
            smoothing_integral(model, 2, 0.5)
        with pytest.raises(ValueError):
            smoothing_integral(model, 0, 0.5)

    def test_upper_out_of_range(self):
        model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
        with pytest.raises(ValueError):
            smoothing_integral(model, 1, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(1e-3, 1e3), frac=st.floats(1e-6, 1.0))
    def test_never_exceeds_one_half(self, lam, frac):
        model = SpectralModel(eigenvalues=[lam], horizon=2.0)
        assert smoothing_integral(model, 1, 2.0 * frac) <= 0.5


def spoil(matrix, how):
    """A copy of the matrix, or of each matrix of a stack, made bad in one way."""
    bad = np.array(matrix, dtype=float)
    if how == "shape":
        return bad[..., :3, :3]
    if how == "nan":
        bad[..., 1, 2] = bad[..., 2, 1] = np.nan
    elif how == "asymmetric":
        bad[..., 0, 1] += 1e-9  # past 1e-12 of the max-norm, at most about 1.5 here
    elif how == "asymmetric_4e-6":
        bad[..., 0, 1] *= 1 + 4e-6  # within np.allclose's default rtol of 1e-5
    else:  # indefinite
        bad[..., 0, 0] = -0.5
    return bad


def mean_entry(entry, how):
    model, noise, gmap, x0 = multimode_setup()
    mean = np.array([1.0, np.nan, 0.5, 0.25]) if how == "nan" else np.ones(3)
    if entry == "solve_mean":
        pg.solve_mean(pg.assemble_per_mode(model, pg.TimeGrid(STEPS, model.horizon)), mean)
    elif entry == "mean_exact":
        oracle.mean_exact(model, mean, STEPS)
    elif entry == "lyapunov_solve":
        oracle.lyapunov_solve(model, noise, gmap, mean, np.outer(x0, x0), STEPS)
    else:
        mc.simulate_moments(model, noise, gmap, mean, STEPS, 64, 0, np.diag(x0))


def moment_entry(entry, how):
    model, noise, gmap, x0 = multimode_setup()
    cov = 0.5 * (np.diag(x0) + np.outer(x0, x0))  # positive definite, no zero entry
    if entry == "lyapunov_solve":
        oracle.lyapunov_solve(model, noise, gmap, x0, spoil(cov + np.outer(x0, x0), how), STEPS)
    elif entry.startswith("picard"):
        system = pg.assemble_per_mode(model, pg.TimeGrid(STEPS, model.horizon))
        load = pg.rhs_second_moment(system, noise, gmap, pg.solve_mean(system, x0), cov)
        if entry == "picard_initial":
            load = pg.MomentLoad(spoil(load.initial, how), load.spatial)
        else:
            load = pg.MomentLoad(load.initial, spoil(load.spatial, how))
        pg.picard_solve_second_moment(system, noise, gmap, load)
    elif entry == "simulate_moments":
        mc.simulate_moments(model, noise, gmap, x0, STEPS, 64, 0, spoil(cov, how))
    else:
        raw = json.loads((CONFIGS / "multimode.json").read_text())
        raw["initial"] = {"mean": x0.tolist(), "covariance": spoil(cov, how).tolist()}
        parse_config(raw)


def law_entry(entry, how):
    """An initial second moment that no initial law has: M0 = I beside the
    mean m0 = 1 for the oracle, where M0 - m0 m0^T = I - 1 1^T has the
    eigenvalue 1 - N, and a load whose initial part is -I for Picard."""
    model, noise, gmap, x0 = multimode_setup()
    if entry == "lyapunov_solve":
        oracle.lyapunov_solve(model, noise, gmap, np.ones(4), np.eye(4), STEPS)
    else:
        system = pg.assemble_per_mode(model, pg.TimeGrid(STEPS, model.horizon))
        load = pg.rhs_second_moment(system, noise, gmap, pg.solve_mean(system, x0), -np.eye(4))
        pg.picard_solve_second_moment(system, noise, gmap, load)


MEAN_ROUTES = ["solve_mean", "mean_exact", "lyapunov_solve", "simulate_moments"]
MOMENT_ROUTES = ["lyapunov_solve", "picard_initial", "picard_spatial", "simulate_moments",
                 "parse_config"]
CASES = (
    [(mean_entry, entry, how, fragment) for entry in MEAN_ROUTES
     for how, fragment in (("nan", "initial mean must be finite"),
                           ("length", "initial mean must have length 4"))]
    + [(moment_entry, entry, how, fragment) for entry in MOMENT_ROUTES
       for how, fragment in (("nan", "must be finite"), ("shape", "shape"),
                             ("asymmetric", "must be symmetric"))]
    + [(moment_entry, entry, "indefinite", "must be positive semidefinite")
       for entry in ("simulate_moments", "parse_config")]
    + [(moment_entry, "simulate_moments", "asymmetric_4e-6", "must be symmetric")]
    + [(law_entry, entry, "indefinite", "must be positive semidefinite")
       for entry in ("lyapunov_solve", "picard_initial")]
)


@pytest.mark.parametrize("call, entry, how, fragment", CASES,
                         ids=[f"{call.__name__.split('_')[0]}-{entry}-{how}"
                              for call, entry, how, _ in CASES])
def test_every_route_refuses_bad_initial_data_before_any_work(
        monkeypatch, call, entry, how, fragment):
    # one rule, spectral's state_vector and moment_matrix, in the same words
    # on every route; the sweep, the propagator and the paths are never reached
    def work(*args, **kwargs):
        raise AssertionError(f"{entry} began its work on bad input")

    for module, name in ((pg, "_causal_solve"), (oracle, "_generator"), (oracle, "_expm"),
                         (mc, "fan_out")):
        monkeypatch.setattr(module, name, work)
    with pytest.raises(ValueError, match=fragment):
        call(entry, how)
