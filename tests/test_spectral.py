import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spde_moments import (
    SpectralModel,
    dirichlet_laplacian,
    smoothing_integral,
)


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
