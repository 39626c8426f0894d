import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import spde_moments.noise_map as noise_map
import spde_moments.oracle as oracle
from spde_moments import (
    AffineNoiseMap,
    MomentField,
    NoiseModel,
    SpectralModel,
    lyapunov_solve,
    mean_exact,
    simulate_moments,
    two_time_extend,
)

from conftest import multimode_setup
from dense_reference import (
    fresh_temporaries_expm,
    kronecker_generator,
    rk4_second_moment,
    two_time_transpose_loop,
    unit_input_generator,
)
from spde_moments.config import build_gmap, build_model, build_noise, initial_law, load_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


class TestMeanExact:
    def test_zero_initial_mean(self):
        model = SpectralModel(eigenvalues=[1.0, 2.0])
        np.testing.assert_array_equal(mean_exact(model, np.zeros(2), 4), np.zeros((5, 2)))

    def test_scalar_decay(self):
        model = SpectralModel(eigenvalues=[1.0])
        out = mean_exact(model, np.ones(1), 2)
        assert out[-1, 0] == pytest.approx(np.exp(-1.0))

    def test_per_mode_decay(self):
        model = SpectralModel(eigenvalues=[1.0, 4.0])
        out = mean_exact(model, np.ones(2), 2)
        np.testing.assert_allclose(out[1], [np.exp(-0.5), np.exp(-2.0)], rtol=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_mean(self, bad):
        model = SpectralModel(eigenvalues=[1.0, 2.0])
        with pytest.raises(ValueError, match="initial mean must be finite"):
            mean_exact(model, np.array([bad, 1.0]), 4)


def multiplicative_form(gmap, noise, second):
    """The package's multiplicative form of second moments, through the
    noise map's symmetric action."""
    return noise_map.multiplicative_form(noise_map.symmetric_action(gmap, noise), second)


class TestNoiseQuadraticForm:
    def test_additive_only(self):
        rng = np.random.default_rng(0)
        g2 = rng.standard_normal((3, 2))
        gmap = AffineNoiseMap(g1=np.zeros((3, 3, 2)), g2=g2)
        noise = NoiseModel(q_eigenvalues=[0.5, 0.2])
        second = rng.standard_normal((3, 3))
        out = (multiplicative_form(gmap, noise, second + second.T)
               + noise_map.mean_form(gmap, noise, rng.standard_normal(3)))
        np.testing.assert_allclose(out, g2 @ np.diag([0.5, 0.2]) @ g2.T, rtol=1e-13)

    def test_zero_moment_and_mean(self):
        rng = np.random.default_rng(1)
        g1 = rng.standard_normal((2, 2, 2))
        g2 = rng.standard_normal((2, 2))
        gmap = AffineNoiseMap(g1=g1, g2=g2)
        noise = NoiseModel(q_eigenvalues=[1.0, 2.0])
        out = (multiplicative_form(gmap, noise, np.zeros((2, 2)))
               + noise_map.mean_form(gmap, noise, np.zeros(2)))
        np.testing.assert_allclose(out, g2 @ np.diag([1.0, 2.0]) @ g2.T, rtol=1e-13)

    def test_scalar_expansion(self):
        # expanding (a x + b)^2 in the first two moments of x gives
        # a^2 M + 2 a b m + b^2
        a, b, M, m = 0.5, 0.25, 1.7, -0.3
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), a), g2=np.full((1, 1), b))
        noise = NoiseModel(q_eigenvalues=[1.0])
        out = (multiplicative_form(gmap, noise, np.array([[M]]))
               + noise_map.mean_form(gmap, noise, np.array([m])))
        assert out[0, 0] == pytest.approx(a * a * M + 2 * a * b * m + b * b)

    @pytest.mark.parametrize("lead", [(), (3,)], ids=["single", "stack"])
    def test_matches_brute_force_indices(self, lead):
        rng = np.random.default_rng(2)
        n, mdim = 3, 2
        g1 = rng.standard_normal((n, n, mdim))
        g2 = rng.standard_normal((n, mdim))
        gamma = rng.random(mdim)
        Mmats = rng.standard_normal(lead + (n, n))
        Mmats = Mmats + np.swapaxes(Mmats, -1, -2)
        mvecs = rng.standard_normal(lead + (n,))
        gmap = AffineNoiseMap(g1=g1, g2=g2)
        noise = NoiseModel(q_eigenvalues=gamma)
        out = (multiplicative_form(gmap, noise, Mmats)
               + noise_map.mean_form(gmap, noise, mvecs))
        assert out.shape == Mmats.shape
        for idx in np.ndindex(lead):
            Mmat, mvec = Mmats[idx], mvecs[idx]
            expected = np.zeros((n, n))
            for i1 in range(n):
                for i2 in range(n):
                    for m in range(mdim):
                        row = sum(g1[i1, j, m] * mvec[j] for j in range(n))
                        col = sum(g1[i2, j, m] * mvec[j] for j in range(n))
                        quad = sum(
                            g1[i1, j1, m] * g1[i2, j2, m] * Mmat[j1, j2]
                            for j1 in range(n)
                            for j2 in range(n)
                        )
                        expected[i1, i2] += gamma[m] * (
                            quad + row * g2[i2, m] + g2[i1, m] * col + g2[i1, m] * g2[i2, m]
                        )
            np.testing.assert_allclose(out[idx], expected, rtol=1e-12)


class TestLyapunovSolve:
    def test_rejects_nonsymmetric_initial(self):
        model = SpectralModel(eigenvalues=[1.0, 2.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            lyapunov_solve(model, noise, gmap, np.zeros(2), np.array([[0.0, 1.0], [0.0, 0.0]]), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("argument", ["m0", "M0"])
    def test_rejects_non_finite_initial_data(self, monkeypatch, argument, bad):
        def no_work(*args):
            raise AssertionError("the propagator was formed")

        monkeypatch.setattr(oracle, "_generator", no_work)
        model, noise, gmap, x0 = multimode_setup()
        m0, M0 = x0.copy(), np.outer(x0, x0)
        if argument == "m0":
            m0[1] = bad
            message = "initial mean must be finite"
        else:
            M0[1, 2] = M0[2, 1] = bad
            message = "initial second moment must be finite"
        with pytest.raises(ValueError, match=message):
            lyapunov_solve(model, noise, gmap, m0, M0, 4)

    def test_noise_free_flow(self):
        # without noise the second moment follows the tensorized semigroup:
        # M(t)_{nm} = exp(-(lambda_n + lambda_m) t) M0_{nm}
        model = SpectralModel(eigenvalues=[1.0, 3.0])
        noise = NoiseModel(q_eigenvalues=[0.0])
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        M0 = np.array([[2.0, 0.5], [0.5, 1.0]])
        field = lyapunov_solve(model, noise, gmap, np.zeros(2), M0, 8)
        lam = model.eigenvalues
        for k, t in enumerate(field.grid):
            expected = np.exp(-(lam[:, None] + lam[None, :]) * t) * M0
            np.testing.assert_allclose(field.diag_second_moment[k], expected, atol=1e-8)

    def test_scalar_additive_closed_form(self):
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        field = lyapunov_solve(model, noise, gmap, np.zeros(1), np.zeros((1, 1)), 16)
        expected = 0.5 * -np.expm1(-2.0 * field.grid)
        np.testing.assert_allclose(field.diag_second_moment[:, 0, 0], expected, atol=1e-9)

    def test_scalar_multiplicative_against_refined_integration(self):
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5))
        args = (model, noise, gmap, np.ones(1), np.ones((1, 1)), 16)
        coarse = rk4_second_moment(*args, substeps=4)
        fine = rk4_second_moment(*args, substeps=40)
        np.testing.assert_allclose(coarse, fine, atol=1e-8)
        np.testing.assert_allclose(lyapunov_solve(*args).diag_second_moment, fine, atol=1e-8)

    def test_shipped_multimode_config_against_runge_kutta(self):
        # the exact propagator against Runge-Kutta at h = dt/16, whose own
        # error is below 1e-12 here, and at the coarser h = dt/4
        cfg = load_config(CONFIGS / "multimode.json")
        model, noise = build_model(cfg), build_noise(cfg)
        gmap = build_gmap(cfg, model, noise)
        mean0, m2_0, _ = initial_law(cfg)
        args = (model, noise, gmap, mean0, m2_0, cfg.time_steps)
        exact = lyapunov_solve(*args).diag_second_moment
        scale = np.max(np.abs(exact))
        for substeps, rtol in ((16, 1e-11), (4, 1e-9)):
            reference = rk4_second_moment(*args, substeps=substeps)
            assert np.max(np.abs(exact - reference)) <= rtol * scale

    def test_stiff_mode_matches_closed_form(self):
        # lambda dt = 6.25: outside the stability interval of explicit
        # Runge-Kutta at dt/4, exact for the one-step propagator
        lam = 100.0
        model = SpectralModel(eigenvalues=[lam], horizon=1.0)
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        field = lyapunov_solve(model, noise, gmap, np.zeros(1), np.zeros((1, 1)), 16)
        expected = -np.expm1(-2.0 * lam * field.grid) / (2.0 * lam)
        np.testing.assert_allclose(field.diag_second_moment[:, 0, 0], expected, rtol=1e-12)

    def test_noise_forms_do_not_grow_with_the_step_count(self, monkeypatch):
        # the propagator is formed once: the noise forms are called while
        # the generator is built and never per step
        model, noise, gmap, x0 = multimode_setup()
        calls = []
        for name in ("mean_form", "symmetric_action"):
            original = getattr(oracle, name)

            def counter(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(oracle, name, counter)
        counts = []
        for steps in (4, 4096):
            calls.clear()
            lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), steps)
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == ["mean_form", "symmetric_action"]

    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    def test_peak_memory_within_the_propagator_estimate(self, n):
        # building the noise map's action and the live Pade matrices bound
        # what the solve holds beside its grid values, small at 4 steps
        model, noise, gmap, x0 = multimode_setup(n, 4 * np.pi)
        tracemalloc.start()
        try:
            lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= oracle.propagator_bytes(n, noise.dim)

    def test_additive_matches_quadrature_formula(self):
        # explicit representation: M(t) = S(t) M0 S(t)
        # + int_0^t S(t-r) (G2-term) S(t-r) dr, evaluated by fine quadrature
        model = SpectralModel(eigenvalues=[1.0, 2.5])
        noise = NoiseModel(q_eigenvalues=[0.6, 0.3])
        rng = np.random.default_rng(3)
        g2 = rng.standard_normal((2, 2))
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 2)), g2=g2)
        M0 = np.array([[1.0, 0.2], [0.2, 0.5]])
        field = lyapunov_solve(model, noise, gmap, np.zeros(2), M0, 8)
        lam = model.eigenvalues
        forcing = g2 @ np.diag(noise.q_eigenvalues) @ g2.T
        rates = lam[:, None] + lam[None, :]
        for k, t in enumerate(field.grid):
            expected = np.exp(-rates * t) * M0
            # closed antiderivative of exp(-rate (t - r)) over r in [0, t]
            expected = expected + forcing * -np.expm1(-rates * t) / rates
            np.testing.assert_allclose(field.diag_second_moment[k], expected, atol=1e-8)

    def test_positive_semidefinite_preserved(self):
        model, noise, gmap, x0 = multimode_setup()
        field = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 32)
        for M in field.diag_second_moment:
            assert np.linalg.eigvalsh(M).min() >= -1e-10

    def test_consistent_with_monte_carlo(self):
        # the oracle is exact on its grid; the simulation needs a scheme
        # step sized to the fastest mode for small weak bias
        model, noise, gmap, x0 = multimode_setup()
        field = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 8)
        est = simulate_moments(model, noise, gmap, x0, 8, 5_000, seed=17, substeps=512)
        diag_mc = np.einsum("knkm->knm", est.second_moment)
        diag_se = np.einsum("knkm->knm", est.second_moment_se)
        diff = np.abs(field.diag_second_moment - diag_mc)
        slack = 1e-12 * np.max(np.abs(field.diag_second_moment))
        assert np.all(diff <= 3 * diag_se + slack)


def generator_case(name):
    """Model, noise and map of a shipped config, of the N=16 benchmark
    (wide-n16, d = 153) or of one stiff mode with lambda = 100."""
    if name == "wide-n16":
        model, noise, gmap, _ = multimode_setup(16, 4 * np.pi)
    elif name == "stiff":
        model = SpectralModel(eigenvalues=[100.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.ones((1, 1)))
    else:
        cfg = load_config(CONFIGS / f"{name}.json")
        model, noise = build_model(cfg), build_noise(cfg)
        gmap = build_gmap(cfg, model, noise)
    return model, noise, gmap


class TestGenerator:
    @pytest.mark.parametrize("name", [
        "scalar_ou", "scalar_multiplicative", "multimode", "wide-n16", "stiff"])
    def test_matches_unit_input_columns(self, name):
        # the columns read off the symmetric action against the rate at
        # every unit input; the stiff case has lambda = 100
        model, noise, gmap = generator_case(name)
        gen = oracle._generator(model, noise, gmap)
        reference = unit_input_generator(model, noise, gmap)
        assert gen.shape == reference.shape
        assert np.max(np.abs(gen - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_builds_the_multiplicative_matrix_once(self, monkeypatch):
        # the symmetric action is built once, and the block read off it,
        # and no moment goes through multiplicative_form; the mean and
        # constant columns come from mean_form, which forms neither
        model, noise, gmap, _ = multimode_setup()
        calls = []
        original = oracle.symmetric_action

        def counter(*args):
            calls.append(1)
            return original(*args)

        def not_built(*args):
            raise AssertionError("the multiplicative form was applied")

        monkeypatch.setattr(oracle, "symmetric_action", counter)
        monkeypatch.setattr(noise_map, "multiplicative_form", not_built)
        oracle._generator(model, noise, gmap)
        assert len(calls) == 1

    @pytest.mark.parametrize("name", [
        "scalar_ou", "scalar_multiplicative", "multimode", "wide-n16", "stiff"])
    def test_equals_the_kronecker_gather_byte_for_byte(self, name):
        # gathered from the pair products, with the same additions in the
        # same order as reading the block off T; tobytes also tells -0.0
        # from +0.0
        model, noise, gmap = generator_case(name)
        gen = oracle._generator(model, noise, gmap)
        assert gen.tobytes() == kronecker_generator(model, noise, gmap).tobytes()


class TestExpm:
    @pytest.mark.parametrize("name, steps", [
        (name, steps)
        for name in ("scalar_ou", "scalar_multiplicative", "multimode")
        for steps in (16, 256)
    ] + [("wide-n16", 4), ("wide-n16", 4096), ("stiff", 16)])
    def test_matches_scipy(self, name, steps):
        # the horizon of every case is 1, so dt A is the generator over steps
        if name == "wide-n16":  # the N=16 benchmark generator, d = 153
            model, noise, gmap, _ = multimode_setup(16, 4 * np.pi)
            gen = oracle._generator(model, noise, gmap)
        elif name == "stiff":  # lambda dt = 6.25
            gen = oracle._generator(SpectralModel(eigenvalues=[100.0]),
                                    NoiseModel(q_eigenvalues=[1.0]),
                                    AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1))))
        else:
            cfg = load_config(CONFIGS / f"{name}.json")
            model, noise = build_model(cfg), build_noise(cfg)
            gen = oracle._generator(model, noise, build_gmap(cfg, model, noise))
        reference = expm(gen / steps)
        error = np.max(np.abs(oracle._expm(gen / steps) - reference))
        assert error <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("name, steps, scalings", [
        (name, steps, scalings)
        for name in ("scalar_ou", "scalar_multiplicative", "multimode", "wide-n16")
        for steps, scalings in ((1, None), (256, 0))
    ] + [("multimode", 4, 1), ("wide-n16", 32, 0), ("wide-n16", 4096, 0)])
    def test_equals_fresh_temporaries_byte_for_byte(self, name, steps, scalings):
        # the same approximant and association order, accumulated in place;
        # tobytes also tells -0.0 from +0.0. At one step the two N=4
        # generators need s = 3 squarings and the scalar ones none
        model, noise, gmap = generator_case(name)
        a = model.horizon / steps * oracle._generator(model, noise, gmap)
        norm = np.abs(a).sum(axis=0).max()
        s = int(np.ceil(np.log2(norm / oracle._THETA13))) if norm > oracle._THETA13 else 0
        assert s == (scalings if scalings is not None else 0 if name.startswith("scalar") else 3)
        assert oracle._expm(a).tobytes() == fresh_temporaries_expm(a).tobytes()

    def test_identity_term_writes_positive_zeros_off_the_diagonal(self):
        # adding b I adds +0.0 off the diagonal, which turns -0.0 into +0.0
        out = np.array([[1.0, -0.0, -0.0], [-0.0, -0.0, 2.0], [-0.0, 0.0, -3.0]])
        expected = out + 0.5 * np.eye(3)
        oracle._add_identity(out, 0.5)
        assert out.tobytes() == expected.tobytes()
        assert not np.signbit(out[0, 1])

    @pytest.mark.parametrize("name, steps", [("wide-n16", 32), ("multimode", 1), ("wide-n32", 32)])
    def test_peak_within_six_matrices(self, name, steps):
        # U is finished, and a dropped, before V is built, so at most six
        # matrices of a's size are live, and a seventh on Python 3.10,
        # which keeps the argument alive through the call: at 32 steps the
        # wide generators need no scaling, and multimode at one step three
        # squarings
        if name == "wide-n32":
            model, noise, gmap, _ = multimode_setup(32, 4 * np.pi)
        else:
            model, noise, gmap = generator_case(name)
        gen = model.horizon / steps * oracle._generator(model, noise, gmap)
        oracle._expm(gen.copy())  # numpy's caches of small freed blocks
        tracemalloc.start()
        try:
            oracle._expm(gen.copy())  # a fresh argument, which the call may free
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (6 if sys.version_info >= (3, 11) else 7) * gen.nbytes + 8192

    def test_zero_matrix_gives_identity(self):
        np.testing.assert_array_equal(oracle._expm(np.zeros((5, 5))), np.eye(5))

    def test_diagonal_matrix(self):
        # 1-norm 12: two squarings
        diag = np.array([-12.0, -2.5, 0.0, 0.75, 4.0])
        np.testing.assert_allclose(oracle._expm(np.diag(diag)), np.diag(np.exp(diag)),
                                   rtol=1e-14, atol=0.0)

    def test_jordan_block(self):
        a = 1.5
        expected = np.exp(a) * np.array([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_allclose(oracle._expm(np.array([[a, 1.0], [0.0, a]])), expected,
                                   rtol=1e-14)

    def test_large_norm_inverse(self):
        # a skew-symmetric a of 1-norm 100 needs s = 5 squarings after
        # scaling; its exponential is orthogonal, so the product is well
        # conditioned
        rng = np.random.default_rng(4)
        a = rng.standard_normal((6, 6))
        a -= a.T
        a *= 100.0 / np.abs(a).sum(axis=0).max()
        np.testing.assert_allclose(oracle._expm(a) @ oracle._expm(-a), np.eye(6),
                                   rtol=0.0, atol=1e-13)


class TestTwoTimeExtend:
    def test_equal_time_block_is_diagonal_block(self):
        model = SpectralModel(eigenvalues=[1.0, 2.0])
        noise = NoiseModel(q_eigenvalues=[0.5])
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.ones((2, 1)))
        # the law of mean 1 and covariance I: M0 = I alone beside that mean
        # would have the indefinite covariance I - 1 1^T, which is refused
        field = lyapunov_solve(model, noise, gmap, np.ones(2), np.eye(2) + np.ones((2, 2)), 6)
        two = two_time_extend(model, field)
        for k in range(7):
            np.testing.assert_allclose(
                two[k, :, k, :], field.diag_second_moment[k], rtol=1e-13
            )

    def test_noise_free_product_structure(self):
        model = SpectralModel(eigenvalues=[1.0, 3.0])
        noise = NoiseModel(q_eigenvalues=[0.0])
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        M0 = np.array([[1.0, 0.3], [0.3, 2.0]])
        field = lyapunov_solve(model, noise, gmap, np.zeros(2), M0, 5)
        two = two_time_extend(model, field)
        lam = model.eigenvalues
        t = field.grid
        for k in range(6):
            for l in range(6):
                expected = (
                    np.exp(-lam[:, None] * t[k]) * np.exp(-lam[None, :] * t[l]) * M0
                )
                np.testing.assert_allclose(two[k, :, l, :], expected, atol=1e-8)

    def test_scalar_ou_two_time_covariance(self):
        # for the scalar additive equation started at zero,
        # E[X(s) X(t)] = exp(-(t - s)) (1 - exp(-2 s)) / 2 for t >= s
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        field = lyapunov_solve(model, noise, gmap, np.zeros(1), np.zeros((1, 1)), 8)
        two = two_time_extend(model, field)
        t = field.grid
        for k in range(9):
            for l in range(k, 9):
                expected = np.exp(-(t[l] - t[k])) * 0.5 * -np.expm1(-2.0 * t[k])
                assert two[k, 0, l, 0] == pytest.approx(expected, abs=1e-9)

    def test_lower_half_matches_block_transpose_loop(self):
        model, noise, gmap, x0 = multimode_setup()
        two = two_time_extend(
            model, lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 9)
        )
        upper = np.triu(np.ones((10, 10), dtype=bool))[:, None, :, None]
        np.testing.assert_array_equal(
            two, two_time_transpose_loop(np.where(upper, two, np.nan))
        )

    def test_strided_fine_solve_matches_coarse_solve(self):
        # the exact propagator makes the fine grid read at a stride the
        # coarse grid's solve, up to rounding
        model, noise, gmap, x0 = multimode_setup()
        fine = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 64)
        coarse = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 8)
        strided = MomentField(fine.grid[::8], fine.diag_second_moment[::8])
        expected = two_time_extend(model, coarse)
        np.testing.assert_allclose(two_time_extend(model, strided), expected,
                                   rtol=0.0, atol=1e-13 * np.max(np.abs(expected)))

    def test_symmetry_under_index_swap(self):
        model, noise, gmap, x0 = multimode_setup()
        two = two_time_extend(
            model, lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 6)
        )
        scale = np.max(np.abs(two))
        np.testing.assert_allclose(
            two, np.transpose(two, (2, 3, 0, 1)),
            atol=1e-12 * scale,
        )
