import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spde_moments.montecarlo as mc
from spde_moments import _fanout, cli
from spde_moments import (
    AffineNoiseMap,
    NoiseModel,
    SpectralModel,
    g1_v_to_hs_norm,
    lyapunov_solve,
    sample_increments,
    simulate_moments,
    two_time_extend,
)
from spde_moments.config import parse_config
from spde_moments.noise_map import g_apply_bound
from spde_moments.spectral import triangle_positions, unpack_triangle

from conftest import multimode_setup
from criteria_helpers import g_apply_columns, ito_isometry_check, weak_identity_residual
from dense_reference import estimate_paths, simulate_paths

ROOT = Path(__file__).resolve().parent.parent
# multimode's Monte Carlo run at 2000 paths on 64 recording steps, D = 260,
# in a fresh process, on the first CPU of its affinity alone when asked to
# ("pinned") before numpy starts its BLAS threads; prints the worker count
# and the bytes of the six moment arrays in hex
AFFINITY_RUN = """
import json, os, sys
if sys.argv[1] == "pinned":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from spde_moments import _fanout, cli
if sys.argv[1] == "one":
    _fanout._cpus = lambda: 1
from spde_moments.config import parse_config
raw = json.loads(open(sys.argv[2]).read())
raw["mc"].update(paths=2000, grid_steps=64)
est, _, procs = cli._simulate(parse_config(raw))
print(procs, *(getattr(est, name).tobytes().hex() for name in sys.argv[3:]))
"""


def brute_force_g(gmap, state, increment):
    """Triple-loop evaluation of the affine noise action."""
    n, m = gmap.state_dim, gmap.noise_dim
    out = np.zeros(n)
    for i in range(n):
        for j in range(n):
            for mm in range(m):
                out[i] += gmap.g1[i, j, mm] * state[j] * increment[mm]
        for mm in range(m):
            out[i] += gmap.g2[i, mm] * increment[mm]
    return out


class TestGApply:
    def test_additive_identity(self):
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 2)), g2=np.eye(2))
        w = np.array([0.3, -0.7])
        out = g_apply_columns(gmap, np.array([[5.0], [5.0]]), w[:, None])
        np.testing.assert_array_equal(out[:, 0], w)

    def test_scalar_affine(self):
        a, b, x, w = 0.5, 2.0, 3.0, 0.25
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), a), g2=np.full((1, 1), b))
        out = g_apply_columns(gmap, np.array([[x]]), np.array([[w]]))
        assert out[:, 0] == pytest.approx([(a * x + b) * w])

    def test_matches_brute_force_contraction(self):
        rng = np.random.default_rng(5)
        gmap = AffineNoiseMap(g1=rng.standard_normal((3, 3, 2)), g2=rng.standard_normal((3, 2)))
        state, inc = rng.standard_normal(3), rng.standard_normal(2)
        np.testing.assert_allclose(
            g_apply_columns(gmap, state[:, None], inc[:, None])[:, 0],
            brute_force_g(gmap, state, inc), rtol=1e-13,
        )
        # a (P, N) batch as columns, a two-axis leading shape (a, b, N)
        # flattened to columns, and one state (N,) broadcast to P columns
        # against (P, M) increments
        states, incs = rng.standard_normal((7, 3)), rng.standard_normal((7, 2))
        np.testing.assert_allclose(
            g_apply_columns(gmap, states.T, incs.T).T,
            [brute_force_g(gmap, x, w) for x, w in zip(states, incs)], rtol=1e-13,
        )
        grid, grid_incs = rng.standard_normal((4, 5, 3)), rng.standard_normal((4, 5, 2))
        expected = [[brute_force_g(gmap, x, w) for x, w in zip(xs, ws)]
                    for xs, ws in zip(grid, grid_incs)]
        out = g_apply_columns(gmap, grid.reshape(-1, 3).T, grid_incs.reshape(-1, 2).T)
        out = out.T.reshape(4, 5, 3)
        np.testing.assert_allclose(out, expected, rtol=1e-13)
        np.testing.assert_allclose(
            g_apply_columns(gmap, np.broadcast_to(state[:, None], (3, 7)), incs.T).T,
            [brute_force_g(gmap, state, w) for w in incs], rtol=1e-13,
        )

    @pytest.mark.parametrize("n, modes", [(1, 1), (4, 4), (16, 16)])
    def test_columns_kernel_matches_brute_force_contraction(self, n, modes):
        # nonnegative entries, so no sum cancels and rtol bounds every entry
        rng = np.random.default_rng(n)
        gmap = AffineNoiseMap(g1=rng.random((n, n, modes)), g2=rng.random((n, modes)))
        states, incs = rng.random((n, 9)), rng.random((9, modes))
        expected = np.transpose([brute_force_g(gmap, x, w) for x, w in zip(states.T, incs)])
        # the increments as rows hold them: the .T view of (P, M) draws
        out = g_apply_columns(gmap, states, incs.T)
        np.testing.assert_allclose(out, expected, rtol=1e-13)
        # bound to its arrays, the kernel reads what they hold at each call
        held_states, held_incs = np.zeros((n, 9)), np.zeros((9, modes)).T
        apply = g_apply_bound(gmap, held_states, held_incs)
        np.testing.assert_array_equal(apply(), np.zeros((n, 9)))
        held_states[...], held_incs[...] = states, incs.T
        np.testing.assert_array_equal(apply(), out)

    def test_columns_kernel_shape_mismatch(self):
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            g_apply_columns(gmap, np.zeros((2, 5)), np.zeros((1, 4)))
        with pytest.raises(ValueError):
            g_apply_columns(gmap, np.zeros((5, 2)), np.zeros((5, 1)))

    def test_shape_mismatch(self):
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        with pytest.raises(ValueError):
            g_apply_columns(gmap, np.zeros((3, 1)), np.zeros((1, 1)))


class TestG1Norm:
    def test_zero_map(self):
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 2)), g2=np.zeros((2, 2)))
        model = SpectralModel(eigenvalues=[1.0, 2.0])
        noise = NoiseModel(q_eigenvalues=[1.0, 1.0])
        assert g1_v_to_hs_norm(gmap, model, noise) == 0.0

    def test_scalar_unit_case(self):
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.7), g2=np.zeros((1, 1)))
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        assert g1_v_to_hs_norm(gmap, model, noise) == pytest.approx(0.7)

    def test_scalar_with_eigenvalue_weight(self):
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.zeros((1, 1)))
        model = SpectralModel(eigenvalues=[4.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        value = g1_v_to_hs_norm(gmap, model, noise)
        assert value == pytest.approx(0.25)
        # independent check: the supremum over the unit ball of the energy
        # norm; in one dimension that ball is the pair +-1/sqrt(lambda), and
        # B = G1(phi) has the norm sqrt(sum_m gamma_m |B e_m|^2) on the
        # range of the covariance square root
        phi = 1.0 / np.sqrt(model.eigenvalues[0])
        mapped = np.array([[gmap.g1[0, 0, 0] * phi]])
        attained = np.sqrt(np.sum(noise.q_eigenvalues * np.sum(mapped ** 2, axis=0)))
        assert value == pytest.approx(attained)

    def test_supremum_over_random_directions(self):
        rng = np.random.default_rng(21)
        model = SpectralModel(eigenvalues=[1.0, 3.0, 9.0])
        noise = NoiseModel(q_eigenvalues=[0.5, 0.2])
        gmap = AffineNoiseMap(g1=rng.standard_normal((3, 3, 2)), g2=np.zeros((3, 2)))
        bound = g1_v_to_hs_norm(gmap, model, noise)
        best = 0.0
        for _ in range(300):
            phi = rng.standard_normal(3)
            phi /= np.sqrt(np.sum(model.eigenvalues * phi ** 2))
            mapped = np.einsum("ijm,j->im", gmap.g1, phi)
            best = max(best, np.sqrt(np.sum(noise.q_eigenvalues * np.sum(mapped ** 2, axis=0))))
        assert best <= bound * (1 + 1e-12)
        assert best >= 0.8 * bound  # random probing should come close


class TestSimulatePath:
    def test_zero_noise_is_exact_heat_flow(self):
        model = SpectralModel(eigenvalues=[1.0, 4.0])
        noise = NoiseModel(q_eigenvalues=[0.0])
        gmap = AffineNoiseMap(g1=np.zeros((2, 2, 1)), g2=np.zeros((2, 1)))
        x0 = np.array([1.0, -2.0])
        path = simulate_paths(model, noise, gmap, x0, 8, 1, seed=0)[0][0]
        for k in range(9):
            np.testing.assert_allclose(
                path[k], np.exp(-model.eigenvalues * (k / 8.0)) * x0, rtol=1e-12
            )

    def test_zero_map_ignores_noise(self):
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[5.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.zeros((1, 1)))
        x0 = np.array([3.0])
        path = simulate_paths(model, noise, gmap, x0, 4, 1, seed=1)[0][0]
        np.testing.assert_allclose(path[:, 0], 3.0 * np.exp(-np.arange(5) / 4.0), rtol=1e-12)

    def test_step_count_validation(self):
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        with pytest.raises(ValueError, match="steps"):
            simulate_moments(model, noise, gmap, np.zeros(1), 0, 2, seed=0)

    def test_scheme_evaluates_noise_map_at_left_endpoint(self, monkeypatch):
        model = SpectralModel(eigenvalues=[1.0])
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        seen = []
        original = mc.g_apply_bound

        def recorder(gm, state, increment):
            apply = original(gm, state, increment)

            def recorded():
                # the stepper's state is (N, paths); record it as rows of paths
                seen.append(np.array(state.T, copy=True))
                return apply()

            return recorded

        monkeypatch.setattr(mc, "g_apply_bound", recorder)
        path = simulate_paths(model, noise, gmap, np.array([1.0]), 6, 1, seed=2)[0][0]
        np.testing.assert_array_equal(np.concatenate(seen), path[:-1])

    def test_scalar_ou_variance(self, scalar_model, unit_noise, additive_map):
        # independent value: the variance of the stochastic convolution,
        # (1 - exp(-2 t)) / 2 at t = 1
        est = simulate_moments(
            scalar_model, unit_noise, additive_map, np.zeros(1), 16, 100_000, seed=10,
            substeps=16,
        )
        target = 0.5 * -np.expm1(-2.0)
        diff = abs(est.second_moment[-1, 0, -1, 0] - target)
        assert diff <= 3 * est.second_moment_se[-1, 0, -1, 0]


class TestEnsemble:
    def test_substepping_subsamples_the_fine_grid(self, scalar_model, unit_noise, additive_map):
        coarse, _ = simulate_paths(
            scalar_model, unit_noise, additive_map, np.zeros(1), 4, 64, seed=4, substeps=3
        )
        fine, _ = simulate_paths(
            scalar_model, unit_noise, additive_map, np.zeros(1), 12, 64, seed=4, substeps=1
        )
        np.testing.assert_array_equal(coarse, fine[:, ::3])

    def test_single_path_matches_simulate_path_stream(
        self, scalar_model, unit_noise, additive_map
    ):
        paths, _ = simulate_paths(
            scalar_model, unit_noise, additive_map, np.zeros(1), 8, 1, seed=6
        )
        # the plain scheme, stepped by hand on the stream of batch 0
        rng = np.random.default_rng([6, 0])
        dt = scalar_model.horizon / 8
        decay = np.exp(-scalar_model.eigenvalues * dt)
        path = [np.zeros(1)]
        for _ in range(8):
            dL = sample_increments(unit_noise, dt, 1, rng)[0]
            noise_term = g_apply_columns(additive_map, path[-1][:, None], dL[:, None])[:, 0]
            path.append(decay * (path[-1] + noise_term))
        np.testing.assert_array_equal(paths[0], np.stack(path))

    def test_batches_replay_their_own_streams_in_order(
        self, scalar_model, unit_noise, multiplicative_map
    ):
        # 200 paths fall into 32 batches, the first 8 of 7 paths and the
        # rest of 6; batch b is stepped by hand on the stream [seed, b]
        # and fills the next rows
        paths, _ = simulate_paths(
            scalar_model, unit_noise, multiplicative_map, np.ones(1), 8, 200, seed=9
        )
        assert len(mc._batch_bounds(200)) == 32
        dt = scalar_model.horizon / 8
        decay = np.exp(-scalar_model.eigenvalues * dt)
        replay = []
        for b in range(32):
            rng = np.random.default_rng([9, b])
            x = np.ones((7 if b < 8 else 6, 1))
            path = [x]
            for _ in range(8):
                dL = sample_increments(unit_noise, dt, x.shape[0], rng)
                x = (x + g_apply_columns(multiplicative_map, x.T, dL.T).T) * decay
                path.append(x)
            replay.append(np.stack(path, axis=1))
        np.testing.assert_array_equal(paths, np.concatenate(replay))

    @pytest.mark.parametrize("x0_cov", [False, True])
    def test_multimode_batches_match_the_row_scheme_to_rounding(self, x0_cov):
        # the stepper holds each batch as (N, paths) and applies the noise
        # map by one matmul over the paths; the row scheme's triple
        # contraction sums in another order, so the two agree to rounding
        model, noise, gmap, x0 = multimode_setup()
        cov = np.diag(np.linspace(0.1, 0.4, model.dim)) + 0.05 if x0_cov else None
        paths, _ = simulate_paths(model, noise, gmap, x0, 4, 45, seed=3, x0_cov=cov, substeps=2)
        dt = model.horizon / 8
        decay = np.exp(-model.eigenvalues * dt)
        replay = []
        for b, (lo, hi) in enumerate(mc._batch_bounds(45)):
            rng = np.random.default_rng([3, b])
            if cov is None:
                x = np.tile(x0, (hi - lo, 1))
            else:
                w, v = np.linalg.eigh(cov)
                x = x0 + rng.standard_normal((hi - lo, model.dim)) @ (v * np.sqrt(w)).T
            path = [x]
            for _ in range(4):
                for _ in range(2):
                    dL = sample_increments(noise, dt, hi - lo, rng)
                    noise_term = np.einsum("ijm,pj,pm->pi", gmap.g1, x, dL) + dL @ gmap.g2.T
                    x = (x + noise_term) * decay
                path.append(x)
            replay.append(np.stack(path, axis=1))
        replay = np.concatenate(replay)
        scale = np.abs(replay).max()
        np.testing.assert_allclose(paths, replay, rtol=0, atol=1e-13 * scale)

    def test_one_cpu_forks_no_worker(self, monkeypatch, scalar_model, unit_noise,
                                     multiplicative_map):
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(_fanout, "_cpus", lambda: 1)
        monkeypatch.setattr(_fanout.os, "fork", no_fork)
        assert len(mc._batch_bounds(64)) == 32  # more batches than CPUs
        est = simulate_moments(scalar_model, unit_noise, multiplicative_map, np.ones(1), 4, 64,
                               seed=3)
        assert est.mean.shape == (5, 1)

    def test_nonfinite_initial_mean_rejected_before_stepping(
        self, scalar_model, unit_noise, additive_map, monkeypatch
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("a path was stepped")

        monkeypatch.setattr(mc, "sample_increments", no_draws)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="initial mean"):
                simulate_moments(
                    scalar_model, unit_noise, additive_map, np.array([bad]), 4, 8, seed=0
                )

    def test_nonfinite_initial_covariance_rejected_before_stepping(
        self, scalar_model, unit_noise, additive_map, monkeypatch
    ):
        def no_draws(*args, **kwargs):
            raise AssertionError("a path was stepped")

        monkeypatch.setattr(mc, "sample_increments", no_draws)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="^initial covariance must be finite$"):
                simulate_moments(scalar_model, unit_noise, additive_map, np.ones(1), 4, 8,
                                 seed=0, x0_cov=np.array([[bad]]))

    def test_gaussian_initial_law(self, scalar_model, unit_noise, additive_map):
        est = simulate_moments(
            scalar_model, unit_noise, additive_map, np.array([2.0]), 4, 50_000, seed=7,
            x0_cov=np.array([[0.25]]),
        )
        assert abs(est.mean[0, 0] - 2.0) <= 3 * est.mean_se[0, 0]
        assert abs(est.covariance[0, 0, 0, 0] - 0.25) <= 3 * est.covariance_se[0, 0, 0, 0]


class TestEstimateMoments:
    def test_requires_two_paths(self, scalar_model, unit_noise, additive_map):
        paths, _ = simulate_paths(scalar_model, unit_noise, additive_map, np.zeros(1), 4, 1,
                                  seed=0)
        with pytest.raises(ValueError, match="at least two paths"):
            estimate_paths(paths)

    @pytest.mark.parametrize("paths, nodes, dim", [(64, 17, 4), (2, 65, 4), (20, 13, 1)])
    def test_standard_errors_equal_numpy_std_bitwise(self, paths, nodes, dim):
        sample = np.random.default_rng(1).standard_normal((paths, nodes, dim))
        est = estimate_paths(sample)
        flat = sample.reshape(paths, -1)
        chunks = [flat[lo:hi] for lo, hi in mc._batch_bounds(paths)]
        b_mean = np.stack([c.mean(axis=0) for c in chunks])
        b_m2 = np.stack([c.T @ c / c.shape[0] for c in chunks])
        b_cov = np.stack([m2 - np.outer(m, m) for m2, m in zip(b_m2, b_mean)])
        root = np.sqrt(len(chunks))
        for se, stats in ((est.mean_se, b_mean), (est.second_moment_se, b_m2),
                          (est.covariance_se, b_cov)):
            assert np.array_equal(se.ravel(), (stats.std(axis=0, ddof=1) / root).ravel())

    @pytest.mark.parametrize("paths, nodes, dim", [
        (64, 17, 4), (2, 65, 4), (20, 13, 1), (3, 2, 1),
        (2000, 65, 4),  # 32 batches of 63 or 62 paths, D = 260: spans of 7 rows
        (2, 129, 4),    # two batches of one path, D = 516: spans of 129 rows
        (40, 33, 4),    # 32 batches of 2 or 1 paths, D = 132: spans of 3 rows
    ])
    def test_triangle_sums_reduce_as_the_whole_sums_bitwise(self, paths, nodes, dim):
        # the package's per-batch upper triangles against the whole D x D
        # sums that they replaced, through the reference's reduction
        sample = np.random.default_rng(3).standard_normal((paths, nodes, dim))
        flat, width = sample.reshape(paths, -1), nodes * dim
        bounds = mc._batch_bounds(paths)
        s1 = np.empty((len(bounds), width))
        s2 = np.empty((len(bounds), width * (width + 1) // 2))
        upper = triangle_positions(width)
        for b, (lo, hi) in enumerate(bounds):
            mc._sum_batch(flat[lo:hi], s1[b], s2[b], upper)
        est, ref = mc._reduce(s1, s2, bounds, nodes, dim), estimate_paths(sample)
        for name in TestSimulateMoments.FIELDS:
            assert getattr(est, name).tobytes() == getattr(ref, name).tobytes(), name

    @pytest.mark.parametrize("width", [2, 3, 68])
    def test_unpack_inverts_the_triangle_packing_bitwise(self, width):
        # np.triu_indices order, with -0.0, inf and nan among the entries
        full = np.random.default_rng(width).standard_normal((width, width))
        full[0, -1], full[-1, -1], full[0, 0] = -0.0, np.inf, np.nan
        full = np.where(np.tri(width, dtype=bool), full.T, full)  # the upper half mirrored
        assert np.signbit(full[-1, 0])
        tri = full[np.triu_indices(width)]
        assert unpack_triangle(tri, width).tobytes() == full.tobytes()
        # a stack (K+1, p) of triangles, as the oracle's grid values, fills
        # the stack as a fill by fancy indexing does, bit for bit
        z = np.random.default_rng(width + 1).standard_normal((5, tri.size))
        z[1, 0], z[2, -1], z[3, 1 % tri.size] = -0.0, np.inf, np.nan
        rows, cols = np.triu_indices(width)
        diag = np.empty((5, width, width))
        diag[:, rows, cols] = diag[:, cols, rows] = z
        assert unpack_triangle(z, width).tobytes() == diag.tobytes()

    @pytest.mark.parametrize("count, width", [(313, 68), (625, 17), (625, 9), (63, 260)])
    def test_a_batch_sum_of_outer_products_is_symmetric_bitwise(self, count, width):
        # the premise of holding a batch's sum by its upper triangle: numpy
        # forms block.T @ block by a symmetric rank-k update and mirrors it.
        # The (count, D) shapes are a batch of multimode's 10000 paths, of
        # the scalar configs' 20000 at 16 and at 8 recording steps, and of
        # 2000 paths at D = 260
        block = np.random.default_rng(count).standard_normal((count, width))
        product = block.T @ block
        assert np.array_equal(product, product.T)

    def test_deterministic_ensemble(self, scalar_model, additive_map):
        # no noise: covariance vanishes, second moment is the mean outer product
        silent = NoiseModel(q_eigenvalues=[0.0])
        est = simulate_moments(scalar_model, silent, additive_map, np.ones(1), 4, 16, seed=1)
        scale = np.max(np.abs(est.second_moment))
        np.testing.assert_allclose(est.covariance, 0.0, atol=1e-14 * scale)
        np.testing.assert_allclose(
            est.second_moment,
            np.einsum("kn,lm->knlm", est.mean, est.mean),
            atol=1e-14 * scale,
        )
        np.testing.assert_allclose(est.mean_se, 0.0, atol=1e-15)
        np.testing.assert_allclose(est.covariance_se, 0.0, atol=1e-15 * scale)

    def test_symmetry_and_identity_exact(self, scalar_model, unit_noise, multiplicative_map):
        est = simulate_moments(
            scalar_model, unit_noise, multiplicative_map, np.ones(1), 6, 500, seed=2
        )
        m2 = est.second_moment
        np.testing.assert_array_equal(m2, np.transpose(m2, (2, 3, 0, 1)))
        flat_mean = est.mean.reshape(-1)
        expected_cov = est.second_moment.reshape(
            flat_mean.size, flat_mean.size
        ) - np.outer(flat_mean, flat_mean)
        np.testing.assert_array_equal(
            est.covariance.reshape(flat_mean.size, flat_mean.size), expected_cov
        )

    def test_two_time_covariance_against_propagated_variance(
        self, scalar_model, unit_noise, additive_map
    ):
        # Cov(X(1/2), X(1)) = exp(-1/2) Var(X(1/2)) for the scalar
        # additive equation started at zero
        est = simulate_moments(
            scalar_model, unit_noise, additive_map, np.zeros(1), 8, 100_000, seed=11,
            substeps=32,
        )
        field = lyapunov_solve(
            scalar_model, unit_noise, additive_map, np.zeros(1), np.zeros((1, 1)), 8
        )
        two = two_time_extend(scalar_model, field)
        mid, end = 4, 8
        assert abs(
            est.covariance[mid, 0, end, 0] - two[mid, 0, end, 0]
        ) <= 3 * est.covariance_se[mid, 0, end, 0]

    def test_covariance_time_diagonal_nearly_positive_semidefinite(self):
        model, noise, gmap, x0 = multimode_setup()
        est = simulate_moments(model, noise, gmap, x0, 6, 4000, seed=20, substeps=8)
        scale = float(np.abs(est.second_moment).max())
        for k in range(7):
            block = est.covariance[k, :, k, :]
            noise_floor = 3 * float(est.covariance_se[k, :, k, :].max())
            floor = max(noise_floor, 1e-13 * scale)
            assert np.linalg.eigvalsh(0.5 * (block + block.T)).min() >= -floor

    def test_mean_does_not_depend_on_additive_coefficient(
        self, scalar_model, unit_noise
    ):
        # matched seeds give matched increments; the sample means of runs
        # with different additive coefficients must agree statistically
        means = []
        ses = []
        for b in (1.0, 3.0):
            gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.full((1, 1), b))
            est = simulate_moments(
                scalar_model, unit_noise, gmap, np.ones(1), 8, 50_000, seed=12
            )
            means.append(est.mean)
            ses.append(est.mean_se)
        gap = np.abs(means[0] - means[1])
        combined = np.sqrt(ses[0] ** 2 + ses[1] ** 2)
        assert np.all(gap <= 3 * np.maximum(combined, 1e-300))


class TestSimulateMoments:
    FIELDS = ("mean", "second_moment", "covariance", "mean_se", "second_moment_se",
              "covariance_se")

    @pytest.mark.parametrize("paths, steps, multimode, x0_cov", [
        (200, 8, False, False),   # 32 batches of 7 or 6 paths, 11/11/10 at 3 workers
        (200, 8, False, True),
        (45, 4, True, True),      # 32 batches of 2 or 1 paths, four modes
        (2, 1, True, False),      # two batches of one path, one recording step
    ])
    def test_equals_the_estimate_of_the_ensemble_bitwise(
        self, monkeypatch, unit_noise, multiplicative_map, paths, steps, multimode, x0_cov,
    ):
        if multimode:
            model, noise, gmap, x0 = multimode_setup()
        else:
            model, noise, gmap, x0 = (SpectralModel(eigenvalues=[1.0]), unit_noise,
                                      multiplicative_map, np.ones(1))
        cov = np.diag(np.linspace(0.1, 0.4, model.dim)) + 0.05 if x0_cov else None
        ref = estimate_paths(simulate_paths(model, noise, gmap, x0, steps, paths, seed=4,
                                            x0_cov=cov, substeps=2)[0])
        for procs in (1, 2, 3):
            monkeypatch.setattr(_fanout, "_cpus", lambda: procs)
            est = simulate_moments(model, noise, gmap, x0, steps, paths, seed=4, x0_cov=cov,
                                   substeps=2)
            for name in self.FIELDS:
                assert np.array_equal(getattr(est, name), getattr(ref, name)), (procs, name)

    @pytest.mark.parametrize("ahead", [None, 1, 2, 3], ids=["budget", "A1", "A2", "A3"])
    @pytest.mark.parametrize("x0_cov", [False, True])
    @pytest.mark.parametrize("paths", [45, 63, 1251])
    def test_draw_ahead_changes_no_bit(self, monkeypatch, paths, x0_cov, ahead):
        # the reference draws every batch's increments a step at a time.
        # 45 paths make 13 batches of two paths and 19 of one, 63 make 31
        # of two and one of one, and 1251 three of 40 and 29 of 39; the 8
        # scheme steps go in runs of one, two, three (the last run short)
        # or, within the budget, all eight at once
        model, noise, gmap, x0 = multimode_setup()
        cov = np.diag(np.linspace(0.1, 0.4, model.dim)) + 0.05 if x0_cov else None
        budget = mc._draw_steps
        with monkeypatch.context() as one_step:
            one_step.setattr(mc, "_draw_steps", lambda steps, count, noise_dim: 1)
            ref = estimate_paths(simulate_paths(model, noise, gmap, x0, 4, paths, seed=4,
                                                x0_cov=cov, substeps=2)[0])
        if ahead is not None:
            monkeypatch.setattr(mc, "_draw_steps",
                                lambda steps, count, noise_dim: min(ahead, steps))
        assert mc._draw_steps(8, -(-paths // 32), noise.dim) == (ahead or 8)
        assert budget(8, -(-paths // 32), noise.dim) == 8
        for procs in (1, 2, 3):
            monkeypatch.setattr(_fanout, "_cpus", lambda: procs)
            est = simulate_moments(model, noise, gmap, x0, 4, paths, seed=4, x0_cov=cov,
                                   substeps=2)
            for name in self.FIELDS:
                assert np.array_equal(getattr(est, name), getattr(ref, name)), (procs, name)

    def test_draw_steps_read_the_budget_alone(self):
        # 20000 paths make 32 batches of 625: at one noise mode a step's
        # increments take 8 * 625 bytes, so DRAW_BYTES holds 52 steps of
        # them, whatever the state or the recording grid; the run's
        # scheme steps clamp it from above, and a batch whose one step
        # exceeds the budget still draws one
        assert mc._draw_steps(64, 625, 1) == mc.DRAW_BYTES // (8 * 625) == 52
        assert mc._draw_steps(10**6, 625, 1) == 52
        assert mc._draw_steps(10, 625, 1) == 10
        assert mc._draw_steps(64, 313, 4) == mc.DRAW_BYTES // (8 * 313 * 4) == 26
        assert mc._draw_steps(64, mc.DRAW_BYTES, 4) == 1
        assert mc._draw_steps(1, 1, 1) == 1

    @pytest.mark.parametrize("procs", [1, 3])
    def test_nonfinite_path_raises_without_a_warning(
        self, monkeypatch, scalar_model, unit_noise, multiplicative_map, procs
    ):
        # 64 paths: the last batch, the last worker's at three processes,
        # holds two paths, which end at +inf and -inf, so that its sums
        # meet inf - inf
        def poisoned_stepper(*args):
            step = real(*args)

            def poisoned(b, block):
                step(b, block)
                if b == 31:
                    block[-2:, -1] = [[np.inf], [-np.inf]]

            return poisoned

        real = mc._batch_stepper
        monkeypatch.setattr(mc, "_batch_stepper", poisoned_stepper)
        monkeypatch.setattr(_fanout, "_cpus", lambda: procs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^paths must be finite$"):
                simulate_moments(scalar_model, unit_noise, multiplicative_map, np.ones(1), 4, 64,
                                 seed=0)

    @pytest.mark.parametrize("procs", [1, 3])
    def test_nonfinite_path_raises_the_ensembles_error(
        self, monkeypatch, scalar_model, unit_noise, multiplicative_map, procs
    ):
        # 63 paths: batches 0-30 hold two paths, and batch 31, the last
        # worker's at three processes, holds the one path that draws an
        # infinite increment
        def infinite_for_one_path(noise, dt, count, rng, out):
            # a run of steps of one batch's paths
            draws = real(noise, dt, count, rng, out=out)
            if count == 1:
                draws[...] = np.inf
            return draws

        real = mc.sample_increments
        monkeypatch.setattr(mc, "sample_increments", infinite_for_one_path)
        monkeypatch.setattr(_fanout, "_cpus", lambda: procs)
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="^paths must be finite$"):
            simulate_moments(scalar_model, unit_noise, multiplicative_map, np.ones(1), 4, 63,
                             seed=0)

    def test_requires_two_paths(self, scalar_model, unit_noise, additive_map):
        with pytest.raises(ValueError, match="at least two paths"):
            simulate_moments(scalar_model, unit_noise, additive_map, np.zeros(1), 4, 1, seed=0)

    @pytest.mark.skipif(_fanout._cpus() < 2, reason="needs two CPUs of the affinity")
    def test_two_processes_round_as_one_cpu_at_d260(self):
        # OpenBLAS threads a batch's block.T @ block at D = 260 and rounds it
        # otherwise; fan_out holds it to one thread in each of its
        # processes, as a process pinned to one CPU starts, and in the one
        # process of a run held to it (_cpus -> 1) on both CPUs. BLAS
        # threads are left at their default, whatever the environment asks
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(ROOT / "src")
        runs = [subprocess.run(
            [sys.executable, "-c", AFFINITY_RUN, affinity, str(ROOT / "configs" / "multimode.json"),
             *self.FIELDS], env=env, capture_output=True, text=True, check=True,
        ).stdout.split() for affinity in ("all", "pinned", "one")]
        assert [run[0] for run in runs] == ["2", "1", "1"]
        assert len(runs[0]) == 1 + len(self.FIELDS)
        assert runs[0][1:] == runs[1][1:] == runs[2][1:]

    @pytest.mark.parametrize("paths, steps", [
        pytest.param(2, 64, id="2"), pytest.param(4000, 64, id="4000"),
        pytest.param(2, 128, id="2-D516"),
    ])
    def test_peak_memory_within_the_count(self, monkeypatch, paths, steps):
        # 65 nodes of 4 modes: D = 260, and 129 nodes: D = 516. At 4000
        # paths the (P, D) float64 paths, 8.3 MB, exceed the count's slack
        # of one D x D field, 0.54 MB, so a run that held them would fail
        # the bound
        model, noise, gmap, x0 = multimode_setup()
        monkeypatch.setattr(_fanout, "_cpus", lambda: 1)  # every allocation in this process
        width = (steps + 1) * model.dim
        count = mc.estimate_bytes(paths, width, 4, 4)
        # numpy keeps small freed blocks in caches that tracemalloc still
        # counts; a first call fills them
        simulate_moments(model, noise, gmap, x0, steps, paths, seed=1)
        tracemalloc.start()
        try:
            simulate_moments(model, noise, gmap, x0, steps, paths, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count - width * width * 8 < peak <= count

    @pytest.mark.parametrize("problem", [
        "scalar-64-K8", "multimode-40-K8", "multimode-20000-K2", "multimode-config",
    ])
    def test_peak_memory_within_the_count_with_numpys_buffers(self, monkeypatch, problem):
        # small grids and batches, where numpy's buffered iteration of the
        # broadcast multiplies adds most to the arrays: the outer products
        # at 40 and 20000 multimode paths (one to 625 paths a batch), the
        # statistics of 32 batches at D = 9 and 36; and the shipped
        # multimode run, 313 paths a batch over 512 scheme steps
        if problem == "scalar-64-K8":
            model, noise = SpectralModel(eigenvalues=[1.0]), NoiseModel(q_eigenvalues=[1.0])
            gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5))
            run = model, noise, gmap, np.ones(1), 8, 64, 1
        elif problem == "multimode-config":
            cfg = parse_config(json.loads((ROOT / "configs" / "multimode.json").read_text()))
            run = (cfg.model, cfg.noise, cfg.gmap, cfg.initial[0], cfg.mc_grid_steps,
                   cfg.mc_paths, cli._substeps(cfg))
        else:
            paths, steps = {"multimode-40-K8": (40, 8), "multimode-20000-K2": (20000, 2)}[problem]
            run = (*multimode_setup(), steps, paths, 1)
        model, noise, gmap, x0, steps, paths, substeps = run
        monkeypatch.setattr(_fanout, "_cpus", lambda: 1)  # every allocation in this process
        count = mc.estimate_bytes(paths, (steps + 1) * model.dim, model.dim, noise.dim, substeps)
        # a first call fills numpy's caches of small freed blocks
        simulate_moments(model, noise, gmap, x0, steps, paths, seed=1, substeps=substeps)
        tracemalloc.start()
        try:
            simulate_moments(model, noise, gmap, x0, steps, paths, seed=1, substeps=substeps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= count


class TestWeakIdentity:
    @staticmethod
    def ramp_test_function(steps, dim, horizon=1.0):
        nodes = np.linspace(0.0, horizon, steps + 1)
        weights = 1.0 / np.arange(1, dim + 1)
        return (1.0 - nodes / horizon)[:, None] * weights[None, :]

    def test_rejects_test_function_not_vanishing_at_end(self, scalar_model, unit_noise, additive_map):
        path = np.zeros((5, 1))
        incs = np.zeros((4, 1))
        v = np.ones((5, 1))
        with pytest.raises(ValueError):
            weak_identity_residual(path, v, scalar_model, additive_map, incs)

    def test_rejects_a_one_node_path(self, scalar_model, additive_map):
        with pytest.raises(ValueError, match="at least two nodes"):
            weak_identity_residual(np.zeros((1, 1)), np.zeros((1, 1)), scalar_model,
                                   additive_map, np.zeros((0, 1)))

    def test_zero_noise_residual_is_first_order(self, scalar_model, additive_map):
        silent = NoiseModel(q_eigenvalues=[0.0])
        residuals = []
        for steps in (16, 32, 64):
            paths, incs = simulate_paths(
                scalar_model, silent, additive_map, np.ones(1), steps, 1, seed=0
            )
            v = self.ramp_test_function(steps, 1)
            residuals.append(abs(weak_identity_residual(
                paths[0], v, scalar_model, additive_map, incs[0])))
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[1] / residuals[0] == pytest.approx(0.5, abs=0.15)

    def test_additive_noise_residual_mean_zero(self, scalar_model, unit_noise, additive_map):
        steps = 16
        v = self.ramp_test_function(steps, 1)
        paths, incs = simulate_paths(
            scalar_model, unit_noise, additive_map, np.zeros(1), steps, 2000, seed=13
        )
        res = np.array([
            weak_identity_residual(path, v, scalar_model, additive_map, inc)
            for path, inc in zip(paths, incs)
        ])
        se = res.std(ddof=1) / np.sqrt(res.size)
        assert abs(res.mean()) <= 3 * se

    def test_rms_residual_decreases_under_refinement(
        self, scalar_model, unit_noise, multiplicative_map
    ):
        rms = []
        for steps in (16, 32, 64):
            paths, incs = simulate_paths(
                scalar_model, unit_noise, multiplicative_map, np.ones(1), steps, 400, seed=14
            )
            v = self.ramp_test_function(steps, 1)
            res = [
                weak_identity_residual(path, v, scalar_model, multiplicative_map, inc)
                for path, inc in zip(paths, incs)
            ]
            rms.append(float(np.sqrt(np.mean(np.square(res)))))
        assert rms[0] > rms[1] > rms[2]


class TestItoIsometry:
    def test_zero_integrand(self, unit_noise):
        v = np.ones((9, 1))
        phi = np.zeros((9, 1, 1))
        lhs, rhs, z = ito_isometry_check(unit_noise, v, v, phi, 100, np.random.default_rng(0))
        assert lhs == rhs == z == 0.0

    def test_zero_test_function(self, unit_noise):
        v1 = np.ones((9, 1))
        v2 = np.zeros((9, 1))
        phi = np.ones((9, 1, 1))
        lhs, rhs, z = ito_isometry_check(unit_noise, v1, v2, phi, 100, np.random.default_rng(0))
        assert lhs == rhs == 0.0

    def test_rejects_a_one_node_grid(self, unit_noise):
        v = np.zeros((1, 1))
        with pytest.raises(ValueError, match="at least two nodes"):
            ito_isometry_check(unit_noise, v, v, np.zeros((1, 1, 1)), 100,
                               np.random.default_rng(0))

    def test_scalar_unit_integrand(self, unit_noise):
        v = np.ones((17, 1))
        phi = np.ones((17, 1, 1))
        lhs, rhs, z = ito_isometry_check(
            unit_noise, v, v, phi, 100_000, np.random.default_rng(1)
        )
        assert rhs == pytest.approx(1.0, abs=1e-14)
        assert abs(z) < 3.0
