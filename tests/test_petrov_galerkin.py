import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh

import spde_moments.petrov_galerkin as pg
from spde_moments import (
    AffineNoiseMap,
    MomentLoad,
    NoiseModel,
    PicardNonConvergence,
    SpectralModel,
    TimeGrid,
    assemble_per_mode,
    discrete_inf_sup,
    mean_exact,
    per_mode_singular_range,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    solve_mean,
)
from spde_moments.config import initial_law, load_config
from spde_moments.noise_map import multiplicative_form, symmetric_action

from conftest import multimode_setup
from dense_reference import (
    apply_tensor_operator,
    dense_coeffs,
    dense_load,
    dense_pairing,
    dense_singular_range,
    dense_solve,
    mode_matrices,
    tdelta_assemble,
)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scalar_system(steps, lam=1.0, horizon=1.0):
    model = SpectralModel(eigenvalues=[lam], horizon=horizon)
    return assemble_per_mode(model, TimeGrid(steps=steps, horizon=horizon))


def swept_field(system, load):
    """The structured field of one causal sweep against a load."""
    diagonal, upper = pg._causal_solve(system, load)
    return pg.SpaceTimeMoment(
        grid=system.grid, diagonal=diagonal, upper=upper, ratio=-system.c / system.a,
        trace=np.empty(0),
    )


def symmetric_load(rng, steps, n):
    """A random load with symmetric parts, (A + A^T) / 2 for standard
    normal A."""
    initial, spatial = rng.standard_normal((n, n)), rng.standard_normal((steps, n, n))
    return MomentLoad(initial=(initial + initial.T) / 2,
                      spatial=(spatial + spatial.swapaxes(-1, -2)) / 2)


def hat(nodes, l, t):
    dt = nodes[1] - nodes[0]
    return max(0.0, 1.0 - abs(t - nodes[l]) / dt)


class TestAssembly:
    def test_grid_needs_two_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(steps=1, horizon=1.0)

    def test_horizon_mismatch_rejected(self):
        model = SpectralModel(eigenvalues=[1.0], horizon=2.0)
        with pytest.raises(ValueError):
            assemble_per_mode(model, TimeGrid(steps=4, horizon=1.0))
        # a horizon within np.isclose's rtol of the model's is refused too
        model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
        with pytest.raises(ValueError, match="differs from model horizon"):
            assemble_per_mode(model, TimeGrid(steps=4, horizon=1.000005))

    def test_two_step_hand_values(self):
        # hand quadrature, lam = 1, dt = 1/2: pairing of the two interval
        # indicators against the two hats gives
        #   row 1: [1 + dt/2, -1 + dt/2], row 2: [0, 1 + dt/2]
        system = scalar_system(2)
        pairing, trial_gram_diag, test_gram = mode_matrices(system, 0)
        for dense in (dense_pairing(system), pairing):
            np.testing.assert_allclose(dense, [[1.25, -0.75], [0.0, 1.25]], atol=1e-14)
        np.testing.assert_allclose(trial_gram_diag, [0.5, 0.5], atol=1e-15)
        # graph-norm Gram of the hats: mass [[1/6, 1/12], [1/12, 1/3]]
        # plus stiffness [[2, -2], [-2, 4]]
        np.testing.assert_allclose(
            test_gram,
            [[13.0 / 6.0, -23.0 / 12.0], [-23.0 / 12.0, 13.0 / 3.0]],
            atol=1e-14,
        )

    def test_pairing_matches_quadrature(self):
        # independent oracle: numerical quadrature of hats against indicators
        lam, steps = 3.7, 7
        system = scalar_system(steps, lam=lam)
        nodes = np.linspace(0.0, 1.0, steps + 1)
        expected = np.zeros((steps, steps))
        for i in range(steps):
            for l in range(steps):
                mass_part, _ = quad(lambda t: hat(nodes, l, t), nodes[i], nodes[i + 1])
                expected[i, l] = hat(nodes, l, nodes[i]) - hat(nodes, l, nodes[i + 1]) + lam * mass_part
        np.testing.assert_allclose(dense_pairing(system), expected, atol=1e-12)

    def test_vanishing_eigenvalue_limit_is_telescoping(self):
        system = scalar_system(4, lam=1e-12)
        expected = np.eye(4) - np.diag(np.ones(3), 1)
        np.testing.assert_allclose(dense_pairing(system), expected, atol=1e-10)

    def test_mass_part_scales_with_dt_derivative_part_does_not(self):
        # the pairing is affine in lambda: operator = derivative + lambda * mass
        for horizon in (1.0, 2.0):
            sys1 = scalar_system(4, lam=1.0, horizon=horizon)
            sys3 = scalar_system(4, lam=3.0, horizon=horizon)
            mass = (dense_pairing(sys3) - dense_pairing(sys1)) / 2.0
            deriv = dense_pairing(sys1) - mass
            np.testing.assert_allclose(deriv, np.eye(4) - np.diag(np.ones(3), 1), atol=1e-13)
            np.testing.assert_allclose(
                mass[0, 0], horizon / 4.0 / 2.0, atol=1e-14
            )  # dt / 2 on the diagonal


    def test_assembly_holds_no_matrix(self):
        # one dense (N, K, K) array at K = 1024, N = 16 is 128 MiB
        model = SpectralModel(eigenvalues=np.arange(1.0, 17.0) ** 2)
        grid = TimeGrid(steps=1024, horizon=1.0)
        tracemalloc.start()
        try:
            assemble_per_mode(model, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_banded_apply_matches_dense_pairing_products(self):
        # reference: B_n^T U[:, n, :, m] B_m by dense matmuls, per mode pair;
        # the third mode has lambda * dt > 2
        model = SpectralModel(eigenvalues=[1.0, 4.0, 30.0], horizon=1.3)
        system = assemble_per_mode(model, TimeGrid(steps=7, horizon=1.3))
        coeffs = np.random.default_rng(31).standard_normal((7, 3, 7, 3))
        expected = np.empty_like(coeffs)
        for m1 in range(3):
            for m2 in range(3):
                expected[:, m1, :, m2] = (
                    dense_pairing(system, m1).T @ coeffs[:, m1, :, m2] @ dense_pairing(system, m2)
                )
        np.testing.assert_allclose(
            apply_tensor_operator(system, coeffs), expected, rtol=1e-14, atol=1e-14
        )


class TestSolveMean:
    def test_zero_initial_mean(self):
        system = scalar_system(8)
        np.testing.assert_array_equal(solve_mean(system, np.zeros(1)), np.zeros((8, 1)))

    def test_scalar_convergence_to_exponential(self):
        errors = {}
        for steps in (64, 128):
            system = scalar_system(steps)
            coeffs = solve_mean(system, np.ones(1))
            exact = np.exp(-np.arange(1, steps + 1) / steps)
            errors[steps] = np.max(np.abs(coeffs[:, 0] - exact))
        assert errors[64] <= 0.05
        assert errors[64] / errors[128] == pytest.approx(2.0, abs=0.4)

    def test_modes_solve_independently(self):
        model = SpectralModel(eigenvalues=[1.0, 5.0])
        system = assemble_per_mode(model, TimeGrid(steps=6, horizon=1.0))
        stacked = solve_mean(system, np.array([2.0, -1.0]))
        for i, lam in enumerate([1.0, 5.0]):
            single = solve_mean(scalar_system(6, lam=lam), np.array([stacked[0, i] * 0 + [2.0, -1.0][i]]))
            np.testing.assert_allclose(stacked[:, i], single[:, 0], rtol=1e-13)


class TestTemporalWeights:
    def test_two_step_hand_values(self):
        w = tdelta_assemble(TimeGrid(steps=2, horizon=1.0))
        np.testing.assert_allclose(
            w[0], [[1.0 / 6.0, 1.0 / 12.0], [1.0 / 12.0, 1.0 / 6.0]], atol=1e-15
        )
        np.testing.assert_allclose(w[1], [[0.0, 0.0], [0.0, 1.0 / 6.0]], atol=1e-15)

    def test_matches_quadrature(self):
        steps = 5
        grid = TimeGrid(steps=steps, horizon=1.0)
        w = tdelta_assemble(grid)
        nodes = grid.nodes
        for i in range(steps):
            for l1 in range(steps):
                for l2 in range(steps):
                    expected, _ = quad(
                        lambda t: hat(nodes, l1, t) * hat(nodes, l2, t),
                        nodes[i], nodes[i + 1],
                    )
                    assert w[i, l1, l2] == pytest.approx(expected, abs=1e-13)

    def test_partition_of_unity_away_from_final_time(self):
        grid = TimeGrid(steps=6, horizon=1.0)
        w = tdelta_assemble(grid)
        dt = grid.dt
        for i in range(5):  # all intervals except the final one
            summed = w[i].sum(axis=0)
            expected = np.zeros(6)
            expected[i] = expected[i + 1] = dt / 2.0  # integral of each hat over I_i
            np.testing.assert_allclose(summed, expected, atol=1e-15)

    def test_locality(self):
        w = tdelta_assemble(TimeGrid(steps=8, horizon=1.0))
        for i in range(8):
            support = {i, i + 1} & set(range(8))
            for l1 in range(8):
                for l2 in range(8):
                    if l1 not in support or l2 not in support:
                        assert w[i, l1, l2] == 0.0

    def test_structured_apply_equals_dense_contraction(self):
        # the swept field, materialized, solves the dense contraction of a
        # random symmetric load against the temporal weights; the third
        # mode has lambda * dt > 2, so its ratio r is negative
        model = SpectralModel(eigenvalues=[1.0, 4.0, 30.0], horizon=1.3)
        system = assemble_per_mode(model, TimeGrid(steps=7, horizon=1.3))
        load = symmetric_load(np.random.default_rng(23), 7, 3)
        reproduced = apply_tensor_operator(system, dense_coeffs(swept_field(system, load)))
        np.testing.assert_allclose(reproduced, dense_load(system.grid, load), atol=1e-14)


class TestLoads:
    def test_zero_map_leaves_only_initial_term(self):
        system = scalar_system(4)
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.zeros((1, 1)))
        mean = solve_mean(system, np.ones(1))
        load = rhs_second_moment(system, noise, gmap, mean, np.array([[2.5]]))
        expected = np.zeros((4, 1, 4, 1))
        expected[0, 0, 0, 0] = 2.5
        np.testing.assert_array_equal(dense_load(system.grid, load), expected)

    def test_additive_noise_load_is_time_homogeneous(self):
        system = scalar_system(5)
        noise = NoiseModel(q_eigenvalues=[0.8])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.full((1, 1), 2.0))
        mean = solve_mean(system, np.ones(1))
        load = rhs_second_moment(system, noise, gmap, mean, np.zeros((1, 1)))
        w = tdelta_assemble(system.grid)
        expected = np.einsum("kab->ab", w) * (2.0 ** 2 * 0.8)
        np.testing.assert_allclose(dense_load(system.grid, load)[:, 0, :, 0], expected, atol=1e-14)

    def test_missing_mean_rejected(self):
        system = scalar_system(4)
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        with pytest.raises(ValueError):
            rhs_second_moment(system, noise, gmap, None, np.zeros((1, 1)))

    def test_scalar_load_against_direct_quadrature(self):
        # independent oracle: quadrature of the hats against the piecewise
        # constant noise intensity 2 a b m_k + b^2 (the additive-involving
        # terms), plus the initial pairing at time zero
        a, b, steps = 0.5, 0.5, 8
        system = scalar_system(steps)
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), a), g2=np.full((1, 1), b))
        mean = solve_mean(system, np.ones(1))
        load = rhs_second_moment(system, noise, gmap, mean, np.array([[1.0]]))
        nodes = system.grid.nodes
        expected = np.zeros((steps, steps))
        expected[0, 0] = 1.0
        for l1 in range(steps):
            for l2 in range(steps):
                for k in range(steps):
                    intensity = 2 * a * b * mean[k, 0] + b * b
                    block, _ = quad(
                        lambda t: hat(nodes, l1, t) * hat(nodes, l2, t),
                        nodes[k], nodes[k + 1],
                    )
                    expected[l1, l2] += intensity * block
        np.testing.assert_allclose(dense_load(system.grid, load)[:, 0, :, 0], expected, atol=1e-12)

    def test_covariance_load_additive_case_drops_initial_and_keeps_integral(self):
        system = scalar_system(5)
        noise = NoiseModel(q_eigenvalues=[0.8])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.full((1, 1), 2.0))
        mean = solve_mean(system, np.ones(1))
        m2_load = rhs_second_moment(system, noise, gmap, mean, np.zeros((1, 1)))
        cov_load = rhs_covariance(system, noise, gmap, mean, np.zeros((1, 1)))
        np.testing.assert_allclose(
            dense_load(system.grid, cov_load), dense_load(system.grid, m2_load), atol=1e-15
        )

    def test_second_moment_load_builds_no_multiplicative_matrix(self, monkeypatch):
        # its noise terms all involve G2 (mean_form); only the covariance
        # load carries the multiplicative form of the mean outer product,
        # through the symmetric action, built once
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        mean = solve_mean(system, x0)
        calls = []
        original = pg.symmetric_action

        def counter(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pg, "symmetric_action", counter)
        rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
        assert calls == []
        rhs_covariance(system, noise, gmap, mean, np.zeros((4, 4)))
        assert calls == [1]

    def test_covariance_load_is_second_moment_load_plus_mean_product(self):
        # bit for bit: the second-moment load with the initial covariance,
        # plus the multiplicative form of the mean outer product
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        mean = solve_mean(system, x0)
        cov_0 = np.diag(x0)
        cov = rhs_covariance(system, noise, gmap, mean, cov_0)
        m2 = rhs_second_moment(system, noise, gmap, mean, cov_0)
        product = multiplicative_form(symmetric_action(gmap, noise),
                                      mean[:, :, None] * mean[:, None, :])
        assert cov.spatial.tobytes() == (m2.spatial + product).tobytes()
        assert cov.initial.tobytes() == m2.initial.tobytes() == cov_0.tobytes()


class Swept(Exception):
    """Raised in place of the causal sweep: the load got past every refusal."""


def no_sweep(*args):
    raise Swept


class TestLoadSymmetry:
    @pytest.mark.parametrize("part", ["m2_initial", "cov_initial", "spatial"])
    def test_asymmetric_load_refused_before_any_sweep(self, monkeypatch, part):
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=8, horizon=1.0))
        mean = solve_mean(system, x0)

        def load_with(asymmetry):
            skew = np.zeros((4, 4))
            skew[0, 1] = asymmetry
            if part == "m2_initial":
                return rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0) + skew)
            if part == "cov_initial":
                return rhs_covariance(system, noise, gmap, mean, np.diag(x0) + skew)
            load = rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
            return MomentLoad(load.initial, load.spatial + skew)

        monkeypatch.setattr(pg, "_causal_solve", no_sweep)
        name = "spatial" if part == "spatial" else "initial"
        # past 1e-12 of the scale, which is 1 here
        with pytest.raises(ValueError, match=f"load {name} part must be symmetric"):
            picard_solve_second_moment(system, noise, gmap, load_with(1e-9))
        # an asymmetry within the rule reaches the sweep
        with pytest.raises(Swept):
            picard_solve_second_moment(system, noise, gmap, load_with(1e-13))

    @pytest.mark.parametrize("name", ["multimode", "scalar_multiplicative", "scalar_ou", "dense-g2"])
    def test_built_loads_reach_the_sweep(self, monkeypatch, name):
        if name == "dense-g2":
            model, noise, gmap, x0 = multimode_setup()
            g2 = np.random.default_rng(5).standard_normal((4, 4))
            gmap = AffineNoiseMap(g1=gmap.g1, g2=g2)
            m2_0, cov_0, steps = np.outer(x0, x0), np.zeros((4, 4)), 64
        else:
            cfg = load_config(CONFIGS / f"{name}.json")
            model, noise, gmap = cfg.model, cfg.noise, cfg.gmap
            x0, m2_0, cov_0 = initial_law(cfg)
            steps = cfg.time_steps
        system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=model.horizon))
        mean = solve_mean(system, x0)
        monkeypatch.setattr(pg, "_causal_solve", no_sweep)
        for load in (rhs_second_moment(system, noise, gmap, mean, m2_0),
                     rhs_covariance(system, noise, gmap, mean, cov_0)):
            with pytest.raises(Swept):
                picard_solve_second_moment(system, noise, gmap, load)


class TestTimeRows:
    @pytest.mark.parametrize("eigenvalues, steps", [
        ([5.0], 2),
        ([1.0, 10.0], 3),
        ([1.0, 2.0, 4.0, 9.0, 16.0, 25.0, 49.0, 200.0], 64),
    ], ids=["K2N1", "K3N2", "K64N8"])
    def test_stacked_rows_equal_dense_loop_bitwise(self, eigenvalues, steps):
        # the last mode has lambda * dt > 2, so its ratio r is negative
        model = SpectralModel(eigenvalues=eigenvalues, horizon=1.0)
        system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        assert system.eigenvalues[-1] * system.grid.dt > 2.0
        load = symmetric_load(np.random.default_rng(steps), steps, len(eigenvalues))
        field = swept_field(system, load)
        expected = dense_coeffs(field)
        np.testing.assert_array_equal(np.stack([field.row(k) for k in range(steps)]), expected)
        for k in range(steps):
            np.testing.assert_array_equal(field.row(k), expected[k])

    def test_row_index_out_of_range(self):
        system = scalar_system(4)
        load = MomentLoad(initial=np.ones((1, 1)), spatial=np.ones((4, 1, 1)))
        field = swept_field(system, load)
        for k in (-1, 4):
            with pytest.raises(IndexError):
                field.row(k)


class TestPicard:
    def test_builds_the_action_once_whatever_the_iterations(self, monkeypatch):
        # the symmetric action is built once per solve, not once per
        # iteration
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        load = rhs_second_moment(system, noise, gmap, solve_mean(system, x0), np.outer(x0, x0))
        calls = []
        original = pg.symmetric_action

        def counter(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(pg, "symmetric_action", counter)
        iterations = []
        for tol in (1e-2, 1e-12):
            calls.clear()
            solution = picard_solve_second_moment(system, noise, gmap, load, tol=tol)
            iterations.append(solution.iterations)
            assert calls == [1]
        assert iterations[1] > iterations[0] > 1

    def test_additive_case_converges_in_one_iteration(self):
        system = scalar_system(8)
        noise = NoiseModel(q_eigenvalues=[1.0])
        gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
        mean = solve_mean(system, np.zeros(1))
        load = rhs_second_moment(system, noise, gmap, mean, np.zeros((1, 1)))
        solution = picard_solve_second_moment(system, noise, gmap, load)
        assert solution.iterations == 1

    def test_solution_solves_its_final_load(self, multiplicative_map, unit_noise):
        system = scalar_system(16)
        mean = solve_mean(system, np.ones(1))
        load = rhs_second_moment(system, unit_noise, multiplicative_map, mean, np.ones((1, 1)))
        solution = picard_solve_second_moment(system, unit_noise, multiplicative_map, load)
        # replay the iteration: the solution is its last iterate, bit for bit
        action = symmetric_action(multiplicative_map, unit_noise)
        blocks = pg._causal_solve(system, load)
        for _ in range(solution.iterations):
            last = MomentLoad(
                initial=load.initial,
                spatial=load.spatial + multiplicative_form(action, blocks[0]),
            )
            blocks = pg._causal_solve(system, last)
        for got, replayed in zip((solution.diagonal, solution.upper), blocks, strict=True):
            assert got.tobytes() == replayed.tobytes()
        reproduced = apply_tensor_operator(system, dense_coeffs(solution))
        final_load = dense_load(system.grid, last)
        scale = np.max(np.abs(final_load))
        assert np.max(np.abs(reproduced - final_load)) <= 10 * np.finfo(float).eps * scale

    def test_iterates_stay_symmetric_for_symmetric_loads(self):
        # the property that lets the lower blocks go: in the dense solve of
        # each iterate's load, U[k+1, :, k, :] is the stored upper[k]^T
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=8, horizon=1.0))
        mean = solve_mean(system, x0)
        load = rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
        current = load
        idx = np.arange(8)
        action = symmetric_action(gmap, noise)
        for _ in range(3):
            diagonal, upper = pg._causal_solve(system, current)
            tol = 1e-12 * max(1.0, np.max(np.abs(diagonal)), np.max(np.abs(upper)))
            assert np.max(np.abs(diagonal - diagonal.transpose(0, 2, 1))) <= tol
            dense = dense_solve(system, dense_load(system.grid, current))
            lower = dense[idx[1:], :, idx[:-1], :]
            scale = np.max(np.abs(dense))
            assert np.max(np.abs(lower - upper.transpose(0, 2, 1))) <= 10 * np.finfo(float).eps * scale
            current = MomentLoad(
                initial=load.initial,
                spatial=load.spatial + multiplicative_form(action, diagonal),
            )

    def test_rows_are_symmetric_off_the_diagonal_blocks(self):
        # bit for bit on multimode: U[k, :, l, :] == U[l, :, k, :]^T, k != l
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        mean = solve_mean(system, x0)
        load = rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
        field = picard_solve_second_moment(system, noise, gmap, load)
        rows = np.stack([field.row(k) for k in range(16)])
        for k in range(16):
            for l in range(16):
                if k != l:
                    assert rows[k, :, l, :].tobytes() == rows[l, :, k, :].T.copy().tobytes()

    def test_mode_pairs_do_not_couple(self):
        model = SpectralModel(eigenvalues=[1.0, 4.0])
        system = assemble_per_mode(model, TimeGrid(steps=4, horizon=1.0))
        coeffs = np.zeros((4, 2, 4, 2))
        coeffs[:, 0, :, 1] = np.random.default_rng(0).standard_normal((4, 4))
        image = apply_tensor_operator(system, coeffs)
        assert np.all(image[:, 0, :, 0] == 0.0)
        assert np.all(image[:, 1, :, 0] == 0.0)
        assert np.all(image[:, 1, :, 1] == 0.0)
        assert np.any(image[:, 0, :, 1] != 0.0)

    def test_nonconvergence_raises_with_trace(self, unit_noise):
        system = scalar_system(8)
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5))
        mean = solve_mean(system, np.ones(1))
        load = rhs_second_moment(system, unit_noise, gmap, mean, np.ones((1, 1)))
        with pytest.raises(PicardNonConvergence) as excinfo:
            picard_solve_second_moment(system, unit_noise, gmap, load, max_iter=1)
        assert len(excinfo.value.trace) == 1
        with pytest.raises(ValueError, match="max_iter"):
            picard_solve_second_moment(system, unit_noise, gmap, load, max_iter=0)

    def test_moment_solve_memory_stays_structured(self):
        # one dense (K, N, K, N) field at K = 512, N = 4 is 32 MiB
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=512, horizon=1.0))
        mean = solve_mean(system, x0)
        tracemalloc.start()
        try:
            load = rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
            picard_solve_second_moment(system, noise, gmap, load)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_supercritical_norm_warns_but_proceeds(self, unit_noise):
        system = scalar_system(4)
        gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 1.2), g2=np.zeros((1, 1)))
        mean = solve_mean(system, np.zeros(1))
        load = rhs_second_moment(system, unit_noise, gmap, mean, np.ones((1, 1)))
        with pytest.warns(RuntimeWarning, match="no contraction guarantee"):
            picard_solve_second_moment(system, unit_noise, gmap, load, max_iter=200)

    def test_contraction_monitor_warns_on_slow_ratios(self):
        with pytest.warns(RuntimeWarning, match="contraction"):
            pg._contraction_report([1.0, 0.9, 0.85], bound=0.4, tol_floor=1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pg._contraction_report([1.0, 0.1, 0.01], bound=0.4, tol_floor=1e-14)

    def test_covariance_equals_second_moment_minus_mean_square(self):
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        mean = solve_mean(system, x0)
        m2 = picard_solve_second_moment(
            system, noise, gmap,
            rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0)),
        )
        cov = picard_solve_second_moment(
            system, noise, gmap,
            rhs_covariance(system, noise, gmap, mean, np.zeros((4, 4))),
        )
        mean_sq = np.einsum("kn,lm->knlm", mean, mean)
        assert np.max(np.abs(dense_coeffs(cov) - (dense_coeffs(m2) - mean_sq))) <= 1e-8

    def test_diagonal_blocks_nearly_positive_semidefinite(self):
        model, noise, gmap, x0 = multimode_setup()
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        mean = solve_mean(system, x0)
        m2 = picard_solve_second_moment(
            system, noise, gmap,
            rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0)),
        )
        for block in m2.time_diagonal():
            assert np.linalg.eigvalsh(0.5 * (block + block.T)).min() >= -1e-8


class TestInfSup:
    def test_unit_eigenvalue_stable_across_refinement(self):
        values = [discrete_inf_sup(scalar_system(steps)) for steps in (16, 32, 64)]
        assert all(v > 0 for v in values)
        assert (max(values) - min(values)) / min(values) <= 0.10

    def test_smallest_below_largest(self):
        for lam in (1.0, 10.0, 100.0):
            system = scalar_system(32, lam=lam)
            smallest, largest = per_mode_singular_range(system)
            assert smallest[0] <= largest[0]

    def test_eigenvalue_sweep_bounded_below(self):
        values = {
            lam: discrete_inf_sup(scalar_system(32, lam=lam)) for lam in (1.0, 10.0, 100.0)
        }
        assert all(v >= 0.2 for v in values.values())

    def test_minimum_over_modes(self):
        model = SpectralModel(eigenvalues=[1.0, 100.0])
        system = assemble_per_mode(model, TimeGrid(steps=16, horizon=1.0))
        per = per_mode_singular_range(system)[0]
        assert discrete_inf_sup(system) == pytest.approx(per.min())

    def test_operator_bounded_below_in_gram_norms(self):
        # consistency of the Gram plumbing: for any coefficients,
        # the dual norm of the pairing dominates the discrete inf-sup
        # value times the trial norm
        model = SpectralModel(eigenvalues=[1.0, 7.0])
        system = assemble_per_mode(model, TimeGrid(steps=12, horizon=1.0))
        beta = discrete_inf_sup(system)
        rng = np.random.default_rng(29)
        for _ in range(25):
            u = rng.standard_normal((12, 2))
            dual_sq = 0.0
            trial_sq = 0.0
            for n in range(2):
                _, trial_gram_diag, test_gram = mode_matrices(system, n)
                f = dense_pairing(system, n).T @ u[:, n]
                dual_sq += f @ np.linalg.solve(test_gram, f)
                trial_sq += np.sum(trial_gram_diag * u[:, n] ** 2)
            assert np.sqrt(dual_sq) >= beta * np.sqrt(trial_sq) - 1e-10

    @pytest.mark.parametrize("steps", [2, 16, 64, 256])
    def test_both_ends_match_dense_reference(self, steps):
        # the multimode eigenvalues plus one stiff mode at lambda dt = 4
        model = SpectralModel(eigenvalues=sorted([1.0, 4.0, 9.0, 16.0, 4.0 * steps]))
        with pytest.warns(RuntimeWarning, match="lambda\\*dt > 2"):
            system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        smallest, largest = pg.per_mode_singular_range(system)
        dense_smallest, dense_largest = dense_singular_range(system)
        np.testing.assert_allclose(smallest, dense_smallest, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(largest, dense_largest, rtol=1e-12, atol=0.0)

    def test_inertia_count_matches_dense_pencil(self):
        # the count of eigenvalues below mu against a dense generalized
        # eigensolve of (A, G_Y), A = B^T D^-1 B, on a grid of mu
        steps = 12
        model = SpectralModel(eigenvalues=[0.3, 7.0, 60.0])
        with pytest.warns(RuntimeWarning):
            system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        mu = np.linspace(0.0, 2.1, 400)
        counts = pg._count_below(system, np.tile(mu, (3, 1)))
        for n in range(3):
            pairing, trial_gram_diag, test_gram = mode_matrices(system, n)
            eigs = eigh(pairing.T @ (pairing / trial_gram_diag[:, None]), test_gram,
                        eigvals_only=True)
            assert eigs.max() <= 2.0  # every singular value is at most sqrt(2)
            clear = np.min(np.abs(mu[:, None] - eigs), axis=1) > 1e-9
            expected = np.count_nonzero(eigs[None, :] < mu[:, None], axis=1)
            np.testing.assert_array_equal(counts[n][clear], expected[clear])
        assert np.all(np.diff(counts, axis=1) >= 0)


class TestStiffRegime:
    LAMBDA_DT = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 64.0]
    # smallest singular value per mode at K = 64 intervals (pinned values;
    # the dense reference agrees to 1e-14)
    INF_SUP = [0.9897436989578048, 0.9607744859342652, 0.8660903551184209,
               0.6550960093674045, 0.3988863536796115, 0.21504581475417198,
               0.06421983889325732]

    def test_inf_sup_against_lambda_dt(self):
        steps = 64
        model = SpectralModel(eigenvalues=[h * steps for h in self.LAMBDA_DT])
        with pytest.warns(RuntimeWarning, match="4 of 7 modes"):
            system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        np.testing.assert_allclose(system.lambda_dt, self.LAMBDA_DT, rtol=1e-15)
        smallest = per_mode_singular_range(system)[0]
        np.testing.assert_allclose(smallest, self.INF_SUP, rtol=1e-12, atol=0.0)
        # the value falls with lambda dt, slowly below 2 and then roughly
        # like 1 / (lambda dt): within 30% of 3.5 / (lambda dt) past 4
        assert np.all(np.diff(smallest) < 0.0)
        assert smallest[:3].min() > 0.85
        stiff = np.array(self.LAMBDA_DT) >= 4.0
        np.testing.assert_allclose(smallest[stiff] * system.lambda_dt[stiff], 3.5, rtol=0.3)
        # and the ratio changes sign at the boundary
        assert np.all(system.ratio[:2] > 0.0) and np.all(system.ratio[3:] < 0.0)

    def test_warns_only_past_the_boundary(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar_system(16, lam=32.0)  # lambda dt = 2 exactly
        with pytest.warns(RuntimeWarning, match="at most 2.125"):
            scalar_system(16, lam=34.0)



class SkewedPairing(pg.PerModeSystem):
    """Another valid pairing, stated only by the members that the test
    space fixes: a = 1 + 3h/4 and c = -1 + h/4 (a > |c| > 0 for h != 4,
    h = lambda dt), unequal left and right load weights, and the pencil
    (A, G) with h A = B^T B and h G = B^T B + T, T = tridiag(-1, 2, -1)
    with 1 first, positive definite with ||T|| <= 4. Its eigenvalues lie
    in [m / (m + 4), 1) with m = (a - |c|)^2."""

    @property
    def a(self):
        return 1.0 + 0.75 * self.lambda_dt

    @property
    def c(self):
        return -1.0 + 0.25 * self.lambda_dt

    @property
    def load_weights(self):
        dt = self.grid.dt
        return 0.3 * dt, 0.45 * dt, 0.1 * dt

    def pencil_entries(self, mu):
        a, c = self.a[:, None], self.c[:, None]
        return (a * a * (1.0 - mu) - mu, (a * a + c * c) * (1.0 - mu) - 2.0 * mu,
                a * c * (1.0 - mu) + mu)

    @property
    def pencil_floor(self):
        m = (self.a - np.abs(self.c)) ** 2
        return m / (m + 4.0)


class TestPairingHome:
    """The sweep, the mean solve and the inertia count know the pairing
    only through PerModeSystem: on another pairing they match dense
    solves built from that pairing's own numbers."""

    STEPS = 6

    def system(self):
        # lambda dt = 0.15, 1.7 and 5.5: c < 0, c < 0 and c > 0
        lam = np.array([0.15, 1.7, 5.5]) * self.STEPS
        return SkewedPairing(grid=TimeGrid(steps=self.STEPS, horizon=1.0), eigenvalues=lam)

    def dense_load(self, system, load):
        """The (K, N, K, N) load of `load` under the system's weights."""
        left, right, cross = system.load_weights
        K, n = system.grid.steps, system.n_modes
        dense = np.zeros((K, n, K, n))
        for k in range(K):
            dense[k, :, k, :] = left * load.spatial[k]
            if k > 0:
                dense[k, :, k, :] += right * load.spatial[k - 1]
            if k + 1 < K:
                dense[k, :, k + 1, :] = dense[k + 1, :, k, :] = cross * load.spatial[k]
        dense[0, :, 0, :] += load.initial
        return dense

    def test_sweep_matches_dense_kronecker_solve(self):
        system = self.system()
        K, n = system.grid.steps, system.n_modes
        load = symmetric_load(np.random.default_rng(41), K, n)
        # P[(k, n), (l, n)] = B_n[k, l]; the field solves P^T U P = L
        pairing = np.zeros((K, n, K, n))
        for mode in range(n):
            pairing[:, mode, :, mode] = dense_pairing(system, mode)
        P = pairing.reshape(K * n, K * n)
        field = np.linalg.solve(np.kron(P.T, P.T), self.dense_load(system, load).ravel())
        field = field.reshape(K, n, K, n)
        # each time row holds the swept diagonal and upper blocks, and the
        # rest of the field through the system's ratio
        swept = swept_field(system, load)
        for k in range(K):
            np.testing.assert_allclose(swept.row(k), field[k], rtol=0,
                                       atol=1e-13 * np.max(np.abs(field)))

    def test_mean_matches_dense_solve(self):
        system = self.system()
        x0 = np.array([1.0, -0.5, 0.25])
        mean = solve_mean(system, x0)
        for mode in range(system.n_modes):
            rhs = np.zeros(system.grid.steps)
            rhs[0] = x0[mode]
            expected = np.linalg.solve(dense_pairing(system, mode).T, rhs)
            np.testing.assert_allclose(mean[:, mode], expected, rtol=1e-14, atol=0.0)

    def test_singular_range_matches_dense_pencil(self):
        system = self.system()
        K = system.grid.steps
        zero, one = (system.pencil_entries(np.full((system.n_modes, 1), mu)) for mu in (0.0, 1.0))
        smallest, largest = per_mode_singular_range(system)
        for mode in range(system.n_modes):
            # h A from the entries at mu = 0, h G from those at 0 less those at 1
            tri = [np.diag(np.r_[first[mode], np.full(K - 1, diag[mode])])
                   + np.diag(np.full(K - 1, off[mode]), 1) + np.diag(np.full(K - 1, off[mode]), -1)
                   for first, diag, off in (zero, one)]
            eigs = eigh(tri[0], tri[0] - tri[1], eigvals_only=True)
            assert system.pencil_floor[mode] <= eigs[0] and eigs[-1] < 1.0
            np.testing.assert_allclose([smallest[mode], largest[mode]],
                                       np.sqrt([eigs[0], eigs[-1]]), rtol=1e-12, atol=0.0)
