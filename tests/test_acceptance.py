"""Acceptance suite: one test per criterion, one printed status line each.

Statistical criteria run with fixed seeds so the suite is reproducible;
the Monte Carlo ensembles use recording grids far coarser than their
scheme stepping, keeping the weak time-stepping bias small against the
Monte Carlo standard errors that the criteria compare against.
"""

import time

import numpy as np
import pytest

from spde_moments import (
    AffineNoiseMap,
    NoiseModel,
    SpectralModel,
    TimeGrid,
    assemble_per_mode,
    dirichlet_laplacian,
    g1_v_to_hs_norm,
    lyapunov_solve,
    mean_exact,
    per_mode_singular_range,
    picard_solve_second_moment,
    rhs_covariance,
    rhs_second_moment,
    scaled_random_coupling,
    simulate_moments,
    solve_mean,
)

from criteria_helpers import (
    Tensor2,
    dual_pair,
    hilbert_norm,
    injective_norm,
    ito_isometry_check,
    projective_norm,
    smoothing_integral,
    weak_identity_residual,
)
from dense_reference import dense_coeffs, simulate_paths


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def scalar_additive():
    model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
    noise = NoiseModel(q_eigenvalues=[1.0])
    gmap = AffineNoiseMap(g1=np.zeros((1, 1, 1)), g2=np.ones((1, 1)))
    return model, noise, gmap, np.zeros(1)


def scalar_multiplicative():
    model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
    noise = NoiseModel(q_eigenvalues=[1.0])
    gmap = AffineNoiseMap(g1=np.full((1, 1, 1), 0.5), g2=np.full((1, 1), 0.5))
    return model, noise, gmap, np.ones(1)


def multimode():
    model = dirichlet_laplacian(4, np.pi, horizon=1.0)
    noise = NoiseModel(
        q_eigenvalues=2.0 ** -np.arange(1, 5), wiener_fraction=0.5, jump_rate=4.0
    )
    gmap = AffineNoiseMap(
        g1=scaled_random_coupling(model, noise, 0.5, seed=12345), g2=0.5 * np.eye(4)
    )
    return model, noise, gmap, 1.0 / np.arange(1, 5)


def exact_ou_second_moment(s, t):
    """Stochastic convolution closed form for the scalar additive case."""
    return 0.5 * (np.exp(-np.abs(t - s)) - np.exp(-(s + t)))


def solve_second_moment_coeffs(model, noise, gmap, x0, steps):
    system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=model.horizon))
    mean = solve_mean(system, x0)
    load = rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0))
    return system, mean, picard_solve_second_moment(system, noise, gmap, load)


def test_criterion_01_scalar_additive_end_to_end():
    started = time.perf_counter()
    model, noise, gmap, x0 = scalar_additive()

    errors = {}
    for steps in (64, 128):
        _, _, solution = solve_second_moment_coeffs(model, noise, gmap, x0, steps)
        nodes = np.arange(1, steps + 1) / steps
        s_grid, t_grid = np.meshgrid(nodes, nodes, indexing="ij")
        exact = exact_ou_second_moment(s_grid, t_grid)
        errors[steps] = float(
            np.max(np.abs(dense_coeffs(solution)[:, 0, :, 0] - exact)) / np.max(np.abs(exact))
        )
    ratio = errors[64] / errors[128]

    est = simulate_moments(
        model, noise, gmap, x0, steps=16, paths=100_000, seed=0, substeps=64
    )
    nodes = np.linspace(0.0, 1.0, 17)
    s_grid, t_grid = np.meshgrid(nodes, nodes, indexing="ij")
    exact = exact_ou_second_moment(s_grid, t_grid)
    diff = np.abs(est.second_moment[:, 0, :, 0] - exact)
    violations = int(np.count_nonzero(diff > 3 * est.second_moment_se[:, 0, :, 0]))

    elapsed = time.perf_counter() - started
    ok = (
        errors[128] <= 0.02
        and 1.6 <= ratio <= 2.4
        and violations == 0
        and elapsed <= 120.0
    )
    report(
        1, ok,
        f"solver rel err @128 = {errors[128]:.4f} (<= 0.02), refinement ratio "
        f"{ratio:.2f} (in [1.6, 2.4]), MC entries beyond 3 SE: {violations}/289, "
        f"elapsed {elapsed:.1f}s (<= 120)",
    )


def test_criterion_02_scalar_multiplicative_contraction_and_oracle():
    started = time.perf_counter()
    model, noise, gmap, x0 = scalar_multiplicative()

    norm = g1_v_to_hs_norm(gmap, model, noise)
    exact_half = norm == 0.5

    _, _, solution = solve_second_moment_coeffs(model, noise, gmap, x0, 128)
    trace = solution.trace
    ratios = [trace[i + 1] / trace[i] for i in range(len(trace) - 1) if trace[i] > 0]
    contraction = max(ratios)

    oracle = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), 128)
    diag = solution.time_diagonal()[:, 0, 0]
    rel = float(
        np.max(np.abs(diag - oracle.diag_second_moment[1:, 0, 0]))
        / np.max(np.abs(oracle.diag_second_moment[1:, 0, 0]))
    )

    elapsed = time.perf_counter() - started
    ok = exact_half and contraction <= 0.35 and rel <= 0.02 and elapsed <= 120.0
    report(
        2, ok,
        f"g1 norm = {norm} (exactly 0.5: {exact_half}), contraction factor "
        f"{contraction:.3f} (<= 0.35), diag vs oracle rel err {rel:.4f} (<= 0.02), "
        f"elapsed {elapsed:.1f}s (<= 120)",
    )


def test_criterion_03_multimode_cross_validation():
    started = time.perf_counter()
    model, noise, gmap, x0 = multimode()
    steps, grid_steps, stride = 512, 16, 32

    system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
    mean = solve_mean(system, x0)
    cov_sol = picard_solve_second_moment(
        system, noise, gmap, rhs_covariance(system, noise, gmap, mean, np.zeros((4, 4)))
    )

    est = simulate_moments(
        model, noise, gmap, x0, steps=grid_steps, paths=10_000, seed=7, substeps=stride
    )
    idx = np.arange(1, grid_steps + 1) * stride - 1  # intervals ending at MC nodes
    modes = np.arange(4)
    cov_var = dense_coeffs(cov_sol)[np.ix_(idx, modes, idx, modes)]
    diff = np.abs(cov_var - est.covariance[1:, :, 1:, :])
    within = diff <= 3 * est.covariance_se[1:, :, 1:, :]
    fraction = float(within.mean())

    oracle = lyapunov_solve(model, noise, gmap, x0, np.outer(x0, x0), steps)
    exact_mean = mean_exact(model, x0, steps)
    cov_oracle = oracle.diag_second_moment - np.einsum(
        "kn,km->knm", exact_mean, exact_mean
    )
    rel = float(
        np.max(np.abs(cov_sol.time_diagonal() - cov_oracle[1:]))
        / np.max(np.abs(cov_oracle[1:]))
    )

    elapsed = time.perf_counter() - started
    ok = fraction >= 0.99 and rel <= 0.03 and elapsed <= 600.0
    report(
        3, ok,
        f"covariance within 3 SE on {fraction:.2%} of {within.size} grid entries "
        f"(>= 99%), diag vs oracle rel err {rel:.4f} (<= 0.03), "
        f"elapsed {elapsed:.1f}s (<= 600)",
    )


def test_criterion_04_tensor_norm_suite():
    rng = np.random.default_rng(4242)
    chain_violations = 0
    witness_failures = 0
    for _ in range(1000):
        rows, cols = rng.integers(1, 9, size=2)
        entries = rng.standard_normal((rows, cols))
        scale = np.linalg.norm(entries)
        if scale > 0:
            entries = entries / scale
        x = Tensor2(entries)
        inj, hil, proj = injective_norm(x), hilbert_norm(x), projective_norm(x)
        if not (inj <= hil + 1e-10 and hil <= proj + 1e-10):
            chain_violations += 1
        u, _, vt = np.linalg.svd(entries, full_matrices=False)
        witness = Tensor2(u @ vt)
        if abs(dual_pair(x, witness) - proj) > 1e-10:
            witness_failures += 1

    # the covariance kernel is diag(gamma) in the eigenbasis; its
    # projective norm is the trace of the covariance operator
    gammas = rng.random(6)
    kernel_gap = abs(projective_norm(Tensor2(np.diag(gammas))) - float(np.sum(gammas)))
    kernel_gap = max(
        kernel_gap, abs(projective_norm(Tensor2(np.diag([0.5, 0.25]))) - 0.75))

    ok = chain_violations == 0 and witness_failures == 0 and kernel_gap <= 1e-12
    report(
        4, ok,
        f"norm chain violations {chain_violations}/1000, duality witness failures "
        f"{witness_failures}/1000 (tol 1e-10), kernel norm vs trace gap "
        f"{kernel_gap:.2e} (<= 1e-12)",
    )


def test_criterion_05_weak_ito_isometry():
    steps, horizon, samples = 16, 1.0, 100_000
    nodes = np.linspace(0.0, horizon, steps + 1)

    scalar_noise = NoiseModel(q_eigenvalues=[1.0])
    v_scalar = np.ones((steps + 1, 1))
    phi_scalar = np.ones((steps + 1, 1, 1))

    pair_noise = NoiseModel(q_eigenvalues=[0.7, 0.3], wiener_fraction=0.5, jump_rate=3.0)
    v1 = np.stack([np.cos(nodes), np.sin(nodes)], axis=1)
    v2 = np.stack([1.0 - nodes, nodes ** 2], axis=1)
    phi = np.empty((steps + 1, 2, 2))
    for k, t in enumerate(nodes):
        phi[k] = [[1.0, 0.3 * t], [0.2, 0.5 + t]]

    good_runs = 0
    worst = 0.0
    for run in range(20):
        rng = np.random.default_rng([77, run])
        _, rhs_s, z_scalar = ito_isometry_check(
            scalar_noise, v_scalar, v_scalar, phi_scalar, samples, rng, horizon
        )
        _, _, z_pair = ito_isometry_check(pair_noise, v1, v2, phi, samples, rng, horizon)
        worst = max(worst, abs(z_scalar), abs(z_pair))
        if abs(z_scalar) < 3.0 and abs(z_pair) < 3.0:
            good_runs += 1
    assert rhs_s == pytest.approx(1.0, abs=1e-14)

    ok = good_runs >= 19  # 95 percent of 20 runs
    report(
        5, ok,
        f"runs with both |z| < 3: {good_runs}/20 (>= 19), worst |z| = {worst:.2f}",
    )


def test_criterion_06_weak_identity_refinement():
    model, noise, gmap, x0 = scalar_multiplicative()
    rms = []
    for steps in (32, 64, 128):
        paths, increments = simulate_paths(
            model, noise, gmap, x0, steps=steps, paths=1000, seed=5
        )
        v = (1.0 - np.linspace(0.0, 1.0, steps + 1))[:, None]
        residuals = [
            weak_identity_residual(path, v, model, gmap, inc)
            for path, inc in zip(paths, increments)
        ]
        rms.append(float(np.sqrt(np.mean(np.square(residuals)))))

    ok = rms[0] > rms[1] > rms[2]
    report(
        6, ok,
        f"RMS residuals over paths at K in (32, 64, 128): "
        f"{rms[0]:.5f} > {rms[1]:.5f} > {rms[2]:.5f} (monotone decrease)",
    )


def test_criterion_07_covariance_equals_moment_minus_mean_square():
    worst = 0.0
    for setup, steps in ((scalar_additive, 128), (scalar_multiplicative, 128), (multimode, 128)):
        model, noise, gmap, x0 = setup()
        system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        mean = solve_mean(system, x0)
        n = model.dim
        m2 = picard_solve_second_moment(
            system, noise, gmap,
            rhs_second_moment(system, noise, gmap, mean, np.outer(x0, x0)),
        )
        cov = picard_solve_second_moment(
            system, noise, gmap,
            rhs_covariance(system, noise, gmap, mean, np.zeros((n, n))),
        )
        mean_sq = np.einsum("kn,lm->knlm", mean, mean)
        worst = max(worst, float(np.max(np.abs(dense_coeffs(cov) - (dense_coeffs(m2) - mean_sq)))))

    ok = worst <= 1e-8
    report(
        7, ok,
        f"max entrywise gap between the covariance solve and the subtracted "
        f"second moment over the three benchmark setups: {worst:.2e} (<= 1e-8)",
    )


def test_criterion_08_discrete_inf_sup_diagnostic():
    values = {}
    for lam in (1.0, 10.0, 100.0):
        model = SpectralModel(eigenvalues=[lam], horizon=1.0)
        values[lam] = [
            float(per_mode_singular_range(
                assemble_per_mode(model, TimeGrid(steps=k, horizon=1.0)))[0][0])
            for k in (16, 32, 64)
        ]

    all_above_floor = all(v >= 0.2 for vals in values.values() for v in vals)
    spreads = {
        lam: (max(vals) - min(vals)) / min(vals) for lam, vals in values.items()
    }
    stable = all(spread <= 0.10 for spread in spreads.values())

    detail = "; ".join(
        f"eig {lam:g}: values {[round(v, 4) for v in vals]}, spread {spreads[lam]:.1%}"
        for lam, vals in values.items()
    )
    ok = all_above_floor and stable
    report(8, ok, f"floor 0.2 everywhere: {all_above_floor}; spread <= 10%: {stable} ({detail})")


def test_criterion_09_semigroup_smoothing_bound():
    rng = np.random.default_rng(99)
    over_bound = 0
    for _ in range(1000):
        lam = float(10.0 ** rng.uniform(-2, 3))
        upper = float(rng.uniform(1e-6, 1.0))
        model = SpectralModel(eigenvalues=[lam], horizon=1.0)
        if smoothing_integral(model, 1, upper) > 0.5:
            over_bound += 1

    saturation_gap = 0.0
    for lam in (20.0, 100.0, 1000.0):
        model = SpectralModel(eigenvalues=[lam], horizon=1.0)
        saturation_gap = max(saturation_gap, abs(smoothing_integral(model, 1, 1.0) - 0.5))

    ok = over_bound == 0 and saturation_gap < 1e-12
    report(
        9, ok,
        f"bound exceedances {over_bound}/1000, saturation gap at large rate "
        f"{saturation_gap:.2e} (< 1e-12)",
    )


def test_criterion_10_mean_solver_first_order():
    model = SpectralModel(eigenvalues=[1.0], horizon=1.0)
    errors = []
    for steps in (32, 64, 128, 256):
        system = assemble_per_mode(model, TimeGrid(steps=steps, horizon=1.0))
        coeffs = solve_mean(system, np.ones(1))
        exact = np.exp(-np.arange(1, steps + 1) / steps)
        errors.append(float(np.max(np.abs(coeffs[:, 0] - exact))))
    orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]

    ok = all(0.7 <= order <= 1.3 for order in orders)
    report(
        10, ok,
        f"sup-node errors {[f'{e:.5f}' for e in errors]}, observed orders "
        f"{[f'{o:.3f}' for o in orders]} (each in [0.7, 1.3])",
    )
