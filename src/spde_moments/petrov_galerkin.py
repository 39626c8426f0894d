"""Space-time Petrov-Galerkin solver for the mean, second-moment, and
covariance problems.

Discretization. Trial functions are indicators of the K uniform time
intervals crossed with the spectral modes; test functions are the
continuous piecewise-linear hats at the nodes t_0 .. t_{K-1}, all of
which vanish at the final time. The parabolic pairing of one trial
indicator against one test hat gives, per spatial mode n, the K x K
matrix

    B_n[k, l] = [hat_l(t_{k-1}) - hat_l(t_k)] + lambda_n int_{I_k} hat_l,

an invertible bidiagonal matrix. The pairing couples no distinct
spatial modes, so every tensorized solve factors into mode pairs and
two sequential triangular solves.

Moment problems. The second moment (and the covariance) in the trial
tensor basis solves a fixed-point equation: the tensorized parabolic
operator applied to the unknown equals a fixed load plus a coupling
term that reads only the diagonal-in-time blocks of the unknown through
the quadratic noise action. The coupling is contractive when the
energy-to-Hilbert-Schmidt norm of the multiplicative part is below one,
and the problems are solved by successive substitution starting from
the zero-coupling solve.

Because test hats overlap single intervals where the trial functions
are constant, reading diagonal-in-time blocks is exact for this pair,
not an approximation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import solve_triangular, svdvals

from .levy import NoiseModel
from .noise_map import (
    AffineNoiseMap,
    check_compatible,
    g1_v_to_hs_norm,
    multiplicative_form,
    noise_quadratic_form,
)
from .spectral import SpectralModel

__all__ = [
    "TimeGrid",
    "PerModeSystem",
    "SpaceTimeMoment",
    "AssemblyError",
    "PicardNonConvergence",
    "assemble_per_mode",
    "solve_mean",
    "tdelta_assemble",
    "rhs_second_moment",
    "rhs_covariance",
    "picard_solve_second_moment",
    "solve_covariance",
    "apply_tensor_operator",
    "per_mode_inf_sup",
    "per_mode_operator_bound",
    "discrete_inf_sup",
]


class AssemblyError(RuntimeError):
    """Raised when an assembled system violates a structural requirement."""


class PicardNonConvergence(RuntimeError):
    """Fixed-point iteration exhausted its budget; carries the update trace."""

    def __init__(self, trace: list[float], max_iter: int):
        super().__init__(
            f"Picard iteration did not converge within {max_iter} iterations "
            f"(last update {trace[-1]:.3e})"
        )
        self.trace = list(trace)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with K >= 2 intervals on [0, horizon]."""

    steps: int
    horizon: float

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"at least two time steps are required, got {self.steps}")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class PerModeSystem:
    """Assembled per-mode matrices of the space-time pairing.

    operator[n] is the trial-test matrix B_n above (rows: trial
    intervals, columns: test hats). trial_gram_diag[n] holds the
    diagonal lambda_n * dt of the trial Gram in the energy norm;
    test_gram[n] is the tridiagonal test Gram in the graph norm
    lambda_n * mass + stiffness / lambda_n.
    """

    grid: TimeGrid
    eigenvalues: np.ndarray       # (N,)
    operator: np.ndarray          # (N, K, K)
    trial_gram_diag: np.ndarray   # (N, K)
    test_gram: np.ndarray         # (N, K, K)

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)


def _hat_mass(grid: TimeGrid) -> np.ndarray:
    """Mass matrix of the hats at nodes t_0 .. t_{K-1}; exact integrals."""
    K, dt = grid.steps, grid.dt
    m = np.zeros((K, K))
    for l in range(K):
        support_intervals = 2 if l >= 1 else 1
        m[l, l] = support_intervals * dt / 3.0
        if l + 1 <= K - 1:
            m[l, l + 1] = m[l + 1, l] = dt / 6.0
    return m


def _hat_stiffness(grid: TimeGrid) -> np.ndarray:
    """Stiffness matrix of the hat derivatives; exact integrals."""
    K, dt = grid.steps, grid.dt
    s = np.zeros((K, K))
    for l in range(K):
        support_intervals = 2 if l >= 1 else 1
        s[l, l] = support_intervals / dt
        if l + 1 <= K - 1:
            s[l, l + 1] = s[l + 1, l] = -1.0 / dt
    return s


def assemble_per_mode(model: SpectralModel, grid: TimeGrid) -> PerModeSystem:
    """Assemble the pairing matrices and Grams for every spatial mode."""
    if not np.isclose(grid.horizon, model.horizon):
        raise ValueError(
            f"grid horizon {grid.horizon} differs from model horizon {model.horizon}"
        )
    K, dt = grid.steps, grid.dt
    lam = model.eigenvalues
    n = model.dim

    operator = np.zeros((n, K, K))
    diag_idx = np.arange(K)
    for i, lam_n in enumerate(lam):
        operator[i, diag_idx, diag_idx] = 1.0 + lam_n * dt / 2.0
        operator[i, diag_idx[:-1], diag_idx[:-1] + 1] = -1.0 + lam_n * dt / 2.0
        if np.any(np.diag(operator[i]) <= 0.0):
            raise AssemblyError(f"trial-test matrix for mode {i} is singular")

    mass = _hat_mass(grid)
    stiff = _hat_stiffness(grid)
    test_gram = np.array([lam_n * mass + stiff / lam_n for lam_n in lam])
    trial_gram_diag = np.outer(lam, np.full(K, dt))
    return PerModeSystem(
        grid=grid,
        eigenvalues=lam,
        operator=operator,
        trial_gram_diag=trial_gram_diag,
        test_gram=test_gram,
    )


def solve_mean(system: PerModeSystem, x0_mean: np.ndarray) -> np.ndarray:
    """Trial coefficients of the mean problem, one decoupled solve per mode.

    The load pairs the initial mean against the test hats at time zero,
    which places it in the first test row only. Returns (K, N).
    """
    x0_mean = np.asarray(x0_mean, dtype=float)
    n = system.n_modes
    if x0_mean.shape != (n,):
        raise ValueError(f"initial mean must have length {n}")
    K = system.grid.steps
    coeffs = np.empty((K, n))
    rhs = np.zeros(K)
    for i in range(n):
        rhs[0] = x0_mean[i]
        coeffs[:, i] = solve_triangular(system.operator[i].T, rhs, lower=True)
    return coeffs


def tdelta_assemble(grid: TimeGrid) -> np.ndarray:
    """Temporal weights W[k, l1, l2] = int_{I_k} hat_l1 hat_l2.

    Exact quadrature of the degree-two products. W is symmetric in the
    hat indices and sparse: on interval I_k only the hats at its two
    endpoints are nonzero, and the final interval supports one hat.
    """
    K, dt = grid.steps, grid.dt
    w = np.zeros((K, K, K))
    for i in range(K):
        w[i, i, i] = dt / 3.0
        if i + 1 <= K - 1:
            w[i, i, i + 1] = w[i, i + 1, i] = dt / 6.0
            w[i, i + 1, i + 1] = dt / 3.0
    return w


def _tdelta_apply(grid: TimeGrid, spatial: np.ndarray) -> np.ndarray:
    """Contract per-interval spatial matrices with the temporal weights.

    spatial: (K, N, N) matrices, constant per interval. Returns the
    test-side load (K, N, K, N); equivalent to contracting against the
    dense tdelta_assemble output, but uses its block-tridiagonal
    structure directly.
    """
    K, dt = grid.steps, grid.dt
    n1, n2 = spatial.shape[1], spatial.shape[2]
    load = np.zeros((K, n1, K, n2))
    idx = np.arange(K)
    load[idx, :, idx, :] += dt / 3.0 * spatial
    load[idx[1:], :, idx[1:], :] += dt / 3.0 * spatial[:-1]
    load[idx[:-1], :, idx[:-1] + 1, :] += dt / 6.0 * spatial[:-1]
    load[idx[:-1] + 1, :, idx[:-1], :] += dt / 6.0 * spatial[:-1]
    return load


def _initial_and_mean_load(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    mean_coeffs: np.ndarray,
    initial_matrix: np.ndarray,
    include_mean_product: bool,
) -> np.ndarray:
    check_compatible(gmap, noise, system.n_modes)
    K, n = system.grid.steps, system.n_modes
    if mean_coeffs is None:
        raise ValueError("mean coefficients are required; solve the mean problem first")
    mean_coeffs = np.asarray(mean_coeffs, dtype=float)
    if mean_coeffs.shape != (K, n):
        raise ValueError(f"mean coefficients must be ({K}, {n}), got {mean_coeffs.shape}")
    initial_matrix = np.asarray(initial_matrix, dtype=float)
    if initial_matrix.shape != (n, n):
        raise ValueError(f"initial matrix must be {n}x{n}, got {initial_matrix.shape}")

    if include_mean_product:
        quadratic = mean_coeffs[:, :, None] * mean_coeffs[:, None, :]
    else:
        quadratic = np.zeros((n, n))
    spatial = noise_quadratic_form(gmap, noise, quadratic, mean_coeffs)  # (K, N, N)
    load = _tdelta_apply(system.grid, spatial)
    load[0, :, 0, :] += initial_matrix  # only the first hat is nonzero at t = 0
    return load


def rhs_second_moment(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    mean_coeffs: np.ndarray,
    m2_initial: np.ndarray,
) -> np.ndarray:
    """Test-side load of the second-moment problem.

    Carries the initial second moment at time zero plus the three noise
    terms that involve the additive part, evaluated with the piecewise
    constant mean on each interval. The purely multiplicative term is
    not part of the load; it enters through the fixed-point coupling.
    """
    return _initial_and_mean_load(
        system, noise, gmap, mean_coeffs, m2_initial, include_mean_product=False
    )


def rhs_covariance(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    mean_coeffs: np.ndarray,
    cov_initial: np.ndarray,
) -> np.ndarray:
    """Test-side load of the covariance problem.

    Same structure as the second-moment load, but the initial term is
    the initial covariance and the noise action is evaluated on the full
    affine operator at the mean, i.e. with the mean outer product in the
    quadratic slot.
    """
    return _initial_and_mean_load(
        system, noise, gmap, mean_coeffs, cov_initial, include_mean_product=True
    )


@dataclass(frozen=True)
class SpaceTimeMoment:
    """Trial coefficients U[k, n, l, m] of a two-time moment field,
    with the fixed-point trace and the load the returned iterate solves."""

    grid: TimeGrid
    coeffs: np.ndarray        # (K, N, K, N)
    trace: np.ndarray         # update max-norms per iteration
    iterations: int
    final_load: np.ndarray    # (K, N, K, N)

    def time_diagonal(self) -> np.ndarray:
        """Diagonal-in-time blocks D_k = U[k, :, k, :], shape (K, N, N)."""
        return np.einsum("knkm->knm", self.coeffs)


def _kron_solve(system: PerModeSystem, load: np.ndarray) -> np.ndarray:
    """Solve the tensorized pairing against a test-side load.

    Factorizes over mode pairs: each (m1, m2) block takes two sequential
    triangular solves with the transposed per-mode matrices.
    """
    K, n = system.grid.steps, system.n_modes
    out = np.empty_like(load)
    for m1 in range(n):
        # first solve acts on the l1 axis for all (l2, m2) right-hand sides
        y = solve_triangular(
            system.operator[m1].T, load[:, m1].reshape(K, K * n), lower=True
        ).reshape(K, K, n)
        for m2 in range(n):
            out[:, m1, :, m2] = solve_triangular(
                system.operator[m2].T, y[:, :, m2].T, lower=True
            ).T
    return out


def apply_tensor_operator(system: PerModeSystem, coeffs: np.ndarray) -> np.ndarray:
    """Forward application of the tensorized pairing to trial coefficients.

    Inverse of _kron_solve; used to verify solves reproduce their loads.
    """
    K, n = system.grid.steps, system.n_modes
    out = np.empty_like(coeffs)
    for m1 in range(n):
        for m2 in range(n):
            out[:, m1, :, m2] = system.operator[m1].T @ coeffs[:, m1, :, m2] @ system.operator[m2]
    return out


def _coupling_load(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    coeffs: np.ndarray,
) -> np.ndarray:
    """Quadratic noise action of the diagonal-in-time blocks of an iterate."""
    diag_blocks = np.einsum("knkm->knm", coeffs)
    return _tdelta_apply(system.grid, multiplicative_form(gmap, noise, diag_blocks))


def _contraction_report(trace: list[float], bound: float, tol_floor: float) -> None:
    meaningful = [d for d in trace if d > tol_floor]
    if len(meaningful) < 2:
        return
    ratio = meaningful[-1] / meaningful[-2]
    if ratio > bound:
        warnings.warn(
            f"observed Picard update ratio {ratio:.3f} exceeds the expected "
            f"contraction bound {bound:.3f}",
            RuntimeWarning,
            stacklevel=3,
        )


def picard_solve_second_moment(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    load: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SpaceTimeMoment:
    """Solve the moment fixed-point problem by successive substitution.

    Starts from the zero-coupling solve, then repeatedly re-solves with
    the coupling term evaluated at the previous iterate. Stops when the
    max-norm update drops below tol relative to the iterate scale. With
    a purely additive noise operator the map is constant and a single
    iteration confirms convergence.
    """
    check_compatible(gmap, noise, system.n_modes)
    K, n = system.grid.steps, system.n_modes
    load = np.asarray(load, dtype=float)
    if load.shape != (K, n, K, n):
        raise ValueError(f"load must have shape {(K, n, K, n)}, got {load.shape}")
    model = SpectralModel(eigenvalues=system.eigenvalues, horizon=system.grid.horizon)
    g1_norm = g1_v_to_hs_norm(gmap, model, noise)
    if g1_norm >= 1.0:
        warnings.warn(
            f"multiplicative norm {g1_norm:.3f} >= 1: no contraction guarantee, "
            "the iteration may fail to converge",
            RuntimeWarning,
            stacklevel=2,
        )

    coeffs = _kron_solve(system, load)
    trace: list[float] = []
    final_load = load
    for iteration in range(1, max_iter + 1):
        current = load + _coupling_load(system, noise, gmap, coeffs)
        new_coeffs = _kron_solve(system, current)
        delta = float(np.max(np.abs(new_coeffs - coeffs)))
        trace.append(delta)
        coeffs = new_coeffs
        final_load = current
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        if delta <= tol * scale:
            if g1_norm < 1.0:
                _contraction_report(trace, g1_norm ** 2 + 0.15, 1e3 * np.finfo(float).eps * scale)
            return SpaceTimeMoment(
                grid=system.grid,
                coeffs=coeffs,
                trace=np.asarray(trace),
                iterations=iteration,
                final_load=final_load,
            )
    raise PicardNonConvergence(trace, max_iter)


def solve_covariance(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    load: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SpaceTimeMoment:
    """Solve the covariance problem; identical iteration, different load."""
    return picard_solve_second_moment(system, noise, gmap, load, tol=tol, max_iter=max_iter)


def _inf_sup_singular_values(system: PerModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Extreme singular values of the Gram-normalized pairing, per mode."""
    K = system.grid.steps
    smallest = np.empty(system.n_modes)
    largest = np.empty(system.n_modes)
    for i in range(system.n_modes):
        w, v = np.linalg.eigh(system.test_gram[i])
        if np.any(w <= 0.0):
            raise AssemblyError(f"test Gram for mode {i} is not positive definite")
        gy_inv_half = (v / np.sqrt(w)) @ v.T
        gx_inv_half = 1.0 / np.sqrt(system.trial_gram_diag[i])
        pencil = gy_inv_half @ system.operator[i].T @ np.diag(gx_inv_half)
        s = svdvals(pencil)
        smallest[i] = s[-1]
        largest[i] = s[0]
    return smallest, largest


def per_mode_inf_sup(system: PerModeSystem) -> np.ndarray:
    """Discrete inf-sup value of each mode's pairing in the trial/test norms."""
    return _inf_sup_singular_values(system)[0]


def per_mode_operator_bound(system: PerModeSystem) -> np.ndarray:
    """Largest singular value of the same normalized pencil, per mode."""
    return _inf_sup_singular_values(system)[1]


def discrete_inf_sup(system: PerModeSystem) -> float:
    """Discrete inf-sup value of the full pairing.

    The pairing couples no distinct modes, so this is the per-mode
    minimum. Reported as a stability diagnostic; the continuous theory
    guarantees a lower bound only for the undiscretized problem.
    """
    return float(per_mode_inf_sup(system).min())
