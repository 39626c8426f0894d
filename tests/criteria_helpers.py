"""Quantities that acceptance criteria measure and no route computes.

- Cross norms of order-2 tensors over finite-dimensional Hilbert spaces
  (criterion 4). With orthonormal bases in both factors an order-2
  tensor is exactly a matrix of coefficients, and the projective,
  Hilbert, and injective cross norms are the nuclear, Frobenius, and
  spectral matrix norms. The singular value decomposition is the single
  computational primitive.
- The Ito isometry for weak stochastic integrals (criterion 5,
  ito_isometry_check).
- The residual of the weak form of the mild solution along one path
  (criterion 6, weak_identity_residual).
- The smoothing integral of one eigenmode, a closed form in its
  eigenvalue (criterion 9, smoothing_integral).
- The noise map applied once to states and increments held as columns
  (g_apply_columns), the package's bound kernel evaluated once.

They read the package's model definitions and noise map, and nothing in
the package calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spde_moments.levy import NoiseModel, sample_increments
from spde_moments.noise_map import AffineNoiseMap, g_apply_bound
from spde_moments.spectral import SpectralModel


def g_apply_columns(gmap: AffineNoiseMap, state: np.ndarray, increment: np.ndarray) -> np.ndarray:
    """G(x) w for the P paths of state (N, P) and increment (M, P), paths
    last: noise_map.g_apply_bound evaluated once. increment may be a
    transposed view, such as the .T of (P, M) draws."""
    return g_apply_bound(gmap, state, increment)()


@dataclass(frozen=True)
class Tensor2:
    """Dense coefficient matrix of a tensor u = sum_k phi_k (x) psi_k."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=float)
        if e.ndim != 2:
            raise ValueError(f"entries must be a matrix, got ndim={e.ndim}")
        if not np.all(np.isfinite(e)):
            raise ValueError("entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


def projective_norm(x: Tensor2) -> float:
    """Nuclear norm: the sum of singular values."""
    return float(np.sum(np.linalg.svd(x.entries, compute_uv=False)))


def injective_norm(x: Tensor2) -> float:
    """Spectral norm: the largest singular value."""
    s = np.linalg.svd(x.entries, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def hilbert_norm(x: Tensor2) -> float:
    """Frobenius norm: square root of the sum of squared entries."""
    return float(np.linalg.norm(x.entries, "fro"))


def dual_pair(x: Tensor2, y: Tensor2) -> float:
    """Frobenius pairing between dual realizations of the cross norms.

    The supremum of dual_pair(x, y) over injective_norm(y) <= 1 equals
    projective_norm(x), attained at y = U V^t from the SVD of x.
    """
    if x.entries.shape != y.entries.shape:
        raise ValueError(f"shape mismatch: {x.entries.shape} vs {y.entries.shape}")
    return float(np.sum(x.entries * y.entries))


def smoothing_integral(model: SpectralModel, mode: int, upper: float) -> float:
    """Integral of lambda_n * exp(-2 lambda_n t) over (0, upper] for mode n.

    Equals (1 - exp(-2 lambda_n upper)) / 2, hence never exceeds 1/2; the
    bound is attained in the limit of large lambda_n * upper.
    """
    if int(mode) != mode or not 1 <= mode <= model.dim:
        raise ValueError(f"mode index must lie in 1..{model.dim}, got {mode!r}")
    if not 0.0 < upper <= model.horizon:
        raise ValueError(f"upper limit must lie in (0, {model.horizon}], got {upper!r}")
    lam = model.eigenvalues[int(mode) - 1]
    return float(-np.expm1(-2.0 * lam * upper) / 2.0)


def weak_identity_residual(
    path: np.ndarray,
    v: np.ndarray,
    model: SpectralModel,
    gmap: AffineNoiseMap,
    increments: np.ndarray,
) -> float:
    """Residual of the weak form of the mild solution along one path.

    The left side integrates the path against the test function under
    the adjoint parabolic operator; the right side carries the initial
    pairing plus the stochastic integral. Both use quadratures aligned
    with the simulation grid: left endpoints for the path and the
    stochastic integrand, trapezoids for the operator term. The residual
    shrinks as the grid refines.
    """
    path = np.asarray(path, dtype=float)
    v = np.asarray(v, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if path.ndim != 2 or path.shape[1] != model.dim:
        raise ValueError(f"path must be (K+1, {model.dim})")
    K = path.shape[0] - 1
    if K < 1:
        raise ValueError("path must have at least two nodes")
    if v.shape != path.shape:
        raise ValueError(f"test function shape {v.shape} != path shape {path.shape}")
    if increments.shape != (K, gmap.noise_dim):
        raise ValueError(f"increments must be (K, {gmap.noise_dim})")
    if np.max(np.abs(v[-1])) > 1e-12:
        raise ValueError("test function must vanish at the final node")

    dt = model.horizon / K
    lam = model.eigenvalues
    x_left = path[:-1]
    v_mid = 0.5 * (v[:-1] + v[1:])
    dv = (v[1:] - v[:-1]) / dt
    lhs = dt * float(np.sum(x_left * (lam * v_mid - dv)))
    # (K, N), the left-point integrand
    noise_term = g_apply_columns(gmap, x_left.T, increments.T).T
    rhs = float(path[0] @ v[0]) + float(np.sum(v[:-1] * noise_term))
    return lhs - rhs


def ito_isometry_check(
    noise: NoiseModel,
    v1: np.ndarray,
    v2: np.ndarray,
    phi: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    horizon: float = 1.0,
) -> tuple[float, float, float]:
    """Monte Carlo check of the isometry for weak stochastic integrals.

    v1, v2 are deterministic time-nodal (K+1, N) test functions and phi
    a deterministic (K+1, N, M) integrand. The left side estimates the
    expected product of the two weak integrals by simulation with
    left-point quadrature; the right side is the matching quadrature of
    sum_m gamma_m <v1, phi e_m> <v2, phi e_m>. Returns (lhs, rhs, z).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if v1.shape != v2.shape or v1.ndim != 2:
        raise ValueError("v1 and v2 must be (K+1, N) arrays of equal shape")
    if v1.shape[0] < 2:
        raise ValueError("test functions must have at least two nodes")
    if phi.shape != (v1.shape[0], v1.shape[1], noise.dim):
        raise ValueError(f"phi must have shape {(v1.shape[0], v1.shape[1], noise.dim)}")
    if samples < 2:
        raise ValueError("at least two samples are required")
    K = v1.shape[0] - 1
    dt = horizon / K

    a1 = np.einsum("kn,knm->km", v1[:-1], phi[:-1])  # (K, M) left-point integrands
    a2 = np.einsum("kn,knm->km", v2[:-1], phi[:-1])
    i1 = np.zeros(samples)
    i2 = np.zeros(samples)
    for k in range(K):
        dL = sample_increments(noise, dt, samples, rng)
        i1 += dL @ a1[k]
        i2 += dL @ a2[k]
    product = i1 * i2
    lhs = float(product.mean())
    rhs = float(dt * np.einsum("km,km,m->", a1, a2, noise.q_eigenvalues))
    se = float(product.std(ddof=1) / np.sqrt(samples))
    z = (lhs - rhs) / se if se > 0.0 else 0.0
    return lhs, rhs, z
