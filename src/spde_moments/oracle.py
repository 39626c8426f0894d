"""Independent reference computations for the mean and second moment.

The mean is the semigroup applied to the initial mean. The equal-time
second moment matrix solves the matrix differential equation

    M'(t) = -(Lam M + M Lam) + Phi(M(t), m(t)),       M(0) = M0,

where Lam = diag(lambda) and Phi collects the four quadratic noise
terms of the affine operator against the covariance eigenvalues. The
equation is integrated with classical Runge-Kutta on a fixed substepped
grid so reference numbers are reproducible.

Two-time values follow from the equal-time ones because the driver is a
martingale: conditionally on time s, the stochastic convolution
increment up to t > s has mean zero, so the second slot is propagated
by the semigroup alone.

This route shares no time-propagation machinery with the space-time
variational solver and serves as its brute-force cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .levy import NoiseModel
from .noise_map import AffineNoiseMap, check_compatible, noise_quadratic_form
from .spectral import SpectralModel

__all__ = [
    "MomentField",
    "mean_exact",
    "lyapunov_solve",
    "two_time_extend",
]


@dataclass(frozen=True)
class MomentField:
    """Mean and second-moment values on a uniform time grid."""

    grid: np.ndarray                      # (K+1,) nodes
    mean: np.ndarray                      # (K+1, N)
    diag_second_moment: np.ndarray        # (K+1, N, N), M(t) = E[X(t) (x) X(t)]
    two_time: Optional[np.ndarray] = None  # (K+1, N, K+1, N) when filled


def mean_exact(model: SpectralModel, x0_mean: np.ndarray, steps: int) -> np.ndarray:
    """Mean of the mild solution: the semigroup applied to the initial mean.

    The stochastic integral has zero mean, so the noise operator does
    not enter. Returns a (steps+1, N) array on the uniform grid.
    """
    if steps < 1:
        raise ValueError(f"step count must be positive, got {steps}")
    x0_mean = np.asarray(x0_mean, dtype=float)
    if x0_mean.shape != (model.dim,):
        raise ValueError(f"initial mean must have length {model.dim}")
    t = np.linspace(0.0, model.horizon, steps + 1)
    return np.exp(-np.outer(t, model.eigenvalues)) * x0_mean


def lyapunov_solve(
    model: SpectralModel,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    m0: np.ndarray,
    M0: np.ndarray,
    steps: int,
    substeps: int = 4,
) -> MomentField:
    """Integrate the second-moment matrix equation with classical Runge-Kutta.

    Uses `substeps` internal stages per grid step (at least 4). Returns
    the equal-time second moment on the grid; the initial law enters
    through the mean m0 and second moment M0.
    """
    if steps < 1:
        raise ValueError(f"step count must be positive, got {steps}")
    substeps = max(int(substeps), 4)
    check_compatible(gmap, noise, model.dim)
    m0 = np.asarray(m0, dtype=float)
    M0 = np.asarray(M0, dtype=float)
    n = model.dim
    if m0.shape != (n,):
        raise ValueError(f"initial mean must have length {n}")
    if M0.shape != (n, n):
        raise ValueError(f"initial second moment must be {n}x{n}")
    scale = max(1.0, float(np.abs(M0).max()))
    if np.max(np.abs(M0 - M0.T)) > 1e-12 * scale:
        raise ValueError("initial second moment must be symmetric")

    lam = model.eigenvalues
    mean = mean_exact(model, m0, steps)

    def rate(t: float, M: np.ndarray) -> np.ndarray:
        m_t = np.exp(-lam * t) * m0
        return -(lam[:, None] * M + M * lam[None, :]) + noise_quadratic_form(gmap, noise, M, m_t)

    h = model.horizon / (steps * substeps)
    diag = np.empty((steps + 1, n, n))
    diag[0] = M0
    M = M0.copy()
    t = 0.0
    for k in range(steps):
        for _ in range(substeps):
            k1 = rate(t, M)
            k2 = rate(t + 0.5 * h, M + 0.5 * h * k1)
            k3 = rate(t + 0.5 * h, M + 0.5 * h * k2)
            k4 = rate(t + h, M + h * k3)
            M = M + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
        diag[k + 1] = M

    grid = np.linspace(0.0, model.horizon, steps + 1)
    return MomentField(grid=grid, mean=mean, diag_second_moment=diag)


def two_time_extend(model: SpectralModel, field: MomentField) -> MomentField:
    """Fill the two-time second moment from the equal-time values.

    For t_l >= t_k the second slot is propagated by the semigroup,

        M2[k, n, l, m] = exp(-lambda_m (t_l - t_k)) M(t_k)[n, m],

    and the block for t_l < t_k follows by the symmetry of the field.
    """
    diag = field.diag_second_moment
    nodes = field.grid
    kk, n = diag.shape[0], diag.shape[1]
    if n != model.dim:
        raise ValueError(f"field dimension {n} != model dimension {model.dim}")
    lam = model.eigenvalues
    two = np.empty((kk, n, kk, n))
    for k in range(kk):
        # l >= k: propagate the second index forward from t_k to t_l
        decay = np.exp(-np.outer(nodes[k:] - nodes[k], lam))  # (kk-k, N)
        two[k, :, k:, :] = diag[k][:, None, :] * decay[None, :, :]
    for k in range(kk):
        for l in range(k):
            two[k, :, l, :] = two[l, :, k, :].T
    return MomentField(grid=nodes, mean=field.mean, diag_second_moment=diag, two_time=two)
