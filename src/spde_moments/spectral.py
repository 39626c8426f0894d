"""Spectral representation of the elliptic operator.

The operator is self-adjoint, positive definite, and diagonal in its
eigenbasis, so a state is just the array of its eigenmode coefficients,
and the model is its eigenvalues and the time horizon. Each route
applies the heat semigroup itself, as the componentwise factors
exp(-lambda_n t); the smoothing integral of one mode is a closed form in
its eigenvalue. The rules for valid initial data, a state vector and a
symmetric second moment of such states, live here too (state_vector,
moment_matrix), and every entry point applies them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralModel",
    "dirichlet_laplacian",
    "moment_matrix",
    "smoothing_integral",
    "state_vector",
]


@dataclass(frozen=True)
class SpectralModel:
    """Eigenvalues of the operator together with the time horizon.

    Immutable after construction; safe to share between threads.
    """

    eigenvalues: np.ndarray
    horizon: float = 1.0

    def __post_init__(self) -> None:
        lam = np.atleast_1d(np.asarray(self.eigenvalues, dtype=float))
        if lam.ndim != 1 or lam.size == 0:
            raise ValueError("eigenvalues must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(lam)):
            raise ValueError("eigenvalues must be finite")
        if np.any(lam <= 0.0):
            raise ValueError("eigenvalues must be strictly positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("eigenvalues must be sorted ascending")
        horizon = float(self.horizon)
        if not (np.isfinite(horizon) and horizon > 0.0):
            raise ValueError("horizon must be finite and positive")
        lam.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "horizon", horizon)

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)


def dirichlet_laplacian(dim: int, length: float, horizon: float = 1.0) -> SpectralModel:
    """Model with the eigenvalues (n*pi/length)**2 of the 1-d Dirichlet Laplacian."""
    if int(dim) != dim or dim < 1:
        raise ValueError(f"dim must be a positive integer, got {dim!r}")
    if not (np.isfinite(length) and length > 0.0):
        raise ValueError(f"length must be positive, got {length!r}")
    modes = np.arange(1, int(dim) + 1, dtype=float)
    return SpectralModel(eigenvalues=(modes * np.pi / length) ** 2, horizon=horizon)


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


def state_vector(x, n: int, what: str) -> np.ndarray:
    """x as a float64 array of N = n finite mode coefficients; refuses,
    naming `what`, any other length or a coefficient that is not finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{what} must have length {n}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} must be finite")
    return x


def moment_matrix(m, shape: tuple[int, ...], what: str, psd: bool = False) -> np.ndarray:
    """m as a float64 stack (..., N, N) of symmetric matrices of the given shape.

    Refuses, naming `what`, another shape, an entry that is not finite,
    or an asymmetry beyond 1e-12 of the max-norm (at least 1); with
    `psd`, also an eigenvalue below -1e-10 max(1, largest eigenvalue).
    """
    m = np.asarray(m, dtype=float)
    if m.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} must be finite")
    scale = max(1.0, float(np.abs(m).max()))
    if np.abs(m - np.swapaxes(m, -1, -2)).max() > 1e-12 * scale:
        raise ValueError(f"{what} must be symmetric")
    if psd:
        eigs = np.linalg.eigvalsh(m)
        if eigs.min() < -1e-10 * max(1.0, float(eigs.max())):
            raise ValueError(f"{what} must be positive semidefinite")
    return m
