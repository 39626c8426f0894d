"""Spectral representation of the elliptic operator.

The operator is self-adjoint, positive definite, and diagonal in its
eigenbasis, so a state is just the array of its eigenmode coefficients,
and the model is its eigenvalues and the time horizon. Each route
applies the heat semigroup itself, as the componentwise factors
exp(-lambda_n t); the smoothing integral of one mode is a closed form in
its eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralModel",
    "dirichlet_laplacian",
    "smoothing_integral",
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
