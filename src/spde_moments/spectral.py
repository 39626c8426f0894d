"""Spectral representation of the elliptic operator.

The operator is self-adjoint, positive definite, and diagonal in its
eigenbasis, so a state is just the array of its eigenmode coefficients,
and the model is its eigenvalues and the time horizon. Each route
applies the heat semigroup itself, as the componentwise factors
exp(-lambda_n t). The rules for valid initial data, a state vector and
a symmetric second moment of such states, live here too (state_vector,
moment_matrix), and every entry point applies them.

So does the one layout in which a symmetric (N, N) matrix is held by
its upper triangle: the p = N (N + 1) / 2 entries in np.triu_indices
order, row by row, each row from its diagonal entry on. Monte Carlo
holds its sums of outer products so, the noise map's symmetric action
has one row per entry, and the oracle's state is a second moment so
packed. triangle_positions gives the entries' flat positions in the
matrix, triangle_start where a row begins, and unpack_triangle the
symmetric matrices of a stack of packed triangles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpectralModel",
    "dirichlet_laplacian",
    "moment_matrix",
    "state_vector",
    "triangle_positions",
    "triangle_start",
    "unpack_triangle",
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


def triangle_positions(n: int) -> np.ndarray:
    """Flat positions of the packed upper triangle in an (n, n) array:
    entry t of the triangle is entry triangle_positions(n)[t] of the
    raveled matrix."""
    i, j = np.triu_indices(n)
    i *= n
    i += j
    return i


def triangle_start(r: int, n: int) -> int:
    """Where row r of the packed upper triangle of an (n, n) matrix
    starts: after the r n - r (r - 1) / 2 entries of rows 0 to r - 1.
    triangle_start(n, n) is the triangle's length p."""
    return r * (2 * n + 1 - r) // 2


def unpack_triangle(tri: np.ndarray, n: int) -> np.ndarray:
    """The stack (..., n, n) of symmetric matrices whose packed upper
    triangles are `tri`, shape (..., p), filled one triangle row at a
    time: each value is copied as it is to both of its places."""
    out = np.empty(tri.shape[:-1] + (n, n))
    for r in range(n):
        out[..., r, r:] = out[..., r:, r] = tri[..., triangle_start(r, n):triangle_start(r + 1, n)]
    return out
