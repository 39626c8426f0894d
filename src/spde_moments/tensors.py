"""Cross norms of order-2 tensors over finite-dimensional Hilbert spaces.

With orthonormal bases in both factors an order-2 tensor is exactly a
matrix of coefficients, and the projective, Hilbert, and injective cross
norms are the nuclear, Frobenius, and spectral matrix norms. The
singular value decomposition is the single computational primitive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor2",
    "projective_norm",
    "injective_norm",
    "hilbert_norm",
    "dual_pair",
]


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
