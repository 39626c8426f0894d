"""Dense reference forms of the structured space-time objects.

The package holds the pairing by its two diagonals, a load by its
per-interval parts and a moment field by its three block diagonals.
These helpers build the dense arrays those structures stand for, by the
plain loops and quadratures the structured code replaced, so tests can
compare the two. Each needs O(K^2) or O(K^3) memory; keep K small.
"""

import numpy as np


def tdelta_assemble(grid):
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


def dense_load(grid, load):
    """The dense (K, N, K, N) load a MomentLoad stands for, by exact quadrature."""
    dense = np.einsum("kab,kij->aibj", tdelta_assemble(grid), load.spatial)
    dense[0, :, 0, :] += load.initial
    return dense


def dense_pairing(system, mode=0):
    """Mode's dense K x K pairing B_n from its two diagonals."""
    K = system.grid.steps
    return np.diag(np.full(K, system.a[mode])) + np.diag(np.full(K - 1, system.c[mode]), 1)


def apply_tensor_operator(system, coeffs):
    """Forward application of the tensorized pairing to dense trial coefficients.

    Maps U to the dense load B_n^T U B_m it solves, the inverse of the
    causal sweep; used to verify that solves reproduce their loads. Along
    either time index the bidiagonal B acts as x_l -> a x_l + c x_{l-1},
    so the map is two shifted, broadcast products.
    """
    a, c = system.a, system.c
    left = a[:, None, None] * coeffs
    left[1:] += c[:, None, None] * coeffs[:-1]
    out = left * a
    out[:, :, 1:] += left[:, :, :-1] * c
    return out


def dense_coeffs(field):
    """Dense trial coefficients U[k, n, l, m] of a SpaceTimeMoment, filled
    one time offset at a time from its block diagonals."""
    K, n = field.diagonal.shape[:2]
    dense = np.zeros((K, n, K, n))
    idx = np.arange(K)
    dense[idx, :, idx, :] = field.diagonal
    for d in range(1, K):  # time offset l - k
        dense[idx[:-d], :, idx[d:], :] = field.upper[:K - d] * field.ratio ** (d - 1)
        dense[idx[d:], :, idx[:-d], :] = field.ratio[:, None] ** (d - 1) * field.lower[:K - d]
    return dense
