"""The affine noise operator G(x) = G1(x) + G2 and its quadratic forms.

This is the one definition of the noise map that the three routes
share. Monte Carlo applies it to states and increments; the matrix-ODE
oracle and the space-time solver integrate its quadratic action against
the covariance eigenvalues gamma_m. With G1_m = g1[:, :, m], the
multiplicative part of that action on a second moment M is

    sum_m gamma_m G1_m M G1_m^T,

a linear map of M. Its coefficients are the pair products

    P[i, a, k, b] = sum_m gamma_m g1[a, i, m] g1[b, k, m],

one (N^2, M) diag(gamma) (M, N^2) product, written here once
(pair_products), 8 N^4 bytes. Every second moment the map meets is
symmetric, so entry (i, k) of its upper triangle, i <= k, stands for
both M[i, k] and M[k, i]; with p = N (N + 1) / 2 the map is then the
(p, N^2) matrix S of symmetric_action, one row per entry of the
triangle in spectral's packed order,

    S[(i, k), (a, b)] = P[i, a, k, b] + [i != k] P[k, a, i, b],

so that Phi(M).ravel() = M[triu] @ S. It is built once per solve, a
block of rows at a time out of P, which is freed after it: about half
the size of P, and the one home of the multiplicative action. The oracle
reads its generator block off S, and multiplicative_form applies S to
a stack of second moments by one gather of their upper triangles and
one matmul. action_bytes counts what building it holds. The terms with
G2, the action at a mean with zero fluctuation, are mean_form; they
need no S.

Applied to states and increments, G1(x) w is one matmul too, written
once in g_apply_columns, the one kernel for it: with the P paths on the
last axis, the outer products x (x) w fill an (N, M, P) array by one
broadcast multiply, and g1 flattened to an (N, N*M) matrix contracts
them over the contiguous paths. States and increments held in rows go
in as their transposes. Its sums run in a different order than the
triple contraction sum_{j,m} g1[i, j, m] x_j w_m, so the two agree to
rounding (about 1e-15 relative), not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .levy import NoiseModel
from .spectral import SpectralModel, triangle_positions, triangle_start

__all__ = [
    "AffineNoiseMap",
    "action_bytes",
    "check_compatible",
    "g_apply_columns",
    "g1_v_to_hs_norm",
    "mean_form",
    "multiplicative_form",
    "pair_products",
    "scaled_random_coupling",
    "symmetric_action",
]

@dataclass(frozen=True)
class AffineNoiseMap:
    """Coefficients of the affine noise operator G(x) = G1(x) + G2.

    g1: (N, N, M) array; (G1(x) w)_i = sum_{j,m} g1[i, j, m] x_j w_m.
    g2: (N, M) matrix;   (G2 w)_i    = sum_m g2[i, m] w_m.
    """

    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self) -> None:
        g1 = np.asarray(self.g1, dtype=float)
        g2 = np.asarray(self.g2, dtype=float)
        if g1.ndim != 3 or g1.shape[0] != g1.shape[1]:
            raise ValueError(f"g1 must have shape (N, N, M), got {g1.shape}")
        if g2.shape != (g1.shape[0], g1.shape[2]):
            raise ValueError(f"g2 must have shape {(g1.shape[0], g1.shape[2])}, got {g2.shape}")
        # the extremes are finite exactly when every entry is (NaN propagates),
        # and finding them allocates no N x N x M mask beside g1
        if not all(a.size == 0 or np.isfinite(a.min()) and np.isfinite(a.max()) for a in (g1, g2)):
            raise ValueError("noise map entries must be finite")
        g1.setflags(write=False)
        g2.setflags(write=False)
        object.__setattr__(self, "g1", g1)
        object.__setattr__(self, "g2", g2)

    @property
    def state_dim(self) -> int:
        return self.g1.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.g1.shape[2]


def check_compatible(gmap: AffineNoiseMap, noise: NoiseModel, state_dim: int) -> None:
    """Raise ValueError unless gmap acts on state_dim modes and noise's modes."""
    if gmap.state_dim != state_dim:
        raise ValueError(f"noise map state dimension {gmap.state_dim} != state dimension {state_dim}")
    if gmap.noise_dim != noise.dim:
        raise ValueError(f"noise map noise dimension {gmap.noise_dim} != noise dimension {noise.dim}")


def g_apply_columns(
    gmap: AffineNoiseMap, state: np.ndarray, increment: np.ndarray,
    work: np.ndarray | None = None, parts: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Evaluate G(x) w for P paths stacked as columns, paths last.

    state is (N, P) and increment (M, P); column p of the (N, P) result
    is G(state[:, p]) increment[:, p]. The outer products x (x) w go by
    one broadcast multiply into `work`, an (N, M, P) array (allocated
    when not given), and meet g1 as one (N, N*M) by (N*M, P) matmul over
    the contiguous paths; G2 adds g2 @ increment. increment may be a
    transposed view, such as the .T of (P, M) draws.

    `parts`, column ranges [lo, hi) that cover the P columns in order,
    runs the two matmuls once a range: a range's columns then come out
    bit for bit as they would applied alone, where one matmul over all
    columns lets BLAS block, and so round, them otherwise. The multiply
    and the sum are elementwise and the same in either layout. With no
    parts the one range is all P columns.
    """
    n, modes = gmap.state_dim, gmap.noise_dim
    count = state.shape[-1]
    if state.shape != (n, count) or increment.shape != (modes, count):
        raise ValueError(
            f"state and increment must be ({n}, P) and ({modes}, P), "
            f"got {state.shape} and {increment.shape}"
        )
    if work is None:
        work = np.empty((n, modes, count))
    np.multiply(state[:, None, :], increment, out=work)
    g1 = gmap.g1.reshape(n, n * modes)
    flat = work.reshape(n * modes, count)
    out, additive = np.empty((n, count)), np.empty((n, count))
    for lo, hi in parts or [(0, count)]:
        np.matmul(g1, flat[:, lo:hi], out=out[:, lo:hi])
        np.matmul(gmap.g2, increment[:, lo:hi], out=additive[:, lo:hi])
    out += additive
    return out


def g1_v_to_hs_norm(gmap: AffineNoiseMap, model: SpectralModel, noise: NoiseModel) -> float:
    """Operator norm of G1 from the energy space into the noise-weighted
    Hilbert-Schmidt space.

    Equals the spectral norm of the (N*M, N) matrix with entries
    sqrt(gamma_m) g1[i, j, m] / sqrt(lambda_j); the Picard iteration for
    the second moment contracts when this value is below one.
    """
    check_compatible(gmap, noise, model.dim)
    weighted = (
        np.sqrt(noise.q_eigenvalues)[None, None, :]
        * gmap.g1
        / np.sqrt(model.eigenvalues)[None, :, None]
    )
    flat = np.transpose(weighted, (0, 2, 1)).reshape(-1, model.dim)
    s = np.linalg.svd(flat, compute_uv=False)
    return float(s[0]) if s.size else 0.0


def pair_products(gmap: AffineNoiseMap, noise: NoiseModel) -> np.ndarray:
    """The (N, N, N, N) coefficients of the multiplicative form,
    P[i, a, k, b] = sum_m gamma_m g1[a, i, m] g1[b, k, m].

    One (N^2, M) diag(gamma) (M, N^2) product over the pairs (i, a) and
    (k, b); the result is that product's (N^2, N^2) array, viewed with
    four axes.
    """
    check_compatible(gmap, noise, gmap.state_dim)
    n, modes = gmap.state_dim, gmap.noise_dim
    pairs = gmap.g1.transpose(1, 0, 2).reshape(n * n, modes)            # row (i, a): g1[a, i, :]
    return ((pairs * noise.q_eigenvalues) @ pairs.T).reshape(n, n, n, n)


def symmetric_action(gmap: AffineNoiseMap, noise: NoiseModel) -> np.ndarray:
    """The (p, N^2) matrix S of the multiplicative form on symmetric
    second moments, p = N (N + 1) / 2: sum_m gamma_m G1_m M G1_m^T, raveled,
    is M's packed upper triangle (spectral.triangle_positions) @ S for
    every symmetric M.

    Row (i, k), i <= k, is P[i, :, k, :] + [i != k] P[k, :, i, :] of the
    pair products P, since M[i, k] and M[k, i] are one entry. The rows of
    one i are contiguous, from spectral.triangle_start(i, N) on, and are
    written a block at a time: P[i, :, i:, :] plus its mirror
    P[i:, :, i, :], zeroed on the row k = i by a multiply, so no mirror
    of the whole of P is held beside it.
    """
    n = gmap.state_dim
    pairs = pair_products(gmap, noise)
    action = np.empty((n * (n + 1) // 2, n, n))
    for i in range(n):
        lo = triangle_start(i, n)   # rows of S before those of this i
        mirror = pairs[i:, :, i, :].copy()
        mirror[0] *= 0.0   # row k = i has no mirror; zero it with the signs of a product
        np.add(pairs[i, :, i:, :].transpose(1, 0, 2), mirror, out=action[lo:lo + n - i])
    return action.reshape(-1, n * n)


def action_bytes(n: int) -> int:
    """Bytes that symmetric_action holds at once for N = n modes: the
    pair products, 8 N^4, the action, 8 p N^2 with p = N (N + 1) / 2, two
    blocks' mirrors, at most 16 N^3, as one block's is made while the
    last one's is still held, and 4 KiB of interpreter objects. The
    action alone, about half the pair products, is what a caller keeps.
    pair_products' two (N^2, M) temporaries are freed before, and are
    fewer bytes while the noise has at most N (N + 3) / 4 modes."""
    return 8 * (n ** 4 + n * (n + 1) // 2 * n * n + 2 * n ** 3) + 4096


def multiplicative_form(action: np.ndarray, Mmat: np.ndarray) -> np.ndarray:
    """sum_m gamma_m G1_m M G1_m^T for second moments M of shape (..., N, N),
    by the matrix S of symmetric_action.

    The leading axes of M are batch axes. Only the upper triangle of
    each M is read, as eigh reads one triangle: the whole batch's
    triangles are one np.take and go through one matmul with S, so the
    form of any M is that of its upper triangle mirrored. Raises
    ValueError unless M's last two axes are (N, N) for the action's N.
    """
    n, Mmat = math.isqrt(action.shape[-1]), np.asarray(Mmat, dtype=float)
    if Mmat.shape[-2:] != (n, n):
        raise ValueError(f"noise map state dimension {n} != second-moment shape {Mmat.shape}")
    upper = np.take(Mmat.reshape(-1, n * n), triangle_positions(n), axis=1)
    return (upper @ action).reshape(Mmat.shape)


def mean_form(gmap: AffineNoiseMap, noise: NoiseModel, mvec: np.ndarray) -> np.ndarray:
    """The quadratic noise action at the mean m with zero fluctuation.

    Entry (a, b) is sum_m gamma_m [ (G1 m)_a g2_{bm} + g2_{am} (G1 m)_b
    + g2_{am} g2_{bm} ]: of the four terms that expanding G(m +
    fluctuation) twice gives, the three that involve G2, so no
    multiplicative action is needed. With multiplicative_form of the
    fluctuation second moment it makes the whole quadratic noise action.
    Accepts a stack m of shape (..., N).
    """
    mvec = np.atleast_1d(np.asarray(mvec, dtype=float))
    check_compatible(gmap, noise, mvec.shape[-1])
    n, modes = gmap.state_dim, gmap.noise_dim
    g1_flat = gmap.g1.transpose(1, 0, 2).reshape(n, n * modes)
    g1_mean = (mvec @ g1_flat).reshape(mvec.shape[:-1] + (n, modes))   # (G1 m)[a, m]
    g2_weighted = gmap.g2 * noise.q_eigenvalues
    t_cross = g1_mean @ g2_weighted.T
    return t_cross + np.swapaxes(t_cross, -1, -2) + gmap.g2 @ g2_weighted.T


def scaled_random_coupling(
    model: SpectralModel,
    noise: NoiseModel,
    target_norm: float,
    seed: int,
) -> np.ndarray:
    """Dense non-diagonal multiplicative coefficients with a prescribed norm.

    Draws a standard normal (N, N, M) array from the given seed and
    rescales it so the energy-to-Hilbert-Schmidt operator norm equals
    target_norm. Deterministic in the seed.
    """
    if target_norm < 0.0:
        raise ValueError("target norm must be nonnegative")
    rng = np.random.default_rng(seed)
    g1 = rng.standard_normal((model.dim, model.dim, noise.dim))
    probe = AffineNoiseMap(g1=g1, g2=np.zeros((model.dim, noise.dim)))
    current = g1_v_to_hs_norm(probe, model, noise)
    if current == 0.0:
        raise ValueError("drawn coupling has zero norm; cannot rescale")
    return g1 * (target_norm / current)
