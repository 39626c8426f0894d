"""The affine noise operator G(x) = G1(x) + G2 and its quadratic forms.

This is the one definition of the noise map that the three routes
share. Monte Carlo applies it to states and increments; the matrix-ODE
oracle and the space-time solver integrate its quadratic action against
the covariance eigenvalues gamma_m. With G1_m = g1[:, :, m], the
multiplicative part of that action on a second moment M is

    sum_m gamma_m G1_m M G1_m^T,

a linear map of M. Every second moment the map meets is symmetric, so
entry (i, k) of its upper triangle, i <= k, stands for both M[i, k] and
M[k, i]; with p = N (N + 1) / 2 the map is then the (p, N^2) matrix S
of symmetric_action, one row per entry of the triangle in spectral's
packed order,

    S[(i, k), (a, b)] = sum_m gamma_m (g1[a, i, m] g1[b, k, m]
                                       + [i != k] g1[a, k, m] g1[b, i, m]),

so that Phi(M).ravel() = M[triu] @ S. It is built once per solve,
straight from g1, a block of rows at a time out of small products of
g1's slices, so no (N^2, N^2) array is ever formed. S, 8 p N^2
bytes, about 4 N^4, is the one home of the multiplicative action. The
oracle reads its generator block off S, and multiplicative_form applies
S to a stack of second moments by one gather of their upper triangles
and one matmul. action_bytes counts what building it holds. The terms
with G2, the action at a mean with zero fluctuation, are mean_form;
they need no S.

Applied to states and increments, G1(x) w is one matmul too, written
once in g_apply_bound, the one kernel for it: with the P paths on the
last axis, the outer products x (x) w fill an (N, M, P) array by one
broadcast multiply, and g1 flattened to an (N, N*M) matrix contracts
them over the contiguous paths. The kernel is bound to the arrays that
hold the states and increments, so that Monte Carlo, which updates them
in place on every scheme step, makes its checks, views and buffer
once, not once a step. States and increments held in rows go in as
their transposes. Its sums run in a different order than the triple
contraction sum_{j,m} g1[i, j, m] x_j w_m, so the two agree to
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
    "g_apply_bound",
    "g1_v_to_hs_norm",
    "mean_form",
    "multiplicative_form",
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


def g_apply_bound(gmap: AffineNoiseMap, state: np.ndarray, increment: np.ndarray):
    """G(x) w for P paths stacked as columns, paths last, bound to the
    arrays that hold them: a function of no arguments that returns it,
    as a new (N, P) array, for what `state` and `increment` hold at the
    call.

    state is (N, P) and increment (M, P); column p of the result is
    G(state[:, p]) increment[:, p]. The outer products x (x) w go by one
    broadcast multiply into an (N, M, P) buffer and meet g1 as one
    (N, N*M) by (N*M, P) matmul over the contiguous paths; G2 adds
    g2 @ increment. The checks, the views and the (N, M, P) buffer are
    made here, once: at N = M = 1 and 625 paths they are about 1.8 us of
    the 8 us that making them on every call costs on a 2-CPU x86 host.
    """
    n, modes = gmap.state_dim, gmap.noise_dim
    count = state.shape[-1]
    if state.shape != (n, count) or increment.shape != (modes, count):
        raise ValueError(
            f"state and increment must be ({n}, P) and ({modes}, P), "
            f"got {state.shape} and {increment.shape}"
        )
    work = np.empty((n, modes, count))
    outer, g1 = state[:, None, :], gmap.g1.reshape(n, n * modes)
    flat = work.reshape(n * modes, count)

    def apply() -> np.ndarray:
        np.multiply(outer, increment, out=work)
        out = g1 @ flat
        out += gmap.g2 @ increment
        return out

    return apply


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


def symmetric_action(gmap: AffineNoiseMap, noise: NoiseModel) -> np.ndarray:
    """The (p, N^2) matrix S of the multiplicative form on symmetric
    second moments, p = N (N + 1) / 2: sum_m gamma_m G1_m M G1_m^T, raveled,
    is M's packed upper triangle (spectral.triangle_positions) @ S for
    every symmetric M.

    Row (i, k), i <= k, holds sum_m gamma_m g1[a, i, m] g1[b, k, m] at
    column (a, b), plus for i < k its mirror sum_m gamma_m g1[a, k, m]
    g1[b, i, m], since M[i, k] and M[k, i] are one entry. The rows of one
    i are contiguous, from spectral.triangle_start(i, N) on, and are
    written a block at a time from (N, M) @ (M, N) products of g1's
    slices, the gamma-weighted slice on the left: the direct terms, one
    product for each k >= i, go straight into the block, and the mirrors,
    as many products, are zeroed on the row k = i by a multiply and
    added to it.
    """
    check_compatible(gmap, noise, gmap.state_dim)
    n = gmap.state_dim
    pairs = gmap.g1.transpose(1, 0, 2).copy()            # pairs[i, a] = g1[a, i, :]
    weighted = pairs * noise.q_eigenvalues
    action = np.empty((n * (n + 1) // 2, n, n))
    for i in range(n):
        block = action[triangle_start(i, n):triangle_start(i + 1, n)]   # rows (i, k), k >= i
        np.matmul(weighted[i], pairs[i:].transpose(0, 2, 1), out=block)   # [k, a, b]
        mirror = weighted[i:] @ pairs[i].T                                 # [k, a, b]
        mirror[0] *= 0.0   # row k = i has no mirror; zero it with the signs of a product
        block += mirror
        del mirror   # one block's mirrors at a time
    return action.reshape(-1, n * n)


def action_bytes(n: int, modes: int) -> int:
    """Bytes that symmetric_action holds at once for N = n modes and M =
    `modes` noise modes: the action, 8 p N^2 with p = N (N + 1) / 2, g1's
    slices in pair order and their gamma-weighted copy, 16 N^2 M, one
    block's mirrors, at most 8 N^3, 64 KiB of numpy's buffered iteration
    over the gamma that the weighting broadcasts, 8192 values, and 4 KiB
    of interpreter objects. The action alone is what a caller keeps."""
    return 8 * (n * (n + 1) // 2 * n * n + 2 * n * n * modes + n ** 3 + 8192) + 4096


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
