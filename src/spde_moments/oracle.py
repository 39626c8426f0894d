"""Independent reference computations for the mean and second moment.

The mean is the semigroup applied to the initial mean. The equal-time
second moment matrix solves the matrix differential equation

    M'(t) = -(Lam M + M Lam) + Phi(M(t), m(t)),       M(0) = M0,

where Lam = diag(lambda) and Phi collects the four quadratic noise
terms of the affine operator against the covariance eigenvalues. With
the mean m' = -Lam m, the rate is affine in (M, m), so the state
z = (packed upper triangle of M, m, 1) solves a linear autonomous equation
z' = A z. Its exact one-step propagator is expm(dt A), Van Loan's
augmented-matrix construction (IEEE Trans. Autom. Control 23, 1978),
computed in numpy by scaling and squaring with the [13/13] Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005). The grid
values carry no time-stepping error, and stiff modes need no step-size
restriction.

What it holds. The generator's second-moment block is read off the
noise map's symmetric action (noise_map.symmetric_action), the (p, N^2)
matrix, p = N (N + 1) / 2, that Picard applies too: its columns at the
upper triangle, transposed. The triangle is packed, and the grid
values unpacked, by spectral's triangle helpers, the one layout that
the action's rows follow too. The action, and what building it holds,
are freed before the exponential, which accumulates its
Pade sums in place and holds at most eight matrices of the propagator's
size (p + N + 1)^2 at once. propagator_bytes counts the larger of the
two phases, and validate refuses a dimension whose count would not fit
in memory.

Two-time values follow from the equal-time ones because the driver is a
martingale: conditionally on time s, the stochastic convolution
increment up to t > s has mean zero, so the second slot is propagated
by the semigroup alone.

This route shares no time-propagation machinery with the space-time
variational solver and serves as its brute-force cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .levy import NoiseModel
from .noise_map import AffineNoiseMap, action_bytes, check_compatible, mean_form, symmetric_action
from .spectral import (SpectralModel, moment_matrix, state_vector, triangle_positions,
                       unpack_triangle)

__all__ = [
    "MomentField",
    "mean_exact",
    "lyapunov_solve",
    "propagator_bytes",
    "two_time_extend",
]


@dataclass(frozen=True)
class MomentField:
    """Equal-time second moment on a uniform time grid.

    The mean is not kept: it is mean_exact's closed form, and
    two_time_extend reads only the grid and the second moment.
    """

    grid: np.ndarray                # (K+1,) nodes
    diag_second_moment: np.ndarray  # (K+1, N, N), M(t) = E[X(t) (x) X(t)]


def mean_exact(model: SpectralModel, x0_mean: np.ndarray, steps: int) -> np.ndarray:
    """Mean of the mild solution: the semigroup applied to the initial mean.

    The stochastic integral has zero mean, so the noise operator does
    not enter. Returns a (steps+1, N) array on the uniform grid.
    """
    if steps < 1:
        raise ValueError(f"step count must be positive, got {steps}")
    x0_mean = state_vector(x0_mean, model.dim, "initial mean")
    t = np.linspace(0.0, model.horizon, steps + 1)
    return np.exp(-np.outer(t, model.eigenvalues)) * x0_mean


def _generator(model: SpectralModel, noise: NoiseModel, gmap: AffineNoiseMap) -> np.ndarray:
    """Matrix A of z' = A z for z = (M's packed upper triangle, m, 1):
    the symmetric second moment M held as spectral lays out a triangle
    (triangle_positions), the mean m and a constant.

    The rate is affine in z. Its multiplicative part is the noise map's
    symmetric action S: entry (i, k) of z stands for both M[i, k] and
    M[k, i], and its rate on entry (a, b) of M is S[(i, k), (a, b)], so
    the block is S's columns at the upper triangle, transposed. The
    mean and constant columns come from one mean_form call, the
    rate at zero fluctuation, against each unit mean and the zero mean:
    the rate at a unit mean less the rate at zero, and the rate at zero.
    The diagonal carries the decay, -(lambda_i + lambda_k) for M[i, k]
    and -lambda_j for m_j.
    """
    n, lam = model.dim, model.eigenvalues
    upper = triangle_positions(n)
    p = upper.size
    gen = np.zeros((p + n + 1, p + n + 1))
    gen[:p, :p] = symmetric_action(gmap, noise)[:, upper].T
    rates = mean_form(gmap, noise, np.eye(n + 1, n)).reshape(n + 1, n * n)[:, upper]
    gen[:p, p:] = rates.T
    gen[:p, p:-1] -= rates[-1:].T
    gen[np.diag_indices(p + n)] -= np.concatenate([np.take(lam[:, None] + lam, upper), lam])
    return gen


# Pade [13/13] coefficients b_0..b_13 (Higham 2005), divided by b_0 so that
# the denominator of a zero matrix is exactly the identity
_PADE13 = tuple(b / 64764752532480000.0 for b in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0))
# the largest 1-norm for which the [13/13] approximant's backward error
# stays below the unit roundoff
_THETA13 = 5.371920351148152
# matrices of the propagator's size that _expm holds at once at most: the
# argument, its scaled copy, a^2, a^4, a^6 and three work matrices
_LIVE_MATRICES = 8


def _add_terms(out: np.ndarray, scratch: np.ndarray, terms) -> None:
    """out += c_1 x_1 + c_2 x_2 + ..., left to right, each product formed
    in scratch: the bits of the expression out + c_1 * x_1 + c_2 * x_2."""
    for coeff, x in terms:
        np.multiply(x, coeff, out=scratch)
        out += scratch


def _add_identity(out: np.ndarray, coeff: float) -> None:
    """out += coeff * I with the bits of adding the full matrix: its +0.0
    entries off the diagonal turn every -0.0 there into +0.0."""
    out += 0.0
    diagonal = out.reshape(-1)[::len(out) + 1]
    diagonal += coeff


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix by scaling and squaring.

    Scales a by 2^-s so that its 1-norm is at most theta_13, evaluates
    the [13/13] Pade approximant r = (V - U)^-1 (V + U) with

        U = a (a6 (b13 a6 + b11 a4 + b9 a2) + b7 a6 + b5 a4 + b3 a2 + b1 I),
        V = a6 (b12 a6 + b10 a4 + b8 a2) + b6 a6 + b4 a4 + b2 a2 + b0 I,

    and squares r s times. Every sum is accumulated in place, left to
    right, so each entry is rounded as that expression rounds it, in
    three work matrices; a2, a4 and a6 are freed before the solve. At
    most _LIVE_MATRICES matrices of a's size are held at once.
    """
    norm = np.abs(a).sum(axis=0).max()
    s = int(np.ceil(np.log2(norm / _THETA13))) if norm > _THETA13 else 0
    if s:
        a = a * 2.0 ** -s
    b = _PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    inner, scratch = np.empty_like(a), np.empty_like(a)
    np.multiply(a6, b[12], out=inner)
    _add_terms(inner, scratch, ((b[10], a4), (b[8], a2)))
    v = a6 @ inner
    _add_terms(v, scratch, ((b[6], a6), (b[4], a4), (b[2], a2)))
    _add_identity(v, b[0])
    np.multiply(a6, b[13], out=inner)
    _add_terms(inner, scratch, ((b[11], a4), (b[9], a2)))
    np.matmul(a6, inner, out=scratch)
    _add_terms(scratch, inner, ((b[7], a6), (b[5], a4), (b[3], a2)))
    _add_identity(scratch, b[1])
    del a2, a4, a6
    u = np.matmul(a, scratch, out=inner)
    denominator = np.subtract(v, u, out=scratch)
    v += u
    del a, u, inner
    r = np.linalg.solve(denominator, v)
    for _ in range(s):
        r = r @ r
    return r


def propagator_bytes(n: int, modes: int) -> int:
    """Bytes that lyapunov_solve holds at once for N = n modes and M =
    `modes` noise modes, beside its grid values: the larger of its two
    phases, since the noise map's action is freed before the exponential.
    The generator phase holds at most what building the action holds
    (noise_map.action_bytes), the generator itself and its p x p gather
    off the action, p = N (N + 1) / 2; the exponential holds
    _LIVE_MATRICES matrices of the propagator's size, 8 (p + N + 1)^2
    bytes each, and 4 KiB of interpreter objects."""
    p = n * (n + 1) // 2
    d = p + n + 1
    return max(action_bytes(n, modes) + 8 * (d * d + p * p), _LIVE_MATRICES * 8 * d * d + 4096)


def lyapunov_solve(
    model: SpectralModel,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    m0: np.ndarray,
    M0: np.ndarray,
    steps: int,
) -> MomentField:
    """Solve the second-moment matrix equation exactly on the grid.

    Forms the one-step propagator expm(dt A) of the augmented linear
    equation once and applies it `steps` times. Returns the equal-time
    second moment on the grid; the initial law enters through the mean
    m0 and second moment M0, checked by spectral.state_vector and
    spectral.moment_matrix before any work, M0 - m0 m0^T with psd: it is
    the covariance of the initial law, which has no negative eigenvalue.
    """
    if steps < 1:
        raise ValueError(f"step count must be positive, got {steps}")
    check_compatible(gmap, noise, model.dim)
    n = model.dim
    m0 = state_vector(m0, n, "initial mean")
    M0 = moment_matrix(M0, (n, n), "initial second moment")
    moment_matrix(M0 - np.outer(m0, m0), (n, n), "initial covariance M0 - m0 m0^T", psd=True)

    step = _expm(model.horizon / steps * _generator(model, noise, gmap))
    z = np.empty((steps + 1, len(step)))
    z[0] = np.concatenate([np.take(M0, triangle_positions(n)), m0, [1.0]])
    for k in range(steps):
        z[k + 1] = step @ z[k]
    diag = unpack_triangle(z[:, :-n - 1], n)   # z less its mean and constant

    grid = np.linspace(0.0, model.horizon, steps + 1)
    return MomentField(grid=grid, diag_second_moment=diag)


def two_time_extend(model: SpectralModel, field: MomentField) -> np.ndarray:
    """The two-time second moment on the field's grid, shape (K+1, N, K+1, N).

    For t_l >= t_k the second slot is propagated by the semigroup,

        M2[k, n, l, m] = exp(-lambda_m (t_l - t_k)) M(t_k)[n, m],

    and the block for t_l < t_k follows by the symmetry of the field.
    Only the field's grid and equal-time values are read, so a field
    read at a stride extends on the coarser grid.
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
    k, l = np.tril_indices(kk, -1)  # every block below the time diagonal
    two[k, :, l, :] = two[l, :, k, :].swapaxes(-1, -2)
    return two
