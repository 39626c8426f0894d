"""Space-time Petrov-Galerkin solver for the mean, second-moment, and
covariance problems.

Discretization. Trial functions are indicators of the K uniform time
intervals crossed with the spectral modes; test functions are the
continuous piecewise-linear hats at the nodes t_0 .. t_{K-1}, all of
which vanish at the final time. The parabolic pairing of one trial
indicator against one test hat gives, per spatial mode n, the K x K
matrix

    B_n[k, l] = [hat_l(t_{k-1}) - hat_l(t_k)] + lambda_n int_{I_k} hat_l,

an invertible upper bidiagonal matrix with diagonal a_n = 1 + lambda_n dt/2
and superdiagonal c_n = -1 + lambda_n dt/2. The pairing couples no
distinct spatial modes, and each mode's mean solve is the Crank-Nicolson
recursion with factor r_n = -c_n / a_n, |r_n| < 1. The system holds each
B_n by a_n and c_n alone. Beyond lambda_n dt = 2 a mode is stiff: r_n
turns negative and the discrete inf-sup value falls with lambda_n dt.

Inf-sup. The discrete inf-sup value is the smallest singular value of
the pairing normalized by the trial and test Grams. Its square is the
smallest eigenvalue of a symmetric-definite tridiagonal pencil, found by
multisection on inertia counts, O(K) per count; no K x K matrix is
formed anywhere in this module.

Moment problems. The second moment (and the covariance) in the trial
tensor basis solves a fixed-point equation: the tensorized parabolic
operator applied to the unknown equals a fixed load plus a coupling
term that reads only the diagonal-in-time blocks of the unknown through
the quadratic noise action. The coupling is contractive when the
energy-to-Hilbert-Schmidt norm of the multiplicative part is below one,
and the problems are solved by successive substitution starting from
the zero-coupling solve. The two problems differ only in their loads:
the covariance load is the second-moment load, with the initial
covariance in place of the initial second moment, plus the
multiplicative noise action on the mean outer product.

Because test hats overlap single intervals where the trial functions
are constant, reading diagonal-in-time blocks is exact for this pair,
not an approximation.

Structure. A load is one symmetric spatial matrix per interval plus
the symmetric initial term (MomentLoad), so its dense form is
block-tridiagonal in time. The field that solves it is semi-separable:
every block beyond the first off-diagonals is a power of r times a
first off-diagonal block. It is symmetric too, U[l, :, k, :] =
U[k, :, l, :]^T, so its lower blocks are its upper blocks transposed.
The field is therefore stored by two block diagonals, the diagonal and
the upper one (SpaceTimeMoment), and computed by one forward sweep over
the intervals; callers read the two-time field one time row at a time,
and this module never forms the dense field. Its max-norm is the max
over the two block diagonals (_max_abs), which both the Picard update
and the covariance identity check (covariance_identity_error) read.
picard_solve_second_moment refuses a load that is not finite and
symmetric.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .levy import NoiseModel
from .noise_map import (
    AffineNoiseMap,
    action_bytes,
    check_compatible,
    g1_v_to_hs_norm,
    mean_form,
    multiplicative_form,
    symmetric_action,
)
from .spectral import SpectralModel, moment_matrix, state_vector

__all__ = [
    "TimeGrid",
    "PerModeSystem",
    "MomentLoad",
    "SpaceTimeMoment",
    "PicardNonConvergence",
    "assemble_per_mode",
    "solve_mean",
    "rhs_second_moment",
    "rhs_covariance",
    "picard_solve_second_moment",
    "solve_bytes",
    "covariance_identity_error",
    "per_mode_singular_range",
    "discrete_inf_sup",
]

_CANDIDATES = 63     # points per bracket in one multisection round of the inf-sup
_MAX_ROUNDS = 64     # far above the ~10 rounds any bracket needs to close
_PIVOT_BLOCK = 64    # pivots held at once by the inertia count


class PicardNonConvergence(RuntimeError):
    """Fixed-point iteration exhausted its budget; carries the update trace."""

    def __init__(self, trace: list[float], max_iter: int):
        super().__init__(
            f"Picard iteration did not converge within {max_iter} iterations "
            f"(last update {trace[-1]:.3e})"
        )
        self.trace = list(trace)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid with K >= 2 intervals on [0, horizon]."""

    steps: int
    horizon: float

    def __post_init__(self) -> None:
        if self.steps < 2:
            raise ValueError(f"at least two time steps are required, got {self.steps}")
        if not (np.isfinite(self.horizon) and self.horizon > 0.0):
            raise ValueError("horizon must be finite and positive")

    @property
    def dt(self) -> float:
        return self.horizon / self.steps

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.steps + 1)


@dataclass(frozen=True)
class PerModeSystem:
    """The space-time pairing of every spatial mode, by its two diagonals.

    B_n (rows: trial intervals, columns: test hats) is upper bidiagonal
    with diagonal a[n] = 1 + lambda_n dt/2 and superdiagonal
    c[n] = -1 + lambda_n dt/2, so the grid and the eigenvalues determine
    it, and a and c are derived from them on access. No K x K matrix is
    held.
    """

    grid: TimeGrid
    eigenvalues: np.ndarray       # (N,)

    @property
    def n_modes(self) -> int:
        return int(self.eigenvalues.size)

    @property
    def a(self) -> np.ndarray:
        """Diagonal a_n of every mode's pairing B_n, shape (N,)."""
        return 1.0 + self.eigenvalues * self.grid.dt / 2.0

    @property
    def c(self) -> np.ndarray:
        """Superdiagonal c_n of every mode's pairing B_n, shape (N,)."""
        return -1.0 + self.eigenvalues * self.grid.dt / 2.0

    @property
    def lambda_dt(self) -> np.ndarray:
        """lambda_n dt of every mode, shape (N,); above 2 the mode is stiff."""
        return self.eigenvalues * self.grid.dt

    @property
    def ratio(self) -> np.ndarray:
        """Crank-Nicolson factor r_n = -c_n / a_n of every mode, shape (N,).

        |r_n| < 1, and r_n < 0 exactly when lambda_n dt > 2.
        """
        return -self.c / self.a


def assemble_per_mode(model: SpectralModel, grid: TimeGrid) -> PerModeSystem:
    """The per-mode pairing of a model on a grid, in O(N) memory.

    Raises ValueError when the two horizons differ. Every pairing is
    invertible: lambda_n > 0 and dt > 0 give a_n > 1. Warns
    (RuntimeWarning) when a mode is stiff, lambda_n dt > 2: its ratio
    r_n is negative, so its two-time field alternates in sign from one
    interval to the next, and its discrete inf-sup value falls with
    lambda_n dt.
    """
    if not np.isclose(grid.horizon, model.horizon):
        raise ValueError(
            f"grid horizon {grid.horizon} differs from model horizon {model.horizon}"
        )
    system = PerModeSystem(grid=grid, eigenvalues=model.eigenvalues)
    stiff = int(np.count_nonzero(system.lambda_dt > 2.0))
    if stiff:
        warnings.warn(
            f"{stiff} of {system.n_modes} modes have lambda*dt > 2 (at most "
            f"{system.lambda_dt.max():.4g}): their Crank-Nicolson ratio is negative, the "
            "two-time field alternates in sign and the discrete inf-sup value degrades; "
            "more time steps resolve them",
            RuntimeWarning,
            stacklevel=2,
        )
    return system


def solve_mean(system: PerModeSystem, x0_mean: np.ndarray) -> np.ndarray:
    """Trial coefficients of the mean problem, one decoupled solve per mode.

    The load pairs the initial mean against the test hats at time zero,
    which places it in the first test row only, so the transposed
    bidiagonal solve is the recursion x_k = x0 / a * r**k. Returns (K, N).
    Refuses a mean of the wrong length or not finite (spectral.state_vector).
    """
    x0_mean = state_vector(x0_mean, system.n_modes, "initial mean")
    return x0_mean / system.a * system.ratio ** np.arange(system.grid.steps)[:, None]


@dataclass(frozen=True)
class MomentLoad:
    """Test-side load of a moment problem, by its per-interval parts.

    On interval I_k only the hats at t_k and t_{k+1} are nonzero, and
    the exact integrals of their products are dt/3 for a hat with itself
    and dt/6 for the two together. So the dense (K, N, K, N) load this
    stands for is block-tridiagonal in time: block (k, k) is
    dt/3 (spatial[k] + spatial[k-1]), with spatial[-1] = 0 and `initial`
    added in block (0, 0) (the only hat that is nonzero at t = 0), and
    blocks (k, k+1) and (k+1, k) are dt/6 spatial[k].
    """

    initial: np.ndarray   # (N, N)
    spatial: np.ndarray   # (K, N, N), the noise intensity on each interval


def rhs_second_moment(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    mean_coeffs: np.ndarray,
    m2_initial: np.ndarray,
) -> MomentLoad:
    """Test-side load of the second-moment problem.

    Carries the initial second moment at time zero plus the three noise
    terms that involve the additive part, evaluated with the piecewise
    constant mean on each interval (mean_form). The purely
    multiplicative term is not part of the load; it enters through the
    fixed-point coupling.
    """
    check_compatible(gmap, noise, system.n_modes)
    K, n = system.grid.steps, system.n_modes
    mean_coeffs = np.asarray(mean_coeffs, dtype=float)
    if mean_coeffs.shape != (K, n):
        raise ValueError(f"mean coefficients must be ({K}, {n}), got {mean_coeffs.shape}")
    return MomentLoad(np.asarray(m2_initial, dtype=float), mean_form(gmap, noise, mean_coeffs))


def rhs_covariance(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    mean_coeffs: np.ndarray,
    cov_initial: np.ndarray,
) -> MomentLoad:
    """Test-side load of the covariance problem.

    The second-moment load with the initial covariance at time zero,
    plus the multiplicative noise action on the mean outer product: the
    covariance problem has the same operator, and the noise acting on
    the mean moves into its load. picard_solve_second_moment solves it
    as it solves the second-moment problem. The noise map's symmetric
    action is built once for the call.
    """
    load = rhs_second_moment(system, noise, gmap, mean_coeffs, cov_initial)
    mean = np.asarray(mean_coeffs, dtype=float)
    quadratic = mean[:, :, None] * mean[:, None, :]
    product = multiplicative_form(symmetric_action(gmap, noise), quadratic)
    return MomentLoad(load.initial, load.spatial + product)


@dataclass(frozen=True)
class SpaceTimeMoment:
    """Symmetric two-time moment field by its diagonal and upper block
    diagonals, with the fixed-point trace.

    The trial coefficients U[k, n, l, m] are semi-separable: for
    l >= k + 2, U[k, :, l, :] = upper[k] * ratio**(l - k - 1) along the
    second mode index, where ratio[n] = r_n is the Crank-Nicolson
    factor. The field is symmetric, U[l, :, k, :] = U[k, :, l, :]^T, so
    the lower blocks are not stored: U[k+1, :, k, :] = upper[k]^T. This
    expansion lives in `row` alone: callers read the field one time row
    at a time, or on the block diagonals.
    """

    grid: TimeGrid
    diagonal: np.ndarray      # (K, N, N), U[k, :, k, :]
    upper: np.ndarray         # (K-1, N, N), U[k, :, k+1, :]
    ratio: np.ndarray         # (N,)
    trace: np.ndarray         # update max-norms per iteration

    @property
    def iterations(self) -> int:
        """Number of Picard iterations, one per entry of the trace."""
        return len(self.trace)

    def time_diagonal(self) -> np.ndarray:
        """Diagonal-in-time blocks D_k = U[k, :, k, :], shape (K, N, N)."""
        return self.diagonal

    @cached_property
    def _powers(self) -> np.ndarray:
        """ratio**d for d = 0 .. K-2, shape (K-1, N), each power taken with
        the integer exponent d, so every row carries the same bits."""
        return np.array([self.ratio ** d for d in range(len(self.upper))])

    def row(self, k: int) -> np.ndarray:
        """Time row U[k, :, :, :], shape (N, K, N), in O(K N^2) memory."""
        K, n = self.diagonal.shape[:2]
        if not 0 <= k < K:
            raise IndexError(f"time row {k} out of range for {K} intervals")
        row = np.empty((n, K, n))
        row[:, k] = self.diagonal[k]
        if k + 1 < K:
            row[:, k + 1:] = self.upper[k][:, None, :] * self._powers[:K - 1 - k]
        lower = self.upper[:k].swapaxes(-1, -2)
        row[:, :k] = (self._powers[:k][::-1, :, None] * lower).transpose(1, 0, 2)
        return row


def _causal_solve(system: PerModeSystem, load: MomentLoad) -> tuple[np.ndarray, np.ndarray]:
    """Solve the tensorized pairing against a symmetric load by one
    forward sweep.

    Returns the block diagonals D_k = U[k, :, k, :] and
    E_k = U[k, :, k+1, :] of the field U with B_n^T U B_m = load. The
    dense load is zero beyond its first block off-diagonals, so there
    U[k, :, l, :] = U[k, :, l-1, :] r and U[l, :, k, :] = r U[l-1, :, k, :]
    for l >= k + 2. What is left of the load's blocks (k, k), (k, k+1) and
    (k+1, k), with ac[n, m] = a_n c_m and so on, is

        aa D_k = on_k - ac F_{k-1} - ca E_{k-1} - cc D_{k-1}
        aa E_k = off_k - ac D_k
        aa F_k = off_k - ca D_k

    where on_k = dt/3 (S_k + S_{k-1}) plus the initial term at k = 0, and
    off_k = dt/6 S_k, for the load's spatial matrices S_k. Substituting
    the last two into the first (ac ca = aa cc) leaves the recursion

        D_k = (on_k - (ac + ca) / aa off_{k-1}) / aa + r_n r_m D_{k-1}.

    For a symmetric load D_k is symmetric, and F_k = E_k^T (ca is ac
    transposed), so F is not formed.
    """
    a, c = system.a, system.c
    aa, ac, ca = np.outer(a, a), np.outer(a, c), np.outer(c, a)
    dt, spatial = system.grid.dt, load.spatial
    off = dt / 6.0 * spatial[:-1]
    diagonal = dt / 3.0 * spatial
    diagonal[1:] += dt / 3.0 * spatial[:-1] - (ac + ca) / aa * off
    diagonal[0] += load.initial
    diagonal /= aa
    rr = np.outer(c, c) / aa
    for k in range(1, len(diagonal)):
        diagonal[k] += rr * diagonal[k - 1]
    return diagonal, (off - ac * diagonal[:-1]) / aa


def _max_abs(blocks) -> float:
    """Max-norm of a symmetric two-time field from its diagonal and upper
    block diagonals.

    The lower blocks are the upper ones transposed, and the field is
    semi-separable with ratio r: beyond the first block off-diagonals
    every block is a power of r times an off-diagonal block. Because
    |r| < 1, the max over the two block diagonals is the max over the
    whole field.
    """
    return max(float(np.max(np.abs(block))) for block in blocks)


def covariance_identity_error(
    m2: SpaceTimeMoment, cov: SpaceTimeMoment, mean: np.ndarray
) -> float:
    """Max-norm of cov - (m2 - mean (x) mean) over the two-time field.

    The mean x_k = x0 / a * r**k has the same ratio r as both fields, so
    the difference is semi-separable with that ratio too, and symmetric
    (_max_abs).
    """
    return _max_abs(c - (m - outer) for c, m, outer in (
        (cov.diagonal, m2.diagonal, mean[:, :, None] * mean[:, None, :]),
        (cov.upper, m2.upper, mean[:-1, :, None] * mean[1:, None, :]),
    ))


def _contraction_report(trace: list[float], bound: float, tol_floor: float) -> None:
    meaningful = [d for d in trace if d > tol_floor]
    if len(meaningful) < 2:
        return
    ratio = meaningful[-1] / meaningful[-2]
    if ratio > bound:
        warnings.warn(
            f"observed Picard update ratio {ratio:.3f} exceeds the expected "
            f"contraction bound {bound:.3f}",
            RuntimeWarning,
            stacklevel=3,
        )


def picard_solve_second_moment(
    system: PerModeSystem,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    load: MomentLoad,
    tol: float = 1e-10,
    max_iter: int = 100,
) -> SpaceTimeMoment:
    """Solve the moment fixed-point problem of a symmetric load by
    successive substitution.

    Refuses, before any sweep, a load whose initial or spatial part is
    not finite, or asymmetric beyond 1e-12 of its max-norm (at least
    1): spectral.moment_matrix, the rule every route applies to its
    initial second moment. The initial part is asked for psd as well: in
    every load that rhs_second_moment and rhs_covariance build it is an
    initial second moment or covariance, with no negative eigenvalue.

    Starts from the zero-coupling solve, then repeatedly re-solves with
    the coupling term evaluated at the previous iterate. Stops when the
    max-norm update drops below tol relative to the iterate scale, both
    max-norms over the whole field (_max_abs). The coupling reads the
    upper triangle of each diagonal block through the noise map's
    symmetric action, built once for the call. With a purely additive
    noise operator the map is constant and a single iteration confirms
    convergence.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    check_compatible(gmap, noise, system.n_modes)
    K, n = system.grid.steps, system.n_modes
    moment_matrix(load.initial, (n, n), "load initial part", psd=True)
    moment_matrix(load.spatial, (K, n, n), "load spatial part")
    model = SpectralModel(eigenvalues=system.eigenvalues, horizon=system.grid.horizon)
    g1_norm = g1_v_to_hs_norm(gmap, model, noise)
    if g1_norm >= 1.0:
        warnings.warn(
            f"multiplicative norm {g1_norm:.3f} >= 1: no contraction guarantee, "
            "the iteration may fail to converge",
            RuntimeWarning,
            stacklevel=2,
        )

    action = symmetric_action(gmap, noise)
    blocks = _causal_solve(system, load)
    trace: list[float] = []
    for _ in range(max_iter):
        current = MomentLoad(load.initial, load.spatial + multiplicative_form(action, blocks[0]))
        new_blocks = _causal_solve(system, current)
        delta = _max_abs(new - old for new, old in zip(new_blocks, blocks))
        trace.append(delta)
        blocks = new_blocks
        scale = max(1.0, _max_abs(blocks))
        if delta <= tol * scale:
            if g1_norm < 1.0:
                _contraction_report(trace, g1_norm ** 2 + 0.15, 1e3 * np.finfo(float).eps * scale)
            # fields in order: grid, diagonal, upper, ratio, trace
            return SpaceTimeMoment(system.grid, *blocks, system.ratio, np.asarray(trace))
    raise PicardNonConvergence(trace, max_iter)


def solve_bytes(steps: int, n: int, modes: int, fields: int) -> int:
    """Bytes held at once by the mean solve on K = steps intervals of
    N = n modes and then `fields` moment solves in turn, each field kept,
    against M = `modes` noise modes.

    With no moment solve, the peak is the K N mean coefficients beside
    at most three more arrays of their shape and two of the K nodes: the
    solve's powers of r, or an exact mean compared with it. A moment
    solve peaks in a Picard iteration at eight arrays of K N^2 values
    beside the mean: its load, the previous iterate's two block
    diagonals, the coupled load, and then either the causal sweep's
    diagonal, off-diagonal load and two temporaries or the new iterate's
    two block diagonals and its update's difference and magnitude. Each
    earlier field adds its two block diagonals. The noise map's
    symmetric action, kept through the solve, is counted beside them at
    what building it holds (noise_map.action_bytes), though only the
    action itself is still held at the first sweep. 64 KiB more cover
    numpy's buffered iteration over an operand that a product
    broadcasts, 8192 values, and 16 KiB the interpreter objects of the
    calls. At 4096 steps of 4 modes (numpy 2.4.6) tracemalloc peaks at
    8.40 K N^2 values for one solve and 10.40 for two, against counts of
    8.42 and 10.42.
    """
    if fields:
        held = 8 * ((2 * fields + 6) * steps * n * n + steps * n) + action_bytes(n, modes)
    else:
        held = 8 * (4 * steps * n + 2 * steps)
    return held + 8192 * 8 + 16 * 1024


def _count_below(lam_dt: np.ndarray, mu: np.ndarray, steps: int) -> np.ndarray:
    """Number of eigenvalues below mu of each mode's pencil (A, G_Y).

    lam_dt has shape (N,) and mu shape (N, C), one row of candidates per
    mode. With h = lambda dt, a = 1 + h/2 and c = -1 + h/2, the trial
    Gram is D = h I, so A = B^T D^-1 B is tridiagonal: (a^2 + c^2) / h on
    the diagonal, except a^2 / h first, and a c / h off it. The test Gram
    G_Y of the hats in the graph norm, lambda * mass + stiffness / lambda
    with the exact hat mass and stiffness, is tridiagonal too: 2 (h/3 +
    1/h) on the diagonal, except h/3 + 1/h first (the hat at t_0 has one
    interval under it), and h/6 - 1/h off it. So h (A - mu G_Y) has

        first entry     (1 - mu) + h + h^2 (1/4 - mu/3),
        diagonal        2 (1 - mu) + h^2 (1/2 - 2 mu/3),
        off-diagonal    (mu - 1) + h^2 (1/4 - mu/6),

    written so that no entry cancels: near mu = 1, where the smallest
    end sits when h is small, 1 - mu is exact and the h^2 terms survive.

    G_Y is positive definite, so by Sylvester's law of inertia the count
    is the number of negative pivots of the LDL^T factorization of this
    matrix: p_0 = d_0 and p_i = d_i - e^2 / p_{i-1}, an O(K) recursion run
    on all candidates at once. The squared off-diagonal is kept above
    the smallest normal number, so a zero pivot yields an infinite one,
    never a NaN, and the sign bit counts a pivot of -0 as negative: each
    pair (0, -e^2 / 0) then counts exactly one, as does any perturbation
    of the zero.
    """
    h2 = (lam_dt * lam_dt)[:, None]
    first = (1.0 - mu) + lam_dt[:, None] + h2 * (0.25 - mu / 3.0)
    diag = 2.0 * (1.0 - mu) + h2 * (0.5 - 2.0 * mu / 3.0)
    off = (mu - 1.0) + h2 * (0.25 - mu / 6.0)
    off2 = np.maximum(off * off, np.finfo(float).tiny)
    count = np.signbit(first).astype(np.intp)
    pivot = first
    # pivots are held a block at a time and their signs counted per block
    block = np.empty((min(_PIVOT_BLOCK, steps - 1),) + mu.shape)
    for start in range(1, steps, len(block)):
        rows = block[:steps - start]
        for row in rows:
            np.divide(off2, pivot, out=row)
            np.subtract(diag, row, out=row)
            pivot = row
        count += np.count_nonzero(np.signbit(rows), axis=0)
    return count


def per_mode_singular_range(system: PerModeSystem) -> tuple[np.ndarray, np.ndarray]:
    """Smallest and largest singular value of each mode's Gram-normalized pairing.

    The singular values of G_Y^-1/2 B^T D^-1/2 are the square roots of
    the eigenvalues mu of the symmetric-definite tridiagonal pencil
    (A, G_Y), A = B^T D^-1 B. Both ends are found by multisection on
    inertia counts (`_count_below`; Barth, Martin and Wilkinson, Numer.
    Math. 9, 1967): each round counts the eigenvalues
    below _CANDIDATES points inside every bracket, for every mode and
    both ends at once, and keeps the subinterval where the count first
    reaches 1 (smallest end) or K (largest end). The points are spaced
    geometrically while a bracket spans more than a factor 4 and evenly
    after, and the rounds stop when every bracket is a few units in the
    last place wide. O(N K) time per round and O(N) memory per candidate;
    no K x K matrix is formed.

    Each count is exact for a matrix within a few rounding errors of
    every entry, so an end is accurate to the unit roundoff times its
    sensitivity to such errors. That is near 1e-16 relative for most
    modes. It grows like K^2 for the largest end when lambda dt << 1 and
    for the smallest end when lambda dt >> 1: about 1e-11 at K = 1024,
    lambda dt = 1e-3, where the dense eigh and SVD of the Grams err by
    about 1e-10.

    The brackets start from bounds that hold for every mode. The pairing
    is the exact integral of u (-v' + lambda v), and the two Grams are
    exactly lambda ||u||^2 and lambda ||v||^2 + ||v'||^2 / lambda, so
    Cauchy-Schwarz bounds every singular value by sqrt(2). Below,
    sigma_min(B) >= a - |c| = min(lambda dt, 2) and Gershgorin bounds
    the largest eigenvalue of G_Y by lambda dt + 4 / (lambda dt), which
    bounds mu below by min(lambda dt, 2)^2 / ((lambda dt)^2 + 4). The
    brackets start at half that floor and at 2.25, clear of rounding.
    """
    K, n = system.grid.steps, system.n_modes
    lam_dt = system.lambda_dt
    floor = 0.5 * np.minimum(lam_dt, 2.0) ** 2 / (lam_dt ** 2 + 4.0)
    lo = np.repeat(floor[:, None], 2, axis=1)     # (N, 2): smallest end, largest end
    hi = np.full((n, 2), 2.25)
    target = np.array([1, K])
    fractions = np.arange(1, _CANDIDATES + 1) / (_CANDIDATES + 1)
    eps = np.finfo(float).eps
    for _ in range(_MAX_ROUNDS):
        if np.all(hi - lo <= 4.0 * eps * hi):
            break
        geometric = (hi > 4.0 * lo)[..., None]
        mu = np.where(geometric,
                      lo[..., None] * (hi / lo)[..., None] ** fractions,
                      lo[..., None] + (hi - lo)[..., None] * fractions)
        reached = _count_below(lam_dt, mu.reshape(n, -1), K).reshape(mu.shape) >= target[:, None]
        # first candidate whose count reaches the target, _CANDIDATES if none does
        first = np.where(reached.any(axis=-1), np.argmax(reached, axis=-1), _CANDIDATES)
        ends = np.concatenate([lo[..., None], mu, hi[..., None]], axis=-1)
        lo = np.take_along_axis(ends, first[..., None], axis=-1)[..., 0]
        hi = np.take_along_axis(ends, first[..., None] + 1, axis=-1)[..., 0]
    singular = np.sqrt(0.5 * (lo + hi))
    return singular[:, 0], singular[:, 1]


def discrete_inf_sup(system: PerModeSystem) -> float:
    """Discrete inf-sup value of the full pairing.

    The pairing couples no distinct modes, so this is the per-mode
    minimum. Reported as a stability diagnostic; the continuous theory
    guarantees a lower bound only for the undiscretized problem.
    """
    return float(per_mode_singular_range(system)[0].min())
