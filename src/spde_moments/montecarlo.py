"""Path simulation of the mild solution and statistical moment estimation.

The time stepper is the semigroup (exponential Euler) scheme

    X_{k+1} = S(dt) (X_k + G(X_k) dL_k),

which treats the stiff linear part exactly in spectral coordinates and
evaluates the noise operator at the left endpoint of every step, as the
stochastic integral's predictability requires. A batch is stepped with
its state as one (N, count) array, modes by paths, so that the noise
map is one contraction over the contiguous paths (g_apply_columns) and
the update is done in place; each recording node is written back to
the (count, K+1, N) block of paths.

Paths are generated in fixed batches. Batch b always draws from the
generator seeded with [seed, b], so results are reproducible bit for
bit, and the same batches feed the batch-means standard errors.
Contiguous runs of batches go to one process per CPU of the process's
affinity (`_fanout`), and the results are the same bit for bit whatever
the number of processes.

The moments are functions of the per-batch sums of the paths and of
their outer products alone. simulate_moments, the one Monte Carlo
entry point, reduces each batch to those sums in the process that
simulates it and drops its paths, so with nb batches of P paths of D
recorded values it holds O(nb D^2 + (P / nb) D) float64, with no P D
term. No path outlives its batch.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fanout import fan_out, split, workers
from .levy import NoiseModel, sample_increments
from .noise_map import AffineNoiseMap, check_compatible, g_apply_columns
from .spectral import SpectralModel

__all__ = [
    "MomentEstimate",
    "simulate_moments",
    "weak_identity_residual",
    "ito_isometry_check",
]

BATCHES = 32  # batch count of every run of at least that many paths


def _batch_bounds(paths: int) -> list[tuple[int, int]]:
    """Path ranges [lo, hi) of the min(BATCHES, paths) batches of a run,
    in order; the first paths mod nb batches hold one path more."""
    return split(paths, min(BATCHES, paths))


def _shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of `shape` in anonymous shared memory, so that the
    rows a forked worker writes are the rows its parent reads."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def estimate_bytes(paths: int, width: int) -> int:
    """Peak bytes that simulate_moments allocates for `paths` paths of
    `width` recorded values each.

    With nb batches and D = width, the peak of the reduction falls in
    the spread of the per-batch covariances: the nb x D x D per-batch
    second moments and covariances, whose deviations are formed in
    place, the D x D moment, covariance and first standard error, and
    two D x D temporaries (the batch sum and its quotient by nb, then the
    squared sum and its quotient by nb - 1), (2 nb + 5) D^2 float64 in
    all; beside them the (nb + 2) D per-batch and total means and the
    mean's standard error, and 4 KiB for the interpreter objects the call
    creates. To these comes the block of one batch of paths, at most
    ceil(paths / nb) D float64, held while a batch is stepped. No term
    grows with paths x D. On a grid so small that nb D^2 falls below
    numpy's 8192-element iteration buffer, that buffer can add some ten
    kB more.
    """
    nb = min(BATCHES, paths)
    block = -(-paths // nb) * width
    return ((2 * nb + 5) * width + nb + 2) * width * 8 + block * 8 + 2**12


def _batch_stepper(
    model: SpectralModel,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    x0_mean: np.ndarray,
    steps: int,
    paths: int,
    seed: int,
    x0_cov: Optional[np.ndarray],
    substeps: int,
):
    """Check the arguments of a simulation and return its batch stepper.

    batch(b, block) fills `block`, a (count, steps + 1, N) array, with
    the count paths of batch b on the recording grid, drawn from the
    stream [seed, b]; each recording step takes `substeps` scheme steps,
    and each scheme step draws its increments by one sample_increments
    call. Between nodes the state is an (N, count) array and the outer
    products x (x) dL live in one (N, M, count) buffer, both reused for
    every step of the batch.
    """
    if steps < 1 or substeps < 1:
        raise ValueError("steps and substeps must be positive")
    if paths < 1:
        raise ValueError("path count must be positive")
    check_compatible(gmap, noise, model.dim)
    x0_mean = np.asarray(x0_mean, dtype=float)
    if x0_mean.shape != (model.dim,):
        raise ValueError(f"initial mean must have length {model.dim}")
    if not np.all(np.isfinite(x0_mean)):
        raise ValueError("initial mean must be finite")
    factor = None
    if x0_cov is not None:
        cov = np.asarray(x0_cov, dtype=float)
        if cov.shape != (model.dim, model.dim):
            raise ValueError(f"initial covariance must be {model.dim}x{model.dim}")
        if not np.all(np.isfinite(cov)):
            raise ValueError("initial covariance must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError("initial covariance must be symmetric")
        w, v = np.linalg.eigh(cov)
        if np.any(w < -1e-10 * max(1.0, float(w.max(initial=0.0)))):
            raise ValueError("initial covariance must be positive semidefinite")
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    dt = model.horizon / (steps * substeps)
    decay = np.exp(-model.eigenvalues * dt)[:, None]

    def batch(b: int, block: np.ndarray) -> None:
        rng = np.random.default_rng([seed, b])
        count = block.shape[0]
        if factor is None:
            x = np.repeat(x0_mean[:, None], count, axis=1)
        else:
            x = np.ascontiguousarray((x0_mean + rng.standard_normal((count, model.dim))
                                      @ factor.T).T)
        work = np.empty((model.dim, noise.dim, count))
        block[:, 0] = x.T
        for k in range(steps):
            for _ in range(substeps):
                dL = sample_increments(noise, dt, count, rng)
                x += g_apply_columns(gmap, x, dL.T, work)
                x *= decay
            block[:, k + 1] = x.T

    return batch


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean, two-time second moment, and covariance of the paths,
    with batch-means standard errors per entry.

    The covariance field is second_moment minus the outer product of the
    mean, evaluated exactly as stored (the two fields are consistent bit
    for bit).
    """

    mean: np.ndarray            # (K+1, N)
    second_moment: np.ndarray   # (K+1, N, K+1, N)
    covariance: np.ndarray      # (K+1, N, K+1, N)
    mean_se: np.ndarray
    second_moment_se: np.ndarray
    covariance_se: np.ndarray


def _batch_error(stats: np.ndarray) -> np.ndarray:
    """Batch-means standard error over the leading axis of nb per-batch
    statistics, np.std(stats, axis=0, ddof=1) / sqrt(nb) bit for bit: the
    same operations in np.std's order, with the deviations formed in
    place in `stats`, which are overwritten."""
    nb = stats.shape[0]
    stats -= np.add.reduce(stats, axis=0, keepdims=True) / nb
    np.multiply(stats, stats, out=stats)
    spread = np.add.reduce(stats, axis=0) / (nb - 1)
    return np.sqrt(spread, out=spread) / np.sqrt(nb)


def _sum_batch(block: np.ndarray, s1: np.ndarray, s2: np.ndarray) -> None:
    """Write the sum of the rows of a (count, D) block of paths to s1 and
    the sum of their outer products to s2."""
    s1[...] = block.sum(axis=0)
    s2[...] = block.T @ block


def _reduce(s1: np.ndarray, s2: np.ndarray, bounds: list[tuple[int, int]], nodes: int,
            dim: int) -> MomentEstimate:
    """The moments of paths from their per-batch sums: s1[b] and s2[b]
    are _sum_batch of the rows bounds[b]. Both are overwritten: divided
    by the batch counts, they are the per-batch means and second moments
    (chunk.mean(axis=0) and chunk.T @ chunk / count bit for bit), and
    then their deviations. The totals are the sums over the batches, in
    batch order, divided by the path count."""
    paths = bounds[-1][1]
    counts = np.array([hi - lo for lo, hi in bounds], dtype=float)
    mean = np.add.reduce(s1, axis=0)
    mean /= paths
    m2 = np.add.reduce(s2, axis=0)
    m2 /= paths
    cov = m2 - np.outer(mean, mean)
    s1 /= counts[:, None]
    s2 /= counts[:, None, None]
    b_cov = s1[:, :, None] * s1[:, None, :]
    np.subtract(s2, b_cov, out=b_cov)
    mean_se = _batch_error(s1)
    m2_se = _batch_error(s2)
    cov_se = _batch_error(b_cov)

    shape2 = (nodes, dim, nodes, dim)
    return MomentEstimate(
        mean=mean.reshape(nodes, dim),
        second_moment=m2.reshape(shape2),
        covariance=cov.reshape(shape2),
        mean_se=mean_se.reshape(nodes, dim),
        second_moment_se=m2_se.reshape(shape2),
        covariance_se=cov_se.reshape(shape2),
    )


def simulate_moments(
    model: SpectralModel,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    x0_mean: np.ndarray,
    steps: int,
    paths: int,
    seed: int,
    x0_cov: Optional[np.ndarray] = None,
    substeps: int = 1,
) -> MomentEstimate:
    """Simulate `paths` independent paths and estimate their moments.

    The recording grid has `steps` intervals; each is advanced with
    `substeps` internal scheme steps, which refines the time stepping
    without enlarging the recorded grid. x0_cov, when given, samples
    Gaussian initial values with that covariance around x0_mean;
    otherwise the initial value is the deterministic vector x0_mean.

    Each batch is stepped into a block of its own, reduced at once to
    its sum and its sum of outer products, and dropped. The processes of
    the fan-out write these sums into shared (nb, D) and (nb, D, D)
    arrays, so none holds more than one batch of paths, and the memory
    is O(nb D^2 + (paths / nb) D) float64 (estimate_bytes), with no
    paths x D term. The standard errors come from the spread of the
    per-batch statistics. The two-time fields hold ((K+1) N)^2 entries
    each; keep recording grids coarse and refine the stepping through
    substeps instead. Raises ValueError when a path is not finite.
    """
    batch = _batch_stepper(model, noise, gmap, x0_mean, steps, paths, seed, x0_cov, substeps)
    if paths < 2:
        raise ValueError(f"at least two paths are required, got {paths}")
    bounds = _batch_bounds(paths)
    nodes, width = steps + 1, (steps + 1) * model.dim
    procs = workers(len(bounds))
    empty = _shared_empty if procs > 1 else np.empty
    s1, s2 = empty((len(bounds), width)), empty((len(bounds), width, width))
    finite = empty((len(bounds),))

    def run(batches: tuple[int, int]) -> None:
        for b in range(*batches):
            lo, hi = bounds[b]
            block = np.empty((hi - lo, nodes, model.dim))
            batch(b, block)
            finite[b] = np.isfinite(block).all()
            if finite[b]:
                _sum_batch(block.reshape(hi - lo, width), s1[b], s2[b])
            del block

    fan_out(run, split(len(bounds), procs))
    if not finite.all():
        raise ValueError("paths must be finite")
    return _reduce(s1, s2, bounds, nodes, model.dim)


def weak_identity_residual(
    path: np.ndarray,
    v: np.ndarray,
    model: SpectralModel,
    gmap: AffineNoiseMap,
    increments: np.ndarray,
) -> float:
    """Residual of the weak form of the mild solution along one path.

    The left side integrates the path against the test function under
    the adjoint parabolic operator; the right side carries the initial
    pairing plus the stochastic integral. Both use quadratures aligned
    with the simulation grid: left endpoints for the path and the
    stochastic integrand, trapezoids for the operator term. The residual
    shrinks as the grid refines.
    """
    path = np.asarray(path, dtype=float)
    v = np.asarray(v, dtype=float)
    increments = np.asarray(increments, dtype=float)
    if path.ndim != 2 or path.shape[1] != model.dim:
        raise ValueError(f"path must be (K+1, {model.dim})")
    K = path.shape[0] - 1
    if K < 1:
        raise ValueError("path must have at least two nodes")
    if v.shape != path.shape:
        raise ValueError(f"test function shape {v.shape} != path shape {path.shape}")
    if increments.shape != (K, gmap.noise_dim):
        raise ValueError(f"increments must be (K, {gmap.noise_dim})")
    if np.max(np.abs(v[-1])) > 1e-12:
        raise ValueError("test function must vanish at the final node")

    dt = model.horizon / K
    lam = model.eigenvalues
    x_left = path[:-1]
    v_mid = 0.5 * (v[:-1] + v[1:])
    dv = (v[1:] - v[:-1]) / dt
    lhs = dt * float(np.sum(x_left * (lam * v_mid - dv)))
    # (K, N), the left-point integrand
    noise_term = g_apply_columns(gmap, x_left.T, increments.T).T
    rhs = float(path[0] @ v[0]) + float(np.sum(v[:-1] * noise_term))
    return lhs - rhs


def ito_isometry_check(
    noise: NoiseModel,
    v1: np.ndarray,
    v2: np.ndarray,
    phi: np.ndarray,
    samples: int,
    rng: np.random.Generator,
    horizon: float = 1.0,
) -> tuple[float, float, float]:
    """Monte Carlo check of the isometry for weak stochastic integrals.

    v1, v2 are deterministic time-nodal (K+1, N) test functions and phi
    a deterministic (K+1, N, M) integrand. The left side estimates the
    expected product of the two weak integrals by simulation with
    left-point quadrature; the right side is the matching quadrature of
    sum_m gamma_m <v1, phi e_m> <v2, phi e_m>. Returns (lhs, rhs, z).
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if v1.shape != v2.shape or v1.ndim != 2:
        raise ValueError("v1 and v2 must be (K+1, N) arrays of equal shape")
    if v1.shape[0] < 2:
        raise ValueError("test functions must have at least two nodes")
    if phi.shape != (v1.shape[0], v1.shape[1], noise.dim):
        raise ValueError(f"phi must have shape {(v1.shape[0], v1.shape[1], noise.dim)}")
    if samples < 2:
        raise ValueError("at least two samples are required")
    K = v1.shape[0] - 1
    dt = horizon / K

    a1 = np.einsum("kn,knm->km", v1[:-1], phi[:-1])  # (K, M) left-point integrands
    a2 = np.einsum("kn,knm->km", v2[:-1], phi[:-1])
    i1 = np.zeros(samples)
    i2 = np.zeros(samples)
    for k in range(K):
        dL = sample_increments(noise, dt, samples, rng)
        i1 += dL @ a1[k]
        i2 += dL @ a2[k]
    product = i1 * i2
    lhs = float(product.mean())
    rhs = float(dt * np.einsum("km,km,m->", a1, a2, noise.q_eigenvalues))
    se = float(product.std(ddof=1) / np.sqrt(samples))
    z = (lhs - rhs) / se if se > 0.0 else 0.0
    return lhs, rhs, z
