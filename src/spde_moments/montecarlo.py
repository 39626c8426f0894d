"""Path simulation of the mild solution and statistical moment estimation.

The time stepper is the semigroup (exponential Euler) scheme

    X_{k+1} = S(dt) (X_k + G(X_k) dL_k),

which treats the stiff linear part exactly in spectral coordinates and
evaluates the noise operator at the left endpoint of every step, as the
stochastic integral's predictability requires.

Paths are generated in fixed batches. Batch b always draws from the
generator seeded with [seed, b], so results are reproducible bit for
bit, and the same batches feed the batch-means standard errors.
Contiguous runs of batches go to one process per CPU of the process's
affinity (`_fanout`). The results are the same bit for bit whatever the
number of processes: fan_out holds numpy's OpenBLAS to one thread in
each, however many run, so every process rounds a batch's
block.T @ block as a process on one CPU does, where a threaded OpenBLAS
rounds it otherwise, as at D = 260 recorded values a path.

A process steps its batches one at a time. A batch's state is one (N,
count) array, modes by paths, so that the noise map is one contraction
over the contiguous paths (g_apply_bound) and the update is done in
place; each recording node is written back to the batch's (count, K+1,
N) block of paths. The increments are drawn ahead, a run of scheme
steps at a time, by one sample_increments call into a (steps, count,
M) buffer of at most DRAW_BYTES (26 steps of 313 paths at M = 4, 52 of
625 paths in the scalar configs): the call makes, step by step, the
generator calls that one call a step makes, so the paths are bit for
bit those of increments drawn a step at a time, whatever the run's
length, while the scaling and the jump placement, each with a fixed
cost per call, run once a run. Each step's increments are copied into
one paths-last (M, count) array before the noise map, which is cheaper
than handing it a transposed view. A scheme step is bound by the
generator's own draws: a 313-path step at N = 4 costs some 50 us on one
CPU of a 2-CPU x86 host, two thirds of it in the sampler, where the
normal, Poisson, uniform and sign draws take most of the time.

The moments are functions of the per-batch sums of the paths and of
their outer products alone. simulate_moments, the one Monte Carlo
entry point, reduces each batch to those sums in the process that
simulates it and drops its paths. A sum of outer products is
symmetric, bit for bit as numpy forms it, and is held by its upper
triangle, packed as spectral lays out every triangle, so with nb
batches of P paths of D recorded values the run holds nb D (D + 3) / 2
float64 of sums and O(D^2 + (P / nb) D) more, with no P D term; the
increments drawn ahead take at most DRAW_BYTES, or one step's where
that is more. The reduction takes every statistic on the triangles, the
per-batch covariances a span of triangle rows at a time, and unpacks
each (D, D) field once. No path outlives its batch. Every batch is
summed, and a path that is not finite leaves its batch's sum not
finite, which refuses the run.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fanout import fan_out, split, workers
from .levy import NoiseModel, sample_increments
from .noise_map import AffineNoiseMap, check_compatible, g_apply_bound
from .spectral import (SpectralModel, moment_matrix, state_vector, triangle_positions,
                       triangle_start, unpack_triangle)

__all__ = [
    "MomentEstimate",
    "simulate_moments",
]

BATCHES = 32  # batch count of every run of at least that many paths
DRAW_BYTES = 2**18  # budget of the increments a batch draws ahead


def _batch_bounds(paths: int) -> list[tuple[int, int]]:
    """Path ranges [lo, hi) of the min(BATCHES, paths) batches of a run,
    in order; the first paths mod nb batches hold one path more."""
    return split(paths, min(BATCHES, paths))


def _shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of `shape` in anonymous shared memory, so that the
    rows a forked worker writes are the rows its parent reads."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def _draw_steps(scheme_steps: int, count: int, noise_dim: int) -> int:
    """Scheme steps whose increments a batch of `count` paths draws at
    once: as many as fit DRAW_BYTES, at least one and at most all
    `scheme_steps`."""
    return max(1, min(scheme_steps, DRAW_BYTES // (8 * count * noise_dim)))


def estimate_bytes(paths: int, width: int, dim: int, noise: NoiseModel, substeps: int = 1) -> int:
    """Peak bytes that simulate_moments allocates in one process for
    `paths` paths of `width` recorded values of `dim` modes each, driven
    by `noise`'s M modes, each recording step taking `substeps` scheme
    steps.

    With nb batches of at most P = ceil(paths / nb) paths, D = width and
    T = D (D + 1) / 2, the per-batch sums (nb T + nb D float64: each
    batch's sum of outer products by its upper triangle) are held
    throughout, and the peak falls in one of three phases:
    - stepping a batch: the T flat positions of the triangle
      (spectral.triangle_positions), its block (P D), state and decay
      factors (2 N P), outer products (N M P), paths-last increments
      (M P) and the increments of the A scheme steps it draws ahead
      (A M P, A = _draw_steps of the run's scheme steps); beside them
      either the sampler's buffer of its broadcast scaling, at most
      min(8192, A M P) values, with, where jumps are drawn, its Poisson
      counts (A P), a step's Poisson draw (P) and its jump draws, six
      words a jump at one jump a path in a run; or the noise term with
      its G2 part (2 N P) and the two buffers of the broadcast multiply
      that forms the outer products, at most min(8192, N M P) values
      each;
    - summing a batch: the positions, its block, one D x D product and a
      D sum;
    - the reduction: the D x D moment and covariance beside the mean,
      the buffer of the in-place broadcasts over the per-batch
      statistics, at most min(8192, nb T) values, and either the
      covariance error as a triangle and one span of the per-batch
      covariances, nb x entries with entries at most rows x D, rows =
      max(2, floor(D / (nb + 2))), with 2 x entries more for the span's
      batch error; or, at the end, the covariance error, the second
      moment's error as a triangle and as a D x D matrix, and the mean's
      error: T + 2 D + max(4 D^2, 2 D^2 + (nb + 2) rows D) values, about
      4.5 D^2 whatever nb once D >= nb + 2.
    numpy's buffers are those of its buffered iteration, which it uses
    for these broadcasts; each holds at most 8192 values. 8 KiB and 256
    bytes a batch more cover the interpreter objects of the call: the
    batch bounds and the like. No term grows with paths x D. A run
    without a jump part (noise.drawn_jump_rate = 0) draws no Poisson
    counts, and none are counted.
    """
    nb = min(BATCHES, paths)
    batch = -(-paths // nb)
    ahead = _draw_steps((width // dim - 1) * substeps, batch, noise.dim)
    tri = width * (width + 1) // 2
    sums = nb * (tri + width)
    held = batch * (width + dim * (noise.dim + 2) + noise.dim * (ahead + 1))
    jumps = batch * (ahead + 7) if noise.drawn_jump_rate > 0.0 else 0  # Poisson counts, draws
    sampling = jumps + min(8192, ahead * noise.dim * batch)
    noise_term = 2 * batch * dim + 2 * min(8192, dim * noise.dim * batch)
    stepping = tri + max(held + max(sampling, noise_term), batch * width + width * width + width)
    rows = max(2, width // (nb + 2))
    reduction = tri + 2 * width + min(8192, nb * tri) + max(
        4 * width * width, 2 * width * width + (nb + 2) * rows * width)
    return (sums + max(stepping, reduction)) * 8 + 2**13 + 256 * nb


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

    The initial mean and covariance are checked by spectral.state_vector
    and spectral.moment_matrix with psd; the covariance's
    eigendecomposition then gives the factor that samples x0.

    step(b, block) fills `block`, a (count, steps + 1, N) array, with the
    count paths of batch b on the recording grid, drawn from the stream
    [seed, b]: x0 first, where it is sampled, then the increments, a run
    of _draw_steps scheme steps at a time by one sample_increments call;
    each recording step takes `substeps` scheme steps. The state is one
    (N, count) array, each step's increments are copied into one (M,
    count) array and the outer products x (x) dL go into one (N, M,
    count) buffer, all reused for every step, so that every elementwise
    operation and the noise map's matmuls run along the contiguous paths.
    """
    if steps < 1 or substeps < 1:
        raise ValueError("steps and substeps must be positive")
    if paths < 1:
        raise ValueError("path count must be positive")
    check_compatible(gmap, noise, model.dim)
    x0_mean = state_vector(x0_mean, model.dim, "initial mean")
    factor = None
    if x0_cov is not None:
        cov = moment_matrix(x0_cov, (model.dim, model.dim), "initial covariance", psd=True)
        w, v = np.linalg.eigh(cov)
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    total = steps * substeps
    dt = model.horizon / total
    decay = np.exp(-model.eigenvalues * dt)[:, None]

    def step(b: int, block: np.ndarray) -> None:
        rng = np.random.default_rng([seed, b])
        count = block.shape[0]
        if factor is None:
            x = np.repeat(x0_mean[:, None], count, axis=1)
        else:
            x = np.ascontiguousarray((x0_mean + rng.standard_normal((count, model.dim))
                                      @ factor.T).T)
        draws = np.empty((_draw_steps(total, count, noise.dim), count, noise.dim))
        incs = np.empty((noise.dim, count))
        # one factor a path: numpy copies x for an in-place product broadcast along it
        decays = np.repeat(decay, count, axis=1)
        noise_term = g_apply_bound(gmap, x, incs)  # reads x and incs as they are updated in place
        block[:, 0] = x.T
        for first in range(0, total, len(draws)):
            run = sample_increments(noise, dt, count, rng, out=draws[:total - first])
            for s, increments in enumerate(run, first + 1):
                incs[...] = increments.T
                x += noise_term()
                x *= decays
                if s % substeps == 0:
                    block[:, s // substeps] = x.T

    return step


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


def _sum_batch(block: np.ndarray, s1: np.ndarray, s2: np.ndarray, upper: np.ndarray) -> None:
    """Write the sum of the rows of a (count, D) block of paths to s1 and
    the upper triangle of the sum of their outer products, read at the
    flat positions `upper` (triangle_positions(D)), to s2. numpy forms
    block.T @ block by a symmetric rank-k update and mirrors it, so the
    triangle holds the whole sum bit for bit."""
    s1[...] = block.sum(axis=0)
    np.take(block.T @ block, upper, out=s2, mode="clip")


def _reduce(s1: np.ndarray, s2: np.ndarray, bounds: list[tuple[int, int]], nodes: int,
            dim: int) -> MomentEstimate:
    """The moments of paths from their per-batch sums: s1[b] and s2[b]
    are _sum_batch of the rows bounds[b], s2[b] an upper triangle. Both
    are overwritten: divided by the batch counts, they are the per-batch
    means and second moments (chunk.mean(axis=0) and the triangle of
    chunk.T @ chunk / count bit for bit), and then their deviations. The
    totals are the sums over the batches, in batch order, divided by the
    path count. Every statistic of the second moment and the covariance
    is taken on the (nb, D (D + 1) / 2) triangles, entry by entry as on
    whole matrices, and each (D, D) output is unpacked once. The
    per-batch covariances are formed a span of whole triangle rows at a
    time, into a C-ordered (nb, entries) array, and each span's spread
    is taken before the next, so that no nb x D x D array is held. numpy
    reduces such an array over its batches in batch order only when a
    row holds two entries or more, so every span does: they are cut from
    the last triangle row back, and only the one at row 0, whose D
    entries alone are two or more, can be short. A span gathered by
    fancy indexing would come out F-ordered and be reduced in another
    order."""
    paths = bounds[-1][1]
    nb, width = s1.shape
    counts = np.array([hi - lo for lo, hi in bounds], dtype=float)
    mean = np.add.reduce(s1, axis=0)
    mean /= paths
    m2 = np.add.reduce(s2, axis=0)
    m2 /= paths
    m2 = unpack_triangle(m2, width)
    cov = np.outer(mean, mean)
    np.subtract(m2, cov, out=cov)
    s1 /= counts[:, None]
    s2 /= counts[:, None]
    cov_se = np.empty(s2.shape[1])
    # a span and the two temporaries of its batch error, (nb + 2) rows of D, fit in D^2
    # once D >= 2 (nb + 2)
    rows = max(2, width // (nb + 2))
    for hi in range(width, 0, -rows):
        lo = max(hi - rows, 0)
        first, end = triangle_start(lo, width), triangle_start(hi, width)
        span = np.empty((nb, end - first))
        at = 0
        for r in range(lo, hi):
            np.multiply(s1[:, r, None], s1[:, r:], out=span[:, at:at + width - r])
            at += width - r
        np.subtract(s2[:, first:end], span, out=span)
        cov_se[first:end] = _batch_error(span)
        del span  # freed before the next span is formed
    cov_se = unpack_triangle(cov_se, width)
    mean_se = _batch_error(s1)
    m2_se = unpack_triangle(_batch_error(s2), width)

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

    Each process steps its batches one at a time, each into a block of
    its own, reduces the batch at once to its sum and the upper triangle
    of its sum of outer products, and drops the block. The processes of
    the fan-out write these sums into shared (nb, D) and (nb, D (D + 1)
    / 2) arrays, so none holds more than one batch of paths, and the
    memory is nb D (D + 3) / 2 + O(D^2 + (paths / nb) D) float64
    (estimate_bytes), with no paths x D term; the reduction (_reduce)
    stays on the triangles and adds some 4.5 D^2. The standard
    errors come from the spread of the per-batch statistics. The
    two-time fields hold ((K+1) N)^2 entries each; keep recording grids
    coarse and refine the stepping through substeps instead. Raises
    ValueError when a path is not finite: its batch's sum is not either.
    """
    step = _batch_stepper(model, noise, gmap, x0_mean, steps, paths, seed, x0_cov, substeps)
    if paths < 2:
        raise ValueError(f"at least two paths are required, got {paths}")
    bounds = _batch_bounds(paths)
    nodes, width = steps + 1, (steps + 1) * model.dim
    procs = workers(len(bounds))
    empty = _shared_empty if procs > 1 else np.empty
    s1, s2 = empty((len(bounds), width)), empty((len(bounds), width * (width + 1) // 2))

    def run(batches: tuple[int, int]) -> None:
        upper = triangle_positions(width)
        for b in range(*batches):
            lo, hi = bounds[b]
            block = np.empty((hi - lo, nodes, model.dim))
            step(b, block)
            # inf - inf and overflow leave nan or inf quietly; such a sum is refused below
            with np.errstate(invalid="ignore", over="ignore"):
                _sum_batch(block.reshape(hi - lo, width), s1[b], s2[b], upper)
            del block  # freed before the next batch's block is allocated

    fan_out(run, split(len(bounds), procs))
    if not np.isfinite(s1).all():
        raise ValueError("paths must be finite")
    return _reduce(s1, s2, bounds, nodes, model.dim)
