"""Path simulation of the mild solution and statistical moment estimation.

The time stepper is the semigroup (exponential Euler) scheme

    X_{k+1} = S(dt) (X_k + G(X_k) dL_k),

which treats the stiff linear part exactly in spectral coordinates and
evaluates the noise operator at the left endpoint of every step, as the
stochastic integral's predictability requires.

Ensembles are generated in fixed batches of paths. Batch b always draws
from the generator seeded with [seed, b] and fills its own rows, so
results are reproducible bit for bit, and the same batches feed the
batch-means standard errors. Contiguous runs of batches go to one
process per CPU of the process's affinity (`_fanout`), which fill their
rows of an ensemble in shared memory; the ensemble is the same bit for
bit whatever the number of processes.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._fanout import fan_out, split, workers
from .levy import NoiseModel, sample_increments
from .noise_map import AffineNoiseMap, check_compatible, g_apply
from .spectral import SpectralModel

__all__ = [
    "Ensemble",
    "MomentEstimate",
    "simulate_ensemble",
    "estimate_moments",
    "weak_identity_residual",
    "ito_isometry_check",
]

BATCHES = 32  # batch count of every ensemble with at least that many paths


@dataclass(frozen=True)
class Ensemble:
    """Simulated paths on a uniform grid."""

    paths: np.ndarray  # (P, K+1, N)

    def __post_init__(self) -> None:
        p = np.asarray(self.paths, dtype=float)
        if p.ndim != 3 or p.shape[0] < 1:
            raise ValueError("paths must be a (P, K+1, N) array with P >= 1")
        if not np.all(np.isfinite(p)):
            raise ValueError("paths must be finite")
        object.__setattr__(self, "paths", p)

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def batches(self) -> int:
        """Number of batches the paths were generated in, and over which
        estimate_moments takes its standard errors."""
        return min(BATCHES, self.n_paths)


def _batch_bounds(paths: int) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of the min(BATCHES, paths) batches of an
    ensemble, in order; the first paths mod nb batches hold one path more."""
    return split(paths, min(BATCHES, paths))


def _shared_empty(shape: tuple[int, ...]) -> np.ndarray:
    """A float64 array of `shape` in anonymous shared memory, so that the
    rows a forked worker writes are the rows its parent reads."""
    count = math.prod(shape)
    return np.frombuffer(mmap.mmap(-1, 8 * count), count=count).reshape(shape)


def estimate_bytes(paths: int, width: int) -> int:
    """Peak bytes that estimate_moments allocates for `paths` paths of
    `width` recorded values each, beyond the paths themselves.

    With nb batches and D = width, the peak falls in the spread of the
    per-batch covariances: the nb x D x D per-batch second moments and
    covariances, whose deviations are formed in place, the D x D moment,
    covariance and first standard error, and two D x D temporaries (the
    batch sum and its quotient by nb, then the squared sum and its
    quotient by nb - 1), (2 nb + 5) D^2 float64 in all; beside them the
    (nb + 2) D per-batch and total means and the mean's standard error,
    and 4 KiB for the interpreter objects the call creates. On a grid so
    small that nb D^2 falls below numpy's 8192-element iteration buffer,
    that buffer can add some ten kB more.
    """
    nb = min(BATCHES, paths)
    return ((2 * nb + 5) * width + nb + 2) * width * 8 + 2**12


def simulate_ensemble(
    model: SpectralModel,
    noise: NoiseModel,
    gmap: AffineNoiseMap,
    x0_mean: np.ndarray,
    steps: int,
    paths: int,
    seed: int,
    x0_cov: Optional[np.ndarray] = None,
    substeps: int = 1,
    return_increments: bool = False,
):
    """Simulate an ensemble of independent paths.

    The recording grid has `steps` intervals; each is advanced with
    `substeps` internal scheme steps, which refines the time stepping
    without enlarging the stored grid. Batch b draws from the stream
    [seed, b] and fills its own rows of the ensemble. The batches are
    spread over workers(batches) processes in contiguous runs; with more
    than one, the paths (and increments) live in shared memory.

    x0_cov, when given, samples Gaussian initial values with that
    covariance around x0_mean; otherwise the initial value is the
    deterministic vector x0_mean.
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
        if not np.allclose(cov, cov.T, atol=1e-12 * max(1.0, float(np.abs(cov).max()))):
            raise ValueError("initial covariance must be symmetric")
        w, v = np.linalg.eigh(cov)
        if np.any(w < -1e-10 * max(1.0, float(w.max(initial=0.0)))):
            raise ValueError("initial covariance must be positive semidefinite")
        factor = v @ np.diag(np.sqrt(np.clip(w, 0.0, None)))
    if return_increments and substeps != 1:
        raise ValueError("increments can only be returned for substeps == 1")

    bounds = _batch_bounds(paths)
    procs = workers(len(bounds))
    empty = _shared_empty if procs > 1 else np.empty
    all_paths = empty((paths, steps + 1, model.dim))
    all_incs = empty((paths, steps, noise.dim)) if return_increments else None
    dt = model.horizon / (steps * substeps)
    decay = np.exp(-model.eigenvalues * dt)

    def run(batches: tuple[int, int]) -> None:
        for b in range(*batches):
            lo, hi = bounds[b]
            rng = np.random.default_rng([seed, b])
            count = hi - lo
            if factor is None:
                x = np.tile(x0_mean, (count, 1))
            else:
                x = x0_mean + rng.standard_normal((count, model.dim)) @ factor.T
            all_paths[lo:hi, 0] = x
            for k in range(steps):
                for s in range(substeps):
                    dL = sample_increments(noise, dt, count, rng)
                    if all_incs is not None:
                        all_incs[lo:hi, k * substeps + s] = dL
                    x = (x + g_apply(gmap, x, dL)) * decay
                all_paths[lo:hi, k + 1] = x

    fan_out(run, split(len(bounds), procs))

    ens = Ensemble(paths=all_paths)
    if return_increments:
        return ens, all_incs
    return ens


@dataclass(frozen=True)
class MomentEstimate:
    """Sample mean, two-time second moment, and covariance of an ensemble,
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


def estimate_moments(ensemble: Ensemble) -> MomentEstimate:
    """Estimate moments over the ensemble's paths.

    Standard errors come from the spread of the per-batch statistics
    over the same batches the ensemble was generated with. The two-time
    fields hold ((K+1) N)^2 entries each; keep recording grids coarse
    and refine the stepping through substeps instead.
    """
    P = ensemble.n_paths
    if P < 2:
        raise ValueError(f"at least two paths are required, got {P}")
    paths = ensemble.paths
    nodes, dim = paths.shape[1], paths.shape[2]
    D = nodes * dim
    flat = paths.reshape(P, D)

    nb = ensemble.batches
    b_mean = np.empty((nb, D))
    b_m2 = np.empty((nb, D, D))
    b_cov = np.empty((nb, D, D))
    for b, (lo, hi) in enumerate(_batch_bounds(P)):
        chunk = flat[lo:hi]
        b_mean[b] = chunk.mean(axis=0)
        b_m2[b] = chunk.T @ chunk / chunk.shape[0]
        b_cov[b] = b_m2[b] - np.outer(b_mean[b], b_mean[b])

    mean = flat.mean(axis=0)
    m2 = flat.T @ flat / P
    cov = m2 - np.outer(mean, mean)
    mean_se = _batch_error(b_mean)
    m2_se = _batch_error(b_m2)
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
    noise_term = g_apply(gmap, x_left, increments)  # (K, N), left-point integrand
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
