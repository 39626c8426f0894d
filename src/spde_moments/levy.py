"""Square-integrable zero-mean Levy driver with prescribed covariance.

The driver lives on a truncated noise space of M modes and decomposes
into a Wiener part and a compensated compound Poisson part. Each
covariance eigenvalue gamma_m is split between the two parts by the
wiener_fraction rho, so that the total increment covariance over a step
of length dt is exactly dt * diag(gamma) for every (rho, jump_rate).

Jumps have symmetric two-point distributed sizes, so they are mean zero
and no compensator drift is needed. The jump mode is drawn proportional
to gamma_m, and the common squared jump size (1 - rho) * tr(Q) / nu
makes the jump part carry its covariance share exactly.

The jump law (trace, mode cdf and jump size) is computed once per
NoiseModel and cached on it. Modes are drawn by searching that cdf with
uniform draws, which is what Generator.choice(p=gamma / tr(Q)) does, so
the random stream, and every increment drawn from it, is the one
choice would give. The jump law is read only where jumps are drawn: at
rho = 1 with nu = 0 the jump size would divide by zero.

sample_increments also draws a run of steps at once, into a (steps,
count, M) array: each step makes the calls of a call of its own, in
the same order, so the run is bit for bit those calls' increments and
leaves the generator where they leave it, while the scaling and the
placing of the jumps run once a run. Monte Carlo draws each batch's
increments a run of steps ahead this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "NoiseModel",
    "sample_increments",
]


@dataclass(frozen=True)
class NoiseModel:
    """Covariance eigenvalues plus the Wiener / jump decomposition.

    q_eigenvalues: nonnegative eigenvalues gamma_m of the covariance
        operator in its eigenbasis (zero entries are inactive modes).
    wiener_fraction: share rho in [0, 1] of each gamma_m carried by the
        Wiener part.
    jump_rate: expected jumps per unit time; must be positive whenever
        rho < 1 so the jump part can carry its covariance share.
    """

    q_eigenvalues: np.ndarray
    wiener_fraction: float = 1.0
    jump_rate: float = 0.0

    def __post_init__(self) -> None:
        gamma = np.atleast_1d(np.asarray(self.q_eigenvalues, dtype=float))
        if gamma.ndim != 1 or gamma.size == 0:
            raise ValueError("q_eigenvalues must form a nonempty 1-d sequence")
        if not np.all(np.isfinite(gamma)) or np.any(gamma < 0.0):
            raise ValueError("q_eigenvalues must be finite and nonnegative")
        rho = float(self.wiener_fraction)
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"wiener_fraction must lie in [0, 1], got {rho}")
        nu = float(self.jump_rate)
        if not (np.isfinite(nu) and nu >= 0.0):
            raise ValueError(f"jump_rate must be nonnegative, got {nu}")
        if rho < 1.0 and nu <= 0.0:
            raise ValueError("jump_rate must be positive when wiener_fraction < 1")
        gamma.setflags(write=False)
        object.__setattr__(self, "q_eigenvalues", gamma)
        object.__setattr__(self, "wiener_fraction", rho)
        object.__setattr__(self, "jump_rate", nu)

    @property
    def dim(self) -> int:
        return int(self.q_eigenvalues.size)

    @cached_property
    def trace(self) -> float:
        return float(np.sum(self.q_eigenvalues))

    @cached_property
    def jump_cdf(self) -> np.ndarray:
        """Cumulative law of the jump mode, built as Generator.choice
        builds it from p = gamma / tr(Q)."""
        cdf = (self.q_eigenvalues / self.trace).cumsum()
        cdf /= cdf[-1]
        cdf.setflags(write=False)
        return cdf

    @cached_property
    def drawn_jump_rate(self) -> float:
        """Expected jumps per unit time that sample_increments draws:
        jump_rate, or 0 where the jump part carries no covariance
        (rho = 1 or tr(Q) = 0) and no jump is drawn."""
        return self.jump_rate if self.wiener_fraction < 1.0 and self.trace > 0.0 else 0.0

    def wiener_scale(self, dt: float) -> np.ndarray:
        """Standard deviations sqrt(dt rho gamma_m) of the Wiener part's
        increments over a step of length dt."""
        return np.sqrt(dt * self.wiener_fraction * self.q_eigenvalues)

    @cached_property
    def jump_size(self) -> float:
        """Common magnitude sqrt((1 - rho) tr(Q) / nu) of every jump."""
        return np.sqrt((1.0 - self.wiener_fraction) * self.trace / self.jump_rate)


def sample_increments(
    noise: NoiseModel, dt: float, count: int, rng: np.random.Generator,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `count` independent increments over a step of length dt.

    Returns a (count, M) array with zero mean and covariance
    dt * diag(gamma) per row. dt must be positive and finite.

    out, when given, is a C-ordered float64 (steps, count, M) array that
    receives the increments of a run of steps and is returned. Step s of
    the run is bit for bit what the s-th of as many one-step calls
    returns, and rng is left in the same state: each step draws its
    normals, then its Poisson counts, then, where its paths jump, its
    jump uniforms and signs, as one call does. The scaling and the
    placing of the jumps run once for the run, and without a jump part
    one standard_normal call fills it.
    """
    if not 0.0 < dt < np.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    if out is None:
        return sample_increments(noise, dt, count, rng, np.empty((1, count, noise.dim)))[0]
    if (out.ndim != 3 or out.shape[1:] != (count, noise.dim) or out.dtype != np.float64
            or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-ordered float64 array of shape (steps, {count}, "
                         f"{noise.dim}), got {out.dtype} {out.shape}")
    uniforms, signs = [], []
    if noise.drawn_jump_rate > 0.0:
        rate = noise.jump_rate * dt
        hits = np.empty(out.shape[:2], dtype=np.int64)  # Poisson jump counts, steps by paths
        for normals, hit in zip(out, hits):
            rng.standard_normal(out=normals)
            hit[...] = rng.poisson(rate, size=count)
            jumps = int(hit.sum())
            if jumps:
                uniforms.append(rng.random(jumps))
                signs.append(rng.integers(0, 2, size=jumps))
    else:
        rng.standard_normal(out=out)
    out *= noise.wiener_scale(dt)
    if uniforms:
        hits = hits.ravel()  # row step * count + path of out taken as (steps * count, M)
        rows = hits.nonzero()[0]
        rows = rows.repeat(hits[rows])  # a path's row once for each of its jumps in the step
        modes = noise.jump_cdf.searchsorted(np.concatenate(uniforms), side="right")
        size = noise.jump_size
        jumps = np.array((-size, size)).take(np.concatenate(signs))
        # a (row, mode) pair hit twice takes its jumps in sequence
        np.add.at(out.reshape(-1, noise.dim), (rows, modes), jumps)
    return out
