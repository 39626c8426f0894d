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

sample_increments also draws for several generators at once, each
making the calls of its own draw in the same order, and stacks their
rows. Monte Carlo steps its batches in lockstep groups this way: the
draws of a batch are its own, but the scaling and the jump placement,
each with a fixed cost per call, run once a group. Each generator's
normals are drawn into an array of their own and copied into the
result by one concatenate, whatever the result's layout, so that one
path serves every caller.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
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
        increments over a step of length dt. The scale of the last dt
        asked for is kept, as Monte Carlo asks for one dt on every step."""
        last = self.__dict__.get("_wiener_scale")
        if last is None or last[0] != dt:
            scale = np.sqrt(dt * self.wiener_fraction * self.q_eigenvalues)
            scale.setflags(write=False)
            last = self.__dict__["_wiener_scale"] = dt, scale
        return last[1]

    @cached_property
    def jump_size(self) -> float:
        """Common magnitude sqrt((1 - rho) tr(Q) / nu) of every jump."""
        return np.sqrt((1.0 - self.wiener_fraction) * self.trace / self.jump_rate)


def sample_increments(
    noise: NoiseModel, dt: float, count: int | Sequence[int],
    rng: np.random.Generator | Sequence[np.random.Generator], out: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `count` independent increments over a step of length dt.

    Returns a (count, M) array with zero mean and covariance
    dt * diag(gamma) per row. dt must be positive and finite.

    count and rng may also be sequences of equal length: counts[i] rows
    then come from rngs[i], stacked in order into one (sum(counts), M)
    array. Each generator makes the calls a call of its own would make,
    in the same order (its normals and Poisson counts, then, where its
    paths jump, its jump uniforms and signs), so its rows are bit for bit
    those of its own call and it is left in the same state; the scaling
    and the placing of the jumps run once for all rows. out, when given,
    is a float64 array of the result's shape that receives the
    increments and is returned; it may be the transpose of an (M, rows)
    buffer, whose rows the scaling then runs along. The normals reach
    `out` by one copy, in any layout.
    """
    if not 0.0 < dt < np.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if isinstance(rng, np.random.Generator):
        count, rng = [count], [rng]
    if len(count) != len(rng) or not rng:
        raise ValueError(f"{len(count)} counts for {len(rng)} generators")
    if min(count) < 1:
        raise ValueError(f"count must be positive, got {min(count)}")
    total, dim = sum(count), noise.dim
    if out is None:
        out = np.empty((total, dim))
    elif out.shape != (total, dim):
        raise ValueError(f"out must have shape {(total, dim)}, got {out.shape}")
    jumping = noise.drawn_jump_rate > 0.0
    normals, hits = [], []  # per generator: normals to copy, Poisson jump counts
    for r, c in zip(rng, count):
        normals.append(r.standard_normal((c, dim)))
        if jumping:
            hits.append(r.poisson(noise.jump_rate * dt, size=c))
    np.concatenate(normals, out=out)
    out *= noise.wiener_scale(dt)
    if jumping:
        hits = _stacked(hits)
        rows = hits.nonzero()[0]
        if rows.size:
            totals = np.add.reduceat(hits, [0, *itertools.accumulate(count[:-1])]).tolist()
            if sum(totals) > rows.size:  # some path jumps more than once in this step
                rows = rows.repeat(hits[rows])
            uniforms, signs = [], []
            for r, jumps in zip(rng, totals):
                if jumps:
                    uniforms.append(r.random(jumps))
                    signs.append(r.integers(0, 2, size=jumps))
            modes = noise.jump_cdf.searchsorted(_stacked(uniforms), side="right")
            size = noise.jump_size
            jumps = np.array((-size, size)).take(_stacked(signs))
            # a (row, mode) pair hit twice takes its jumps in sequence
            np.add.at(out, (rows, modes), jumps)
    return out


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    """The draws of several generators end to end; the one generator's
    own array, not a copy, when there is one."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
