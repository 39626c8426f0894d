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
choice would give.
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

    @cached_property
    def jump_size(self) -> float:
        """Common magnitude sqrt((1 - rho) tr(Q) / nu) of every jump."""
        return np.sqrt((1.0 - self.wiener_fraction) * self.trace / self.jump_rate)


def sample_increments(
    noise: NoiseModel, dt: float, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw `count` independent increments over a step of length dt.

    Returns a (count, M) array with zero mean and covariance
    dt * diag(gamma) per row. dt must be positive and finite.
    """
    if not 0.0 < dt < np.inf:  # NaN fails both comparisons
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    rho = noise.wiener_fraction
    out = rng.standard_normal((count, noise.dim))
    out *= np.sqrt(dt * rho * noise.q_eigenvalues)
    if noise.drawn_jump_rate > 0.0:
        counts = rng.poisson(noise.jump_rate * dt, size=count)
        rows = counts.nonzero()[0]
        if rows.size:
            total = int(counts.sum())
            if total > rows.size:  # some path jumps more than once in this step
                rows = rows.repeat(counts[rows])
            modes = noise.jump_cdf.searchsorted(rng.random(total), side="right")
            size = noise.jump_size
            jumps = np.where(rng.integers(0, 2, size=total), size, -size)
            # a (row, mode) pair hit twice takes its jumps in sequence
            np.add.at(out, (rows, modes), jumps)
    return out

