"""Spans around calls into the package, recorded from outside it.

A span wraps one public function in the namespace where its caller looks
it up (``spde_moments.cli.picard_solve_second_moment``, say), so the
package itself is never edited. Wrappers hand every argument and result
through unchanged. Only single-threaded runs are traced: the span stack
is one list.

Each event (span entry or exit) charges the time and the rise of the
process high-water mark since the previous event to the span on top of
the stack. Self times and rises therefore partition the traced interval;
whatever is charged to no span (interpreter start, imports, exit) is the
root's self time, which the parent process computes from its own
launch-to-exit clock.
"""

from __future__ import annotations

import functools
import resource
import time
from collections import defaultdict

# function name -> layer; the span is named "<layer>.<function>"
LAYER_OF = {
    "main": "cli",
    "load_config": "config",
    "parse_config": "config",
    "build_model": "config",
    "build_noise": "config",
    "build_gmap": "config",
    "initial_law": "config",
    "assemble_per_mode": "pg",
    "solve_mean": "pg",
    "rhs_second_moment": "pg",
    "rhs_covariance": "pg",
    "picard_solve_second_moment": "pg",
    "solve_covariance": "pg",
    "discrete_inf_sup": "pg",
    "per_mode_inf_sup": "pg",
    "per_mode_operator_bound": "pg",
    "lyapunov_solve": "oracle",
    "mean_exact": "oracle",
    "two_time_extend": "oracle",
    "noise_quadratic_form": "oracle",
    "simulate_ensemble": "mc",
    "estimate_moments": "mc",
    "g_apply": "mc",
    "sample_increments": "levy",
}

MIB = 2.0 ** 20


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _picard_counts(counts: dict, args, kwargs, result) -> None:
    counts["pg.picard_iterations"] += result.iterations
    system = args[0] if args else kwargs["system"]
    # one dense (K, N, K, N) float64 field, whatever the solver stores
    counts["pg.field_mb"] = (system.grid.steps * system.n_modes) ** 2 * 8 / MIB


def _sample_counts(counts: dict, args, kwargs, result) -> None:
    counts["mc.path_steps"] += result.shape[0]  # one row per path


def _estimate_counts(counts: dict, args, kwargs, result) -> None:
    ensemble = args[0] if args else kwargs["ensemble"]
    batches = min(ensemble.batches, ensemble.n_paths)
    width = ensemble.paths.shape[1] * ensemble.paths.shape[2]
    # the per-batch second-moment and covariance buffers, nb x D x D each
    counts["mc.batch_buffer_mb"] = 2 * batches * width * width * 8 / MIB


COUNT_HOOKS = {
    "picard_solve_second_moment": _picard_counts,
    "solve_covariance": _picard_counts,
    "sample_increments": _sample_counts,
    "estimate_moments": _estimate_counts,
}


class Tracer:
    """Span recorder; create one per traced process and install it once."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.rss_rise_kib: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(int)
        self._last_t = time.monotonic()
        self._last_rss = _maxrss_kib()

    def _charge(self) -> float:
        now, rss = time.monotonic(), _maxrss_kib()
        if self.stack:
            top = self.stack[-1]
            self.self_s[top] += now - self._last_t
            self.rss_rise_kib[top.split(".", 1)[0]] += rss - self._last_rss
        self._last_t, self._last_rss = now, rss
        return now

    def wrap(self, module, attr: str) -> None:
        """Replace module.attr by a span around the original function."""
        fn = getattr(module, attr)
        layer = LAYER_OF[attr]
        name = f"{layer}.{attr}"
        hook = COUNT_HOOKS.get(attr)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            start = self._charge()
            self.stack.append(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self._charge()
                self.stack.pop()
                self.calls[name] += 1
                self.incl_s[name] += end - start
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        setattr(module, attr, span)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "incl_s": self.incl_s[name],
                       "self_s": self.self_s[name]}
                for name in sorted(self.calls)
            },
            "rss_rise_mb": {k: v / 1024.0 for k, v in sorted(self.rss_rise_kib.items())},
            "counts": dict(self.counts),
        }


def install_setup_mark(module, attrs: list[str]) -> dict:
    """Untraced runs: record only the first call into a solver function.

    Returns the dict that receives the time under "setup_mark".
    """
    marks: dict = {}
    for attr in attrs:
        fn = getattr(module, attr)

        def first_call(*args, _fn=fn, **kwargs):
            marks.setdefault("setup_mark", time.monotonic())
            return _fn(*args, **kwargs)

        setattr(module, attr, functools.wraps(fn)(first_call))
    return marks
