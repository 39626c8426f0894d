"""Independent parts of one computation, spread over forked processes.

`fan_out(work, parts)` calls `work(part)` for every part: the first in
the calling process, each other in a worker forked from it. A part may
read whatever existed before the fork, and leaves its results where
the caller can read them afterwards: in shared memory or in a file.

The number of processes is `workers(n)` for n parts: one per CPU of the
process's affinity, at most one per part. It is 1, and the work runs in
process, where `os.fork` or `os.sched_getaffinity` is missing or other
threads are running (a fork would copy the locks they hold). No setting
selects it; `taskset -c 0` runs in process.

While more than one process runs, numpy's bundled OpenBLAS is held to
one thread, so the processes do not compete for the CPUs with BLAS
threads, and every process rounds a product as a process on one CPU
does; the thread count it had is restored afterwards. Where numpy's
BLAS has no OpenBLAS thread calls, BLAS is left as it is.
"""

from __future__ import annotations

import functools
import os
import sys
import threading


def _cpus() -> int:
    """CPUs of the process's affinity, or 1 where the process cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def workers(parts: int) -> int:
    """Number of processes that `parts` parts are spread over."""
    if threading.active_count() > 1:
        return 1
    return max(1, min(_cpus(), parts))


def split(count: int, ranges: int) -> list[tuple[int, int]]:
    """Bounds [lo, hi) of `ranges` contiguous ranges of range(count), in
    order; the first count mod ranges hold one element more."""
    base, rem = divmod(count, ranges)
    return [(r * base + min(r, rem), (r + 1) * base + min(r + 1, rem)) for r in range(ranges)]


@functools.cache
def _openblas_threads():
    """The get and set thread-count calls of the OpenBLAS that numpy
    bundles, found through numpy's core extension, which links it; None
    where they are missing."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath

        blas = ctypes.CDLL(_multiarray_umath.__file__)
        get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def fan_out(work, parts: list) -> None:
    """Call work(part) for every part, parts[0] in this process and each
    other in a worker forked for it, with BLAS held to one thread in
    every process when there is more than one part. Every worker has been
    reaped when the call returns or raises: on an exception here,
    including an interrupt, the workers are killed first. A worker that
    raises prints its traceback and exits 1, and the call then raises
    ChildProcessError."""
    pids = []
    finished = False
    blas = _openblas_threads() if len(parts) > 1 else None
    if blas:
        get_threads, set_threads = blas
        threads = get_threads()
        set_threads(1)
    try:
        for part in parts[1:]:
            pid = os.fork()
            if pid == 0:
                _run_worker(work, part)
            pids.append(pid)
        work(parts[0])
        finished = True
    finally:
        failed = _reap(pids, kill=not finished)
        if blas:
            set_threads(threads)
    if failed:
        raise ChildProcessError(f"{failed} of {len(pids)} worker processes failed")


def _run_worker(work, part) -> None:
    """Run one part in a forked worker, which leaves by os._exit only, so
    it never runs the caller's code after the fork."""
    code = 1
    try:
        work(part)
        code = 0
    except BaseException:  # reported here; the exit code carries it to the parent
        import traceback  # only a failing worker needs it

        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap(pids: list[int], kill: bool) -> int:
    """Wait for every worker, killing each first when `kill`. Returns the
    number that exited other than with 0."""
    if kill:
        import signal  # only a failed call needs it

    failed = 0
    for pid in pids:
        if kill:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
        failed += os.waitstatus_to_exitcode(status) != 0
    return failed
