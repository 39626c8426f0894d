import mmap
import os
import threading
import time

import numpy as np
import pytest

from spde_moments import _fanout


def shared_pids(parts):
    """One int64 slot per part in anonymous shared memory."""
    return np.frombuffer(mmap.mmap(-1, 8 * parts), dtype=np.int64)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    def test_one_process_per_cpu_and_at_most_one_per_part(self, monkeypatch):
        monkeypatch.setattr(_fanout, "_cpus", lambda: 3)
        assert [_fanout.workers(n) for n in (0, 1, 2, 3, 32)] == [1, 1, 2, 3, 3]
        monkeypatch.setattr(_fanout, "_cpus", lambda: 1)
        assert _fanout.workers(32) == 1

    def test_affinity_sets_the_count(self):
        assert _fanout._cpus() == len(os.sched_getaffinity(0))

    def test_another_running_thread_keeps_the_work_in_process(self, monkeypatch):
        monkeypatch.setattr(_fanout, "_cpus", lambda: 3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(30,))
        thread.start()
        try:
            assert _fanout.workers(32) == 1
        finally:
            release.set()
            thread.join(timeout=30)
        assert not thread.is_alive()
        assert _fanout.workers(32) == 3

    def test_split_covers_the_range_in_order(self):
        assert _fanout.split(32, 3) == [(0, 11), (11, 22), (22, 32)]
        assert _fanout.split(2, 3) == [(0, 1), (1, 2), (2, 2)]
        for count, ranges in ((200, 32), (7, 7), (1, 1)):
            bounds = _fanout.split(count, ranges)
            assert bounds[0][0] == 0 and bounds[-1][1] == count
            assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
            assert max(h - l for l, h in bounds) - min(h - l for l, h in bounds) <= 1


class TestFanOut:
    def test_each_part_after_the_first_runs_in_its_own_worker(self):
        pids = shared_pids(4)

        def work(part):
            pids[part] = os.getpid()

        _fanout.fan_out(work, [0, 1, 2, 3])
        assert pids[0] == os.getpid()
        assert len(set(pids.tolist())) == 4
        assert_no_child_left()

    def test_a_failing_worker_makes_the_call_raise(self, capfd):
        pids = shared_pids(3)

        def work(part):
            pids[part] = os.getpid()
            if part == 2:
                raise ValueError("part 2 failed")

        with pytest.raises(ChildProcessError, match="1 of 2 worker processes failed"):
            _fanout.fan_out(work, [0, 1, 2])
        assert_no_child_left()
        assert np.all(pids > 0)  # the other parts ran to their end
        assert "ValueError: part 2 failed" in capfd.readouterr().err

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_an_exception_here_kills_and_reaps_the_workers(self, error):
        def work(part):
            if part == 0:
                raise error("stop")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(error, match="stop"):
            _fanout.fan_out(work, [0, 1, 2])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_one_part_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("a process was forked")

        monkeypatch.setattr(os, "fork", no_fork)
        seen = []
        _fanout.fan_out(seen.append, ["only"])
        assert seen == ["only"]


class TestBlasThreads:
    @pytest.mark.skipif(_fanout._openblas_threads() is None, reason="no OpenBLAS thread calls")
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_held_to_one_while_processes_run_then_restored(self, parts):
        get, set_threads = _fanout._openblas_threads()
        before = get()
        set_threads(2)
        seen = shared_pids(parts)

        def work(part):
            seen[part] = get()

        def stop(part):
            if part == 0:
                raise ValueError("stop")

        try:
            _fanout.fan_out(work, list(range(parts)))
            assert get() == 2
            # one part, alone in this process, is held to one thread too
            assert seen.tolist() == [1] * parts
            # the count is restored when the call raises too
            with pytest.raises(ValueError, match="stop"):
                _fanout.fan_out(stop, list(range(parts)))
            assert get() == 2
        finally:
            set_threads(before)
        assert_no_child_left()

    @pytest.mark.skipif(_fanout._openblas_threads() is None, reason="no OpenBLAS thread calls")
    def test_overlapping_calls_from_two_threads_restore_the_count(self):
        # A enters, B enters, A leaves, B leaves: B is still held to one
        # thread after A has left, and the count A found is back at the end
        get, set_threads = _fanout._openblas_threads()
        before = get()
        set_threads(2)
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def first(part):
            a_in.set()
            assert b_in.wait(30)
            seen["a"] = get()

        def second(part):
            b_in.set()
            assert a_out.wait(30)
            seen["b"] = get()

        def run_first():
            _fanout.fan_out(first, [0])
            a_out.set()

        threads = [threading.Thread(target=run_first),
                   threading.Thread(target=_fanout.fan_out, args=(second, [0]))]
        try:
            threads[0].start()
            assert a_in.wait(30)
            threads[1].start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert seen == {"a": 1, "b": 1}
            assert get() == 2
        finally:
            set_threads(before)

    def test_missing_thread_calls_leave_blas_as_it_is(self, monkeypatch):
        monkeypatch.setattr(_fanout, "_openblas_threads", lambda: None)
        pids = shared_pids(2)

        def work(part):
            pids[part] = os.getpid()

        _fanout.fan_out(work, [0, 1])
        assert len(set(pids.tolist())) == 2
        assert_no_child_left()
