"""ktmap._fork.run: calls side by side in forked workers, or in order here."""

import os
import time

import pytest

from ktmap import _fork

from conftest import assert_no_child_left


def pid_and(value):
    return os.getpid(), value


def fail(message):
    raise ValueError(message)


def die(code):
    os._exit(code)


def interrupt():
    raise KeyboardInterrupt


class TestRun:
    def test_results_in_call_order(self, cpus):
        workers = cpus(3)
        got = _fork.run([(pid_and, i) for i in range(3)])
        assert [value for _, value in got] == [0, 1, 2]
        assert [pid for pid, _ in got] == [*workers, os.getpid()]
        assert_no_child_left()

    def test_no_calls(self, cpus):
        workers = cpus(3)
        assert _fork.run([]) == []
        assert _fork.run([(pid_and, 0)]) == [(os.getpid(), 0)]
        assert not workers

    @pytest.mark.parametrize("failing, raised", [
        ([0], "call 0"),            # a worker
        ([2], "call 2"),            # this process, after both workers are read
        ([1, 2], "call 1"),         # a worker's error before this process's
        ([0, 1, 2], "call 0"),
    ])
    def test_first_error_in_call_order(self, cpus, failing, raised):
        workers = cpus(3)
        calls = [(fail, f"call {i}") if i in failing else (pid_and, i) for i in range(3)]
        with pytest.raises(ValueError, match=f"^{raised}$"):
            _fork.run(calls)
        assert len(workers) == 2
        assert_no_child_left()

    def test_workers_after_a_failed_one_are_killed(self, cpus):
        cpus(3)
        start = time.monotonic()
        with pytest.raises(ValueError, match="^call 0$"):
            _fork.run([(fail, "call 0"), (time.sleep, 60), (pid_and, 2)])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_base_exception_here_kills_the_workers(self, cpus):
        cpus(3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _fork.run([(time.sleep, 60), (time.sleep, 60), (interrupt,)])
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_one_cpu_runs_here_in_order_to_the_first_error(self, cpus):
        workers = cpus(1)
        ran = []
        with pytest.raises(ValueError, match="^call 1$"):
            _fork.run([(ran.append, 0), (fail, "call 1"), (ran.append, 2)])
        assert ran == [0]
        assert _fork.run([(pid_and, i) for i in range(3)]) == [
            (os.getpid(), i) for i in range(3)]
        assert not workers
        assert _fork.processes() == 1

    def test_processes(self, cpus):
        cpus(3)
        assert _fork.processes() == 3

    def test_worker_dying_without_result(self, cpus):
        cpus(2)
        with pytest.raises(RuntimeError, match="exited with status 7 without a result"):
            _fork.run([(die, 7), (pid_and, 1)])
        assert_no_child_left()
