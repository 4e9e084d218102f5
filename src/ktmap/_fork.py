"""Calls run side by side in forked workers, on the CPUs this process may use.

``run(calls)`` returns ``[fn(*args) for fn, *args in calls]``. Where
``forks()`` holds, every call but the last runs in a child made by
``os.fork``, which sends back its ``ktmap`` log records, what the call
returned and the exception it raised, pickled through a pipe, and leaves
by ``os._exit``; the last call runs in this process. Otherwise every call
runs here, in order. The workers are read in call order, which handles
their records here, once each. The exception raised is that of the first
call, in call order, that failed, and only after every worker has been
reaped; a worker that died without a result fails naming its exit status.
A ``BaseException`` here, such as ``KeyboardInterrupt``, kills the workers
at once. ``multiprocessing`` is not used: ``import multiprocessing.pool``
took about 20 ms, which every report would pay.
"""

from __future__ import annotations

import logging
import os
import pickle
import threading
from collections.abc import Callable, Sequence
from typing import NoReturn


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, so taskset holds."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def forks() -> bool:
    """Whether calls may run in forked workers: ``os.fork`` exists, two or
    more CPUs are usable, and no other thread runs (forking then is
    unsafe)."""
    return (hasattr(os, "fork") and usable_cpus() >= 2
            and threading.active_count() == 1)


def processes() -> int:
    """How many calls ``run`` may run side by side: the usable CPUs where
    ``forks()`` holds, else 1."""
    return usable_cpus() if forks() else 1


def run(calls: Sequence[tuple]) -> list:
    """``[fn(*args) for fn, *args in calls]``, run as described above."""
    if not calls or not forks():
        return [fn(*args) for fn, *args in calls]
    *forked, (fn, *args) = calls
    workers: list[_Worker] = []
    try:
        for call in forked:
            workers.append(_Worker(*call))
        try:
            last = fn(*args)
        except Exception:
            for worker in workers:  # an earlier call's error comes first
                worker.result()
            raise
        return [worker.result() for worker in workers] + [last]
    finally:
        for worker in workers:
            worker.kill()


class _Worker:
    """``fn(*args)`` running in a forked worker."""

    def __init__(self, fn: Callable, *args):
        self.pid: int | None = None
        read_fd, write_fd = os.pipe()
        self._pipe = open(read_fd, "rb")
        try:
            pid = os.fork()
            if pid == 0:
                _work(write_fd, fn, args)
            self.pid = pid
        except BaseException:
            self._pipe.close()
            raise
        finally:  # the worker never gets here
            os.close(write_fd)

    def result(self):
        """Wait for the worker and reap it, handle its log records here,
        then return what its call returned or raise what it raised."""
        with self._pipe:
            data = self._pipe.read()
        pid, self.pid = self.pid, None
        status = os.waitpid(pid, 0)[1]
        try:
            records, result, error = pickle.loads(data)
        except Exception:  # the worker died before it sent it all
            raise RuntimeError(
                f"worker {pid} exited with status "
                f"{os.waitstatus_to_exitcode(status)} without a result") from None
        for record in records:
            logging.getLogger(record.name).handle(record)
        if error is not None:
            raise error
        return result

    def kill(self) -> None:
        """Kill the worker and reap it, unless its result was read."""
        import signal  # only here: `import ktmap.cli` does not load it otherwise

        self._pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _work(write_fd: int, fn: Callable, args: tuple) -> NoReturn:
    """The forked worker: run fn(*args), write (log records, result,
    exception) pickled to write_fd, and exit. Records that reach the
    ``ktmap`` logger are kept for the forking process to handle, not
    handled here."""
    code = 1
    try:
        records: list[logging.LogRecord] = []
        top = logging.getLogger("ktmap")
        top.handlers, top.propagate = [_Collector(records)], False
        try:
            data = pickle.dumps((records, fn(*args), None), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            data = pickle.dumps((records, None, exc), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as fh:
            fh.write(data)
        code = 0
    finally:
        os._exit(code)


class _Collector(logging.Handler):
    """Keeps each record it handles in `records`."""

    def __init__(self, records: list[logging.LogRecord]):
        super().__init__()
        self.records = records

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)
