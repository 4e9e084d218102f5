"""How fast the host ran while a timed call ran, and times scaled by it.

On a shared host each virtual CPU alternates, independently and for seconds
to minutes at a time, between full speed and up to about 2x slower (a busy
neighbour on the same physical core, or a lower clock). The guest cannot see
this, and it moves the median report time of whole runs by +-20%.

`SpeedSampler` times a fixed ~0.3 ms probe of pure-Python dict work from a
SIGALRM handler every 50 ms while the call runs, on whatever CPU the call
runs on. Their mean tracks the slow-down the call saw (correlation 0.93-0.97
over repeated reports on a 2-core VM). `at_reference` scales a time by
``REFERENCE_PROBE_S`` over that mean, giving seconds on a CPU that runs the
probe at the reference speed. The probe never touches ktmap, so a change to
ktmap moves scaled times exactly as much as raw ones. The handler costs
about 1% of the call's time.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.05
# Mean probe time inside a report on a quiet core of the 2-core Xeon VM the
# benchmark was tuned on; scaled times are seconds on a core of that speed.
REFERENCE_PROBE_S = 0.0004


def _probe() -> int:
    """Fixed pure-Python dict work; builtins only, safe in a handler."""
    table: dict[int, int] = {}
    for i in range(2000):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + i
    return len(sorted(table.values()))


class SpeedSampler:
    """Mean probe time over the wall-clock interval from start() to stop()."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, *_args) -> None:
        t0 = time.perf_counter()
        _probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a call shorter than one interval
            self._sample()
        return sum(self.samples) / len(self.samples)


def at_reference(seconds: float, probe_s: float) -> float:
    """`seconds` measured while the probe took `probe_s` on average, scaled
    to a CPU that runs the probe in ``REFERENCE_PROBE_S``."""
    return seconds * REFERENCE_PROBE_S / probe_s
