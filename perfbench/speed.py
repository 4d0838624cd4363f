"""Machine-speed sampling, used to rescale measured times.

The CPU a shared machine gives a process varies from second to second
and from minute to minute. On the 2-vCPU Xeon VM where this benchmark
was written, a fixed loop's throughput ranged over +-25% within a
minute, and the same study ran 1.7x slower five minutes later; CPU time
tracked wall time, so this was contention, not steal.

A timer signal therefore interrupts the measured code every
``INTERVAL_S`` and runs a fixed reference loop (interpreted arithmetic
and small numpy calls) for about ``CHUNK_S``. Each operation's time,
less the reference time spent inside it, is multiplied by the reference
rate measured during it and divided by ``REF_UNITS_PER_S``: the result
is the time the operation would take on a machine that runs the
reference at that nominal rate. The reference calls no library code, so
a change to the library moves rescaled times in the same proportion as
raw ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
CHUNK_S = 0.01
# reference units per second on the machine the benchmark was written on;
# it only sets the scale of the rescaled times
REF_UNITS_PER_S = 20000.0


_X = np.linspace(0.01, 0.99, 64)


def _unit() -> float:
    """One unit of reference work: interpreted arithmetic and small numpy calls,
    the two kinds of work the library's hot paths are made of."""
    s = 0.0
    for i in range(50):
        s += math.log(i + 1.5) * (i & 7)
    for i in range(5):
        s += float(np.sum(np.log1p(-_X)))
    return s


class SpeedSampler:
    """Samples the reference rate on SIGALRM while started."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.rates: list[float] = []

    def _sample(self, _signum, _frame) -> None:
        clock = time.perf_counter
        t0 = t1 = clock()
        units = 0
        while t1 - t0 < CHUNK_S:
            _unit()
            units += 1
            t1 = clock()
        self.starts.append(t0)
        self.ends.append(t1)
        self.rates.append(units / (t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def rescale(self, a: float, b: float) -> tuple[float, float]:
        """(active, rescaled) seconds of the ``perf_counter`` interval [a, b].

        Active time leaves out the reference samples taken inside it.
        """
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.ends, b)
        paused = sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        if hi > lo:
            rate = statistics.fmean(self.rates[lo:hi])
        elif self.rates:  # no sample inside: use the nearest one
            mid = 0.5 * (a + b)
            j = bisect.bisect_left(self.starts, mid)
            near = [k for k in (j - 1, j) if 0 <= k < len(self.starts)]
            k = min(near, key=lambda k: abs(self.starts[k] + self.ends[k] - 2 * mid))
            rate = self.rates[k]
        else:
            rate = REF_UNITS_PER_S
        active = b - a - paused
        return active, active * rate / REF_UNITS_PER_S
