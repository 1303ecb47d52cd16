"""Machine-speed reference: times rescaled to a nominal CPU speed.

The host this benchmark was built on is shared; the speed of a vCPU swings
by 20-40 % within seconds as neighbours load its sibling hyperthread, so raw
wall times of the same code spread by ~30 % between 20-second runs.  While
a ``Speedometer`` is active, a real-time timer runs a fixed pure-Python
reference loop every ``PERIOD_S`` and records how long it took.  An
interval [a, b] is then reported as its busy time (the reference ticks
inside it removed) scaled by the mean of ``REF_S / reference time`` over the
ticks near it: the seconds the interval would have taken at the speed at
which the reference loop takes ``REF_S``.  Ticks are evenly spaced in wall
time, so the mean weights each speed state by how long it lasted; ticks
slower than twice the median (the reference loop itself was preempted)
are dropped.

The reference loop does what colouralg's hot paths do (small tuples, a
generator expression, modular arithmetic, dict updates) rather than bare
integer arithmetic: a bare loop tracked the host's slowdowns only partly.
A change that makes colouralg faster shrinks the interval and leaves the
reference alone; a slower host slows both.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
REF_ITERS = 400
REF_S = 0.0005  # nominal duration of one reference loop


def _reference_loop():
    acc = 0
    seen = {}
    for i in range(REF_ITERS):
        t = (i % 7, (i * 3) % 7, (i * 5) % 7)
        u = tuple((a * b + 1) % 7 for a, b in zip(t, t[::-1]))
        seen[u] = seen.get(u, 0) + 1
        acc += u[0]
    return acc


class Speedometer:
    """Context manager sampling the reference loop; see the module doc."""

    def __init__(self):
        self.starts = []
        self.durations = []

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick()

    def _tick(self, *_):
        t = time.perf_counter()
        _reference_loop()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def seconds(self, a: float, b: float) -> float:
        """Nominal-speed duration of the interval between perf_counter
        stamps ``a`` and ``b``."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        busy = b - a - sum(d for t, d in zip(self.starts[lo:hi], self.durations[lo:hi]) if t + d <= b)
        wlo = bisect.bisect_left(self.starts, a - PERIOD_S)
        whi = bisect.bisect_right(self.starts, b + PERIOD_S)
        window = self.durations[wlo:whi]
        if not window:
            i = min(max(lo, 1), len(self.durations)) - 1
            window = [self.durations[i]]
        cut = 2 * statistics.median(window)
        factor = statistics.fmean(REF_S / d for d in window if d <= cut)
        return max(busy, 0.0) * factor
