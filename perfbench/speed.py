"""Machine-speed probe: a fixed calibration loop sampled while work runs.

The cores this benchmark is meant for are shared, and their speed drifts by
10-30% over tens of seconds as neighbours come and go. Raw times then differ
more between runs than the regressions the benchmark must catch. So while a
worker runs its timed work, a SIGALRM handler runs a short calibration loop
every INTERVAL_S; each timed interval is scaled by REF_S over the mean
calibration time around it. A reported time is thus the time the work would
take on a machine where the calibration loop takes REF_S. The loop is the
benchmark's own code and does not touch the package, so a change to the
package moves the scaled times exactly as it moves the raw ones. The time
the handler itself spends is subtracted from the interval it lands in.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.25
REF_S = 0.005
_MASK = (1 << 4096) - 1


def calibration_loop() -> int:
    """Interpreter, dict and 4096-bit integer work, like the HT kernel's mix."""
    d = {}
    x = 1
    for i in range(10_000):
        d[i & 255] = i
        x = (x * 3 + i) & _MASK
    return x


class SpeedProbe:
    def __init__(self):
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.spent = 0.0    # seconds spent calibrating so far

    def sample(self, *_signal_args) -> float:
        t0 = perf_counter()
        calibration_loop()
        t1 = perf_counter()
        self.ends.append(t1)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0
        return t1 - t0

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def busy_clock(self) -> float:
        """perf_counter without the time spent calibrating: spans read with
        it hold none of the handler's time."""
        return perf_counter() - self.spent

    def timed(self, fn, *args):
        """Call fn; return its result and (raw busy seconds, scaled seconds)."""
        spent, t0 = self.spent, perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        busy = t1 - t0 - (self.spent - spent)
        return result, (busy, self.scale(t0, t1, busy))

    def scale(self, t0: float, t1: float, busy: float) -> float:
        """busy seconds of work done within [t0, t1], at the reference speed.

        Uses the samples taken inside the interval, or else the nearest one
        on each side of it.
        """
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        window = self.durations[lo:hi] if hi > lo else self.durations[max(lo - 1, 0):lo + 1]
        return busy * REF_S * len(window) / sum(window)
