"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on share their cores: the speed of the same
pure-Python loop swings by up to 2x within seconds, and a qvertex job swings
with it.  So the benchmark samples host speed all through a deck: an interval
timer interrupts the running job every INTERVAL_S and times a short probe, a
fixed pure-Python kernel that shares no code with qvertex.  Each job's time,
less the probes that ran inside it, is reported in *reference seconds*: the
seconds the job would take on a host that runs the probe in NOMINAL_S, using
the probes taken during the job and the nearest one on either side.  Work in
qvertex that gets faster lowers the job time but not the probe time; a host
that gets slower raises both.  Raw wall times are printed beside the
reference ones.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

NOMINAL_S = 0.004  # probe time on the reference host
INTERVAL_S = 0.1


def probe() -> float:
    """Seconds the calibration kernel takes now: dict, tuple and Fraction work.

    The collector is off while it runs: a collection set off by the probe's
    allocations would do the interrupted job's work and be subtracted from it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        d: dict = {}
        s = Fraction(0)
        for k in range(1000):
            key = (k % 97, k % 13)
            d[key] = d.get(key, 0) + k
            s += Fraction(k % 7, 1 + k % 5)
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class HostSpeed:
    """Probes taken by an interval timer while a deck runs (a context manager).

    Only the main thread of a process may use it: the probe runs in the
    SIGALRM handler.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, probe seconds)
        self.spent = 0.0  # seconds spent in probes so far

    def _sample(self, *_):
        p = probe()
        self.spent += p
        self.samples.append((time.perf_counter(), p))

    def __enter__(self):
        self._sample()
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()

    def factor(self, start: float, end: float) -> float:
        """NOMINAL_S over the mean probe time from the last probe before start
        to the first probe after end."""
        times = [t for t, _ in self.samples]
        lo = max((i for i, t in enumerate(times) if t <= start), default=0)
        hi = min((i for i, t in enumerate(times) if t >= end), default=len(times) - 1)
        near = [p for _, p in self.samples[lo:hi + 1]]
        return NOMINAL_S * len(near) / sum(near)


def reference_seconds(work) -> tuple[float, object]:
    """Run work() under probes; returns (its reference seconds, its result)."""
    probe()  # warm-up
    with HostSpeed() as host:
        spent, t0 = host.spent, time.perf_counter()
        result = work()
        t1 = time.perf_counter()
        raw = t1 - t0 - (host.spent - spent)
    return raw * host.factor(t0, t1), result
