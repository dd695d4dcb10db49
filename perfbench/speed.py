"""Machine-speed probe: scales measured times to a nominal machine speed.

On a shared virtual machine the speed of a core drifts: a fixed
pure-Python loop's 2-s medians range over ±20 % within a minute, and
whole passes by up to 1.7x within a few minutes.  Raw pass times then
measure the machine more than the code.  So, while a pass runs, an
interval timer interrupts it every ``INTERVAL_S`` of wall time to time
a fixed integer loop, the probe.  The samples are uniform in wall time,
so the mean of ``NOMINAL_S / sample`` is the machine's mean speed over
the pass relative to nominal (:meth:`SpeedProbe.factor`).  A pass's
scaled time, its wall time times that factor, is the time it would take
at nominal speed.  A change to fermifields moves the wall time and not
the probe, so it shows in full.

The probe is integer arithmetic only, so the program's heap and caches
barely touch it: probes that build fractions or dicts ran up to twice
as slow inside a pass as outside it, a speed the program's own memory
use would set.  The probe costs about 1 % of a pass; a slow sample (an
interrupt, a collection) lowers the mean speed only by its own share.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.01
# the probe's time inside a pass on a 2-vCPU x86-64 VM with CPython 3.11,
# so that scaled times there read about as wall times
NOMINAL_S = 100e-6


def _probe():
    s = 0
    for i in range(1500):
        s += i * i
    return s


class SpeedProbe:
    """Samples the probe while active; ``with`` it around the timed code."""

    def __init__(self):
        self.samples: list[float] = []
        self._old = None

    def tick(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        _probe()
        self.samples.append(perf_counter() - t0)

    def burst(self, n: int) -> None:
        """Take ``n`` samples now."""
        for _ in range(n):
            self.tick()

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def factor(self) -> float:
        """Mean speed relative to nominal over the samples (> 1: faster)."""
        if not self.samples:  # too short for the timer to fire
            self.burst(10)
        return statistics.fmean(NOMINAL_S / t for t in self.samples)
