"""The machine's speed, measured while the benchmark runs, and a clock
that counts time at a fixed reference speed.

On a shared host the same pure-Python work can take twice as long from
one few-second stretch to the next, because neighbours on the host
compete for the core (see README, *Spread*).  Steal time stays near 0,
so the kernel does not show it; only timing a fixed piece of work does.

`probe()` is that fixed work: a sparse product of two small polynomials
held as dicts from exponent tuples to ints, and a dot product of
Fractions, the kind of Python the library spends its time in.  It uses
nothing from `dilatations`, so a change to the library cannot change the
probe.  `REF_PROBE_S` is a fixed unit: about the probe's time on a
2.1 GHz Xeon vCPU with Python 3.11.7 while no neighbour competes for
its core.

`SpeedClock` runs the probe from a SIGALRM handler every `INTERVAL_S`
of wall time while a pass runs, twice, timing the second run so that
the pass's own use of the caches does not count.  Each stretch of work
between two probes counts as its seconds times REF_PROBE_S / (the probe
time at the stretch's start); the probes' own time is not counted.  `now()` is that
total so far, in reference seconds: the time the pass would have taken
at the reference speed.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.1
REF_PROBE_S = 0.00095

_A = {(i, j, k): (7 * i + 3 * j + k) % 11 + 1 for i in range(4) for j in range(4) for k in range(3)}
_B = {(i, j, k): (5 * i + j + 2 * k) % 13 + 1 for i in range(3) for j in range(4) for k in range(4)}
_F = [Fraction(i + 1, 2 * i + 3) for i in range(12)]
_G = [Fraction(3 * i + 1, i + 5) for i in range(12)]


def probe() -> float:
    """Seconds the fixed work takes now."""
    t0 = time.perf_counter()
    acc: dict = {}
    for (a, b, c), u in _A.items():
        for (d, e, f), v in _B.items():
            key = (a + d, b + e, c + f)
            acc[key] = (acc.get(key, 0) + u * v) % 1000003
    for i, u in enumerate(_F):
        for j, v in enumerate(_G):
            acc[i - j] = acc.get(i - j, 0) + u * v
    return time.perf_counter() - t0


def scale_now(samples: int = 5) -> float:
    """REF_PROBE_S over the median of a few probes taken now (the first
    only warms the caches)."""
    probe()
    return REF_PROBE_S / statistics.median(probe() for _ in range(samples))


class SpeedClock:
    """Elapsed time at the reference speed, from `start()` on."""

    def __init__(self) -> None:
        self.total = 0.0
        self.mark = 0.0
        self.scale = 1.0
        self.spent = 0.0  # seconds inside the handler
        self.probes: list[float] = []

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.total += (t0 - self.mark) * self.scale
        probe()  # the pass has pushed the probe out of the caches
        d = probe()
        self.probes.append(d)
        self.scale = REF_PROBE_S / d
        self.mark = time.perf_counter()
        self.spent += self.mark - t0

    def start(self) -> None:
        self.mark = time.perf_counter()
        self._tick()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        return self.total + (time.perf_counter() - self.mark) * self.scale
