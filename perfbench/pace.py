"""Reference pace: time measured at a nominal CPU speed.

The CPUs this benchmark runs on change speed by up to a third over spans of
a few seconds, because other tenants share the machine.  A SIGALRM handler
therefore runs a fixed reference slice of pure-Python work every PERIOD_S
seconds of wall time and records how long it took.  A phase's duration,
minus the time spent in the handler, is rescaled by the mean speed of the
slices that ran during it: at nominal speed one slice takes NOMINAL_S.

The slice mixes the kinds of work the engine does (tuple hashing and dicts,
Fraction arithmetic, small-object method calls).  Changing it changes every
reported time, so it is part of the benchmark definition.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
NOMINAL_S = 0.004


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a - self.b * other.b, self.a * other.b + self.b * other.a)


def reference_slice() -> int:
    table = {}
    acc = 0
    for i in range(3000):
        key = (i, i * 7 % 13)
        acc += hash(key) & 15
        table[key[1]] = acc
    q = Fraction(0)
    x = Fraction(3, 7)
    for i in range(75):
        q = q * x + Fraction(i % 5, 3)
        q -= q.numerator // q.denominator
    z, y = _Pair(1, 0), _Pair(3, -2)
    for i in range(1250):
        z = z.mul(y)
        z = _Pair(z.a % 1000003, z.b % 1000003)
        table[(z.a & 63, i & 7)] = z
    return acc + len(table)


class Pace:
    """Samples the reference slice while started; see the module docstring."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self.handler_s = 0.0

    def _sample(self, *_):
        # a collection here would scan the engine's objects and bill the slice
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_slice()
        dt = time.perf_counter() - t0
        if enabled:
            gc.enable()
        self.samples.append((t0, dt))
        self.handler_s += dt

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def clock(self) -> float:
        """perf_counter() without the time spent in reference slices."""
        return time.perf_counter() - self.handler_s

    def nominal(self, seconds, start, end) -> float:
        """Rescale a duration of clock() time spent between perf_counter()
        readings start and end, using the slices that began within it and
        the last one before it."""
        before = [dt for t, dt in self.samples if t < start][-1:]
        within = [dt for t, dt in self.samples if start <= t <= end]
        rates = [NOMINAL_S / dt for dt in before + within]
        return seconds * sum(rates) / len(rates)
