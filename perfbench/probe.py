"""Host-speed probe: converts measured seconds into reference-speed seconds.

On a shared host the same job takes 11 to 19 s from one minute to the
next, and CPU time tracks wall time, so the slowdown is in the speed of
each instruction (contention for the physical core), not in scheduling.
The probe measures that speed while the job runs: a SIGALRM handler runs
a fixed slice of interpreter work (small objects, attribute access,
branches and decimal arithmetic, the mix the prover spends its time on)
every ``PERIOD_S`` seconds of wall time, in the main thread of the
running job, so the slice sees the same core, caches and contention as
the job around it.  A thread or a second
process would not: a thread wakes on a cold core, and a process on the
sibling core slows the job it measures.

Over an interval of wall time the job did as much work as the reference
host does in

    reference_seconds = (wall - probe time) * mean(REFERENCE_SLICE_S / slice_i)

The slice uses only the standard library, so a change to the program
cannot speed up the probe along with the job.
"""

from __future__ import annotations

import decimal
import signal
import statistics
import time
from decimal import Decimal

PERIOD_S = 0.02
SLICE_STEPS = 100
#: fewest slices a speed estimate uses; shorter intervals borrow the
#: slices nearest to them, as host speed changes over seconds
MIN_SLICES = 25
#: duration of one slice on the reference host, which defines the unit of
#: reference-speed seconds (the fastest slices seen on a 2-core Xeon VM)
REFERENCE_SLICE_S = 120e-6

_CTX = decimal.Context(prec=40, rounding=decimal.ROUND_FLOOR)
_A = Decimal("1.234567890123456789012345678901234567")
_B = Decimal("0.9876543210987654321098765432109876")
_ZERO = Decimal(0)


class _Pair:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo = lo
        self.hi = hi


def _slice():
    mul, add = _CTX.multiply, _CTX.add
    acc = _Pair(_ZERO, _ZERO)
    for _ in range(SLICE_STEPS):
        x = _Pair(mul(_A, _B), add(_A, _B))
        if x.lo < x.hi:
            acc = _Pair(add(acc.lo, x.lo), add(acc.hi, x.hi))
        else:
            acc = _Pair(acc.hi, acc.lo)
    return acc


class SpeedProbe:
    """Context manager sampling host speed for the duration of a run."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _slice()
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self, start: float, end: float) -> float:
        """Mean speed over [start, end] relative to the reference host."""
        inside = [d for t, d in self.samples if start <= t <= end]
        if len(inside) < MIN_SLICES:
            middle = (start + end) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:MIN_SLICES]
            inside = [d for _, d in nearest]
        return statistics.fmean(REFERENCE_SLICE_S / d for d in inside)

    def reference_seconds(self, start: float, end: float, measured: float | None = None) -> float:
        """Seconds measured over the wall interval [start, end], by default
        its length, less the probe's own time, in reference seconds."""
        if measured is None:
            measured = end - start
        probe = sum(d for t, d in self.samples if start <= t <= end)
        return (measured - probe) * self.speed(start, end)
