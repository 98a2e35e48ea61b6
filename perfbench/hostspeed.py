"""Host speed reference for the benchmark's end-to-end timings.

The benchmark host shares its cores with other machines' work, and that
slows the process itself: on a 2-CPU Xeon virtual machine one and the same
call took 68 ms and 147 ms a few seconds apart, with its CPU time equal to
its wall time, and the host's speed drifted by a quarter within seconds. A
whole run can sit in a slow or a fast stretch, so wall-clock times of
identical runs spread by a quarter or more.

A Meter therefore times a fixed calibration kernel, which does not touch
tmeshdim, on a wall-clock timer every PERIOD_S seconds, from a signal
handler that interrupts whatever runs. A timed region's wall time, less the
time spent in those handlers, is scaled by REFERENCE_S over the mean kernel
time of the ticks that fell inside the region or within one period of it:
the result is the time the region takes at the host speed at which the
kernel takes REFERENCE_S. A change to tmeshdim changes the region, never the
kernel, so it shows in full in the scaled time.

The kernel does the kinds of work tmeshdim does: fraction-free elimination
of sparse integer rows held in dicts, Fraction sums and hashing of small
frozensets.
"""

import gc
import random
import signal
import time
from fractions import Fraction
from math import gcd

# Time of one kernel call at the reference host speed; see README.md for
# the times measured.
REFERENCE_S = 0.0005
PERIOD_S = 0.02

_rng = random.Random(12345)
_ROWS = [{c: _rng.randint(1, 9) * _rng.choice((-1, 1))
          for c in _rng.sample(range(16), 5)} for _ in range(12)]
_FRACTIONS = [Fraction(_rng.randint(1, 50), _rng.randint(1, 50))
              for _ in range(24)]


def kernel():
    """Fixed work; returns its results so none of it can be skipped."""
    work = [dict(row) for row in _ROWS]
    rank = 0
    while work:
        work.sort(key=len)
        piv = work.pop(0)
        rank += 1
        col = min(piv, key=lambda c: (abs(piv[c]), c))
        a = piv[col]
        nxt = []
        for row in work:
            b = row.get(col)
            if b is None:
                nxt.append(row)
                continue
            new = {}
            for c, v in row.items():
                w = v * a - piv.get(c, 0) * b
                if w:
                    new[c] = w
            for c, v in piv.items():
                if c not in row:
                    new[c] = -v * b
            if new:
                g = 0
                for v in new.values():
                    g = gcd(g, v)
                nxt.append({c: v // g for c, v in new.items()})
        work = nxt
    total = sum(_FRACTIONS, Fraction(0))
    pairs = {frozenset((i, j)) for i in range(16) for j in range(i, 16)}
    return rank, total, len(pairs)


class Region:
    """One timed call: its span and the first tick that may bear on it."""

    def __init__(self, meter, t0, t1, first):
        self.meter, self.t0, self.t1, self.first = meter, t0, t1, first

    def _near(self):
        """Ticks from the last two before the call to one period after."""
        for tick in self.meter.ticks[max(self.first - 2, 0):]:
            if tick[0] > self.t1 + PERIOD_S:
                break
            yield tick

    def wall(self):
        """Wall time less the ticks that interrupted the call."""
        inside = sum(max(0.0, min(self.t1, leave) - max(self.t0, enter))
                     for enter, leave, _ in self._near())
        return self.t1 - self.t0 - inside

    def scaled(self):
        """Wall time at the reference host speed, from the ticks inside the
        call or within one period of it. Ticks after the call count once
        they have happened, so the value can still move until the run
        ends."""
        speed = [k for enter, _, k in self._near()
                 if enter >= self.t0 - PERIOD_S]
        if not speed:   # no tick near the call: use the last one before it
            speed = [self.meter.ticks[self.first - 1][2]]
        return self.wall() * REFERENCE_S * len(speed) / sum(speed)


class Meter:
    """Samples the kernel on a timer; measure() times a call against it.

    Call start() before the first measure() and stop() after the last. A
    process runs one Meter at a time, since the Meter owns SIGALRM.
    """

    def __init__(self):
        self.ticks = []     # (enter, leave, kernel time) per tick

    def _tick(self, signum, frame):
        enter = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()   # a collection owed to the interrupted code waits
        t0 = time.perf_counter()
        kernel()
        k = time.perf_counter() - t0
        if collecting:
            gc.enable()
        self.ticks.append((enter, time.perf_counter(), k))

    def start(self):
        for _ in range(200):    # warm the kernel's code paths
            kernel()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        while not self.ticks:   # every region has a tick before it
            pass

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, fn, *args):
        """(fn(*args), Region). An exception from fn propagates."""
        first = len(self.ticks)
        t0 = time.perf_counter()
        result = fn(*args)
        return result, Region(self, t0, time.perf_counter(), first)
