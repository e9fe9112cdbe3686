"""Host speed, sampled by a fixed pure-Python kernel while ops run.

On a shared machine the same Python code runs at different speeds from
one minute to the next: on the 2-vCPU host the benchmark was built on,
one resultant pass took 8.7 s and, a minute later in the same process
with the same inputs, 14.4 s, with CPU time tracking wall time. Ten runs
then spread more than any useful bound.

So every timed interval is also reported in nominal seconds: its wall
time divided by the host's mean slowdown over the interval. A timer
signal runs a small kernel every INTERVAL_S of wall time, and once more
at each end of the interval; the slowdown of a sample is the kernel's
time over NOMINAL_S. The kernel mixes the three kinds of work the
library does (mod-p row operations on lists of ints, Fraction
arithmetic, and building a dict of tuple keys). It is the benchmark's
own code, so no change to the library moves it, and the time spent in
it is taken out of the interval.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time
from fractions import Fraction

P = 1_000_003
INTERVAL_S = 0.05
# the unit of nominal seconds: the host runs at speed 1 when a kernel
# sample takes NOMINAL_S
NOMINAL_S = 0.001

_rng = random.Random(0)
_MODP = [[_rng.randrange(P) for _ in range(16)] for _ in range(16)]
_FRAC = [[Fraction(_rng.randrange(-9, 10), _rng.randrange(1, 10)) for _ in range(6)]
         for _ in range(6)]


def kernel():
    rows = [row[:] for row in _MODP]
    for k in range(len(rows)):
        inv = pow(rows[k][k] or 1, P - 2, P)
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] * inv % P
            rows[i] = [(a - factor * b) % P for a, b in zip(rows[i], rows[k])]
    rows = [row[:] for row in _FRAC]
    for k in range(len(rows) - 1):
        pivot = rows[k][k] or Fraction(1)
        for i in range(k + 1, len(rows)):
            factor = rows[i][k] / pivot
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    table = {}
    for i in range(600):
        table[(i % 7, i % 11, i)] = table.get((i % 7, i % 11, i - 1), 0) + i


class SpeedMeter:
    """Times calls in wall and nominal seconds. While it is open as a
    context manager it owns SIGALRM and samples every INTERVAL_S; closed,
    it samples only at the ends of each timed call. Use it from the main
    thread."""

    def __init__(self):
        self.samples = []           # kernel seconds, in order
        self.spent = 0.0            # wall seconds spent sampling
        self._saved = None

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def sample(self):
        # with the collector off, a collection of the op's objects that
        # the kernel's allocations would trigger cannot land in the sample
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append(end - start)
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        """Wall seconds, less the time spent sampling."""
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def time(self, fn, *args):
        """Run fn(*args); returns (output, wall seconds, slowdown), the
        wall seconds without sampling time and the mean slowdown of the
        samples from just before to just after the call. Nominal seconds
        are wall seconds over slowdown."""
        self.sample()
        first = len(self.samples) - 1
        start = self.clock()
        out = fn(*args)
        wall = self.clock() - start
        self.sample()
        return out, wall, statistics.fmean(self.samples[first:]) / NOMINAL_S
