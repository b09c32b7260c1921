"""Host-speed scaling of the timings.

The reference machine is two vCPUs of a shared host.  Other tenants slow
every process on it by up to 2x, for seconds at a time, and the slowdown
shows in CPU time as much as in wall time (it is not steal time), so no
choice of clock removes it.  ``SpeedClock`` samples the host's speed inside
the timed process instead: every ``PERIOD_S`` of wall time a timer signal
runs a fixed pure-Python kernel (exact big-integer and float
multiply-adds, the program's own kind of work) and records how long it
took.  ``Scaler`` then splits an operation's wall time at the kernel runs,
drops the kernel's own time, and divides each remaining stretch by the
kernel time around it (median of neighbouring samples), times
``KERNEL_REF_S``: the result is the operation's time at the speed at which
the kernel takes ``KERNEL_REF_S``, its time on the quiet reference host.

A change to the program moves a scaled time as it moves the wall time; a
tenant that slows the host moves the kernel with it and cancels out.  On
the reference host this cut the pass-to-pass spread of the same work from
about 50% to about 7% (see README.md).

Interpreter start-up does not slow with the kernel, so set-up times are
scaled by a reference start instead: a bare interpreter that imports the
standard-library modules the program imports (``REF_START_CODE``), timed
just before and after each set-up probe.  The scaled set-up time is the
probe's time at the speed at which that start takes ``REF_START_S``.
"""

from __future__ import annotations

import bisect
import signal
import time

#: wall time between two kernel samples
PERIOD_S = 0.05
#: the kernel's time on the reference host when nothing else slows it (its
#: fastest sample there); scaled timings are seconds at that speed
KERNEL_REF_S = 0.42e-3
#: a sample's speed is the median of this many samples on either side too
SMOOTH = 2
#: the reference start; it prints when it is ready, as a set-up probe does
REF_START_CODE = ("import argparse, dataclasses, enum, json, math, time, typing; "
                  "print(time.perf_counter())")
#: the reference start's time on the reference host when nothing else slows
#: it (its fastest run there); scaled set-up times are seconds at that speed
REF_START_S = 0.058

_ROWS = [[(i * 7919 + j * 104729) ** 9 for j in range(12)] for i in range(12)]
_VEC = [(j * 15485863) ** 11 for j in range(12)]
_FVEC = [1.0 / (j + 3) for j in range(12)]


def _median(xs):
    xs = sorted(xs)
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else (xs[mid - 1] + xs[mid]) / 2


def kernel():
    """A fixed amount of exact and float matrix-vector work, about 0.4 ms
    on the quiet reference host."""
    exact = []
    for row in _ROWS:
        s = 0
        for a, x in zip(row, _VEC):
            s += a * x
        exact.append(s)
    f = 0.0
    for _ in range(20):
        for row in _ROWS:
            f += sum(float(a & 0xFFFF) * x for a, x in zip(row, _FVEC))
    return exact, f


class SpeedClock:
    """Runs the kernel from a SIGALRM handler every ``PERIOD_S`` while
    started and keeps (start, end) of every run."""

    def __init__(self):
        self.ticks = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.ticks.append((t0, time.perf_counter()))

    def start(self):
        kernel()  # the first run of a fresh interpreter specialises the loops
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Scaler:
    """Own and scaled time of wall intervals, from a clock's samples."""

    def __init__(self, ticks):
        self.ticks = ticks
        self.starts = [a for a, _ in ticks]
        k = [b - a for a, b in ticks]
        self.speed = [_median(k[max(0, i - SMOOTH):i + SMOOTH + 1])
                      for i in range(len(k))]

    def _kernel_at(self, i):
        """Kernel time for the stretch that ends at sample ``i``: the mean
        of the samples on either side of it (one at the ends)."""
        near = self.speed[max(0, i - 1):i + 1]
        return sum(near) / len(near)

    def __call__(self, a, b):
        """(own, scaled) time of the wall interval [a, b]: its length minus
        the kernel runs inside it, and that time at the reference speed."""
        i = bisect.bisect_left(self.starts, a)
        own = scaled = 0.0
        cur = a
        while i < len(self.ticks) and self.starts[i] < b:
            own += self.starts[i] - cur
            scaled += (self.starts[i] - cur) / self._kernel_at(i)
            cur = self.ticks[i][1]
            i += 1
        own += b - cur
        scaled += (b - cur) / self._kernel_at(min(i, len(self.ticks) - 1))
        return own, scaled * KERNEL_REF_S
