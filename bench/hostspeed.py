"""Host-speed scaling of measured times.

The benchmark's host changes speed by up to about 2x in phases that last
from seconds to minutes, which swamps differences between runs.  A
``HostClock`` times an interval and, while it runs, samples the host's
speed: a timer signal every ``TICK_S`` seconds runs one of four small fixed
kernels in turn and times it.  The kernels touch no brslab code, so no
change to the program moves them.  Between them they do the kinds of work
brslab does: RK45 on a 2-state ODE, RK45 with dense output on a 32-state
ODE, plain Python container work, and numpy sorting and arithmetic on a
160 KB vector.  The interval's time is reported twice: as measured, minus
the time spent in the kernels, and scaled to a reference host on which one
round of the four kernels takes ``REF_ROUND_S`` seconds::

    scaled = measured * (REF_ROUND_S / round) ** SLOPE

where ``round`` is the sum over the kernels of their mean time.  SLOPE is
the slope of log operation time against log round time, fitted per
workload over the 40 runs of a ten-seed check: 1.25, 1.27, 1.25 and 1.15
(cli_readme, growth_sweep, rd_stiff, reach_tdi; correlation 0.93 to 0.99).
brslab's work slows a little more than the kernels do when the host slows.

The garbage collector is off while a kernel runs, so the objects the
program keeps alive do not change the kernels' times.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy.integrate import solve_ivp

TICK_S = 0.05
REF_ROUND_S = 0.005
SLOPE = 1.2

_N = 32
_CHAIN = -2.0 * np.eye(_N) + np.eye(_N, k=1) + np.eye(_N, k=-1)
_CHAIN_X0 = np.linspace(-1.0, 1.0, _N)
_CHAIN_GRID = np.linspace(0.0, 0.15, 40)
_VECTOR = np.random.default_rng(0).standard_normal(20000)


def _small_rhs(t, y):
    return np.array([y[1], -y[0] - 0.5 * y[1] ** 3 + np.sin(t)])


def _chain_rhs(t, y):
    return _CHAIN @ y - y ** 3 + np.cos(t)


def _small():
    solve_ivp(_small_rhs, (0.0, 1.0), [1.0, 0.0], rtol=1e-8, atol=1e-10)


def _chain():
    sol = solve_ivp(_chain_rhs, (0.0, 0.15), _CHAIN_X0, rtol=1e-8, atol=1e-10,
                    dense_output=True)
    sol.sol(_CHAIN_GRID)


def _table():
    d = {}
    for i in range(3000):
        d[(i * 7919) % 10007] = str(i)
    sorted(d.items())


def _vector():
    (np.sort(_VECTOR) * 2.0 + _VECTOR).sum()


KERNELS = (_small, _chain, _table, _vector)


def scale(seconds, round_s):
    """`seconds` measured while a round of the kernels took `round_s`, scaled
    to the reference host."""
    return seconds * (REF_ROUND_S / round_s) ** SLOPE


class Interval:
    """Result of one timed interval."""

    def __init__(self):
        self.samples = [[] for _ in KERNELS]
        self.spent_s = 0.0  # time spent in kernels during the interval
        self.raw_s = None
        self.round_s = None
        self.scaled_s = None


class HostClock:
    """Times intervals and scales them by the host speed sampled during each."""

    def __init__(self):
        self._current = None
        self._next = 0

    def _run(self, iv, k):
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            KERNELS[k]()
            iv.samples[k].append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def _tick(self, signum, frame):
        iv = self._current
        if iv is None:
            return
        t0 = time.perf_counter()
        self._run(iv, self._next % len(KERNELS))
        self._next += 1
        iv.spent_s += time.perf_counter() - t0

    @contextmanager
    def interval(self):
        """Time the body; the result's fields are set when it exits."""
        iv = Interval()
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._current = iv
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield iv
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            elapsed = time.perf_counter() - t0
            self._current = None
            signal.signal(signal.SIGALRM, previous)
            iv.raw_s = elapsed - iv.spent_s
            # one more round, so that every kernel has a sample
            for k in range(len(KERNELS)):
                self._run(iv, k)
            iv.round_s = sum(statistics.fmean(s) for s in iv.samples)
            iv.scaled_s = scale(iv.raw_s, iv.round_s)
