"""The benchmark's clock: times scaled to a reference machine speed.

This 2-core VM's speed swings by about 1.6x over tens of seconds while no
steal time shows, so a step's time is scaled by a calibration kernel that
runs right before and after the step and, every SAMPLE_S seconds, from a
SIGALRM handler during it.  The handler's own time never counts: `now()`
is perf_counter() less every pause the handler has taken, and per-operation
latencies and trace spans are read from it too.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

# the calibration kernel's time on the reference machine
CAL_REF_S = 0.002
SAMPLE_S = 0.25
_CAL_MATRIX = np.random.default_rng(0).random((120, 120))
_CAL_VECTOR = _CAL_MATRIX[0]
_paused = 0.0


def now():
    """perf_counter() without the time spent in calibration handlers."""
    return perf_counter() - _paused


def calibration_s():
    """Fastest of three timings of a fixed kernel that mixes what nvmsig's
    code does: interpreter loops, dict updates, text formatting and small
    numpy operations."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        total = 0
        for i in range(10_000):
            total += i * i
        counts = {}
        for i in range(2_000):
            counts[i % 97] = counts.get(i % 97, 0) + 1
        ",".join(f"{v:.6f}" for v in _CAL_VECTOR)
        for _ in range(5):
            np.exp(-(_CAL_MATRIX @ _CAL_VECTOR)).sum()
        best = min(best, perf_counter() - t0)
    return best


class Clock:
    """Times steps as (raw s, s scaled to the reference speed)."""

    def __init__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        global _paused
        t0 = perf_counter()
        self.samples.append(calibration_s())
        _paused += perf_counter() - t0

    def time(self, step):
        self.samples = [calibration_s()]
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        t0 = now()
        try:
            step()
        finally:
            dt = now() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.samples.append(calibration_s())
        return dt, dt * CAL_REF_S / statistics.fmean(self.samples)
