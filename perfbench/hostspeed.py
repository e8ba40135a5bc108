"""Host-speed calibration.

The shared 2-core VM this benchmark was built on changes speed in phases:
the same work runs up to 40 % slower for seconds to minutes at a time, in CPU
time as well as wall time. A fixed loop that never touches treextract is timed about
every INTERVAL_S during each pass, at points between program calls, and the
gated timings of that pass are scaled by REFERENCE_S / (the median loop
time). Over 25 s windows of the tail-sampling pass, the interquartile spread
over the median was 0.26 for raw pass time and 0.05 for the scaled time.

The loop mixes what the program's time is made of: a column-wise argsort of
a 1000 x 50 matrix, dispatch-bound numpy calls on small arrays, and plain
Python dictionary arithmetic.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.010   # loop time that scaled timings refer to
INTERVAL_S = 0.25     # least time between two samples inside a pass

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((1000, 50))
_SMALL = _rng.standard_normal(200)


def loop_seconds() -> float:
    """One timed run of the calibration loop."""
    t0 = time.perf_counter()
    np.argsort(_A, axis=0, kind="stable")
    for _ in range(300):
        np.cumsum(_SMALL)
        np.searchsorted(_SMALL, 0.3)
        _SMALL * 2.0
    acc: dict = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0.0) + i * 0.5
    return time.perf_counter() - t0


def scale(samples) -> float:
    """Factor that turns times measured alongside `samples` into
    reference-speed times."""
    return REFERENCE_S / statistics.median(samples)


class Clock:
    """Wall clock for one pass that also samples host speed.

    tick() is called between program calls. At most every INTERVAL_S it runs
    the calibration loop once, and seconds() leaves that time out.
    """

    def __init__(self):
        self.samples: list = []
        self._paused = 0.0
        self._t0 = self._last = time.perf_counter()

    def tick(self) -> None:
        now = time.perf_counter()
        if now - self._last < INTERVAL_S:
            return
        self.samples.append(loop_seconds())
        self._last = time.perf_counter()
        self._paused += self._last - now

    def seconds(self) -> float:
        return time.perf_counter() - self._t0 - self._paused
