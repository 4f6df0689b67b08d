"""Host speed probe used to rescale wall times to a reference host speed.

A shared host can switch between speed states that differ by up to half and
last seconds to minutes (measured on a 2-vCPU Xeon VM: the same estimate
call took 1.2 s in one state and 1.8 s in the other).  The probe is a fixed
slice of interpreter and numpy work; its time follows those states, and a
wall time t measured next to a probe time p is reported as t * PROBE_REF_S / p.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# probe time in the fast state of a 2-vCPU Xeon VM (scipy-openblas, Python 3.11)
PROBE_REF_S = 0.015
PROBE_REPEATS = 3
_PROBE_DATA = np.random.default_rng(0).standard_normal(100_000)


def host_probe() -> float:
    """Seconds for the fixed slice of work (median of a few repeats)."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(100_000):
            acc += i * 0.5
        for _ in range(10):
            np.sort(_PROBE_DATA)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def rescaled(seconds: float, probe_s: float) -> float:
    """A wall time measured next to a probe, at the reference host speed."""
    return seconds * PROBE_REF_S / probe_s
