"""Host fingerprint and the calibration spin that flags a noisy run."""

from __future__ import annotations

import time

import numpy as np

from repro.experiments.benchtrack import host_fingerprint


def fingerprint() -> dict:
    return {**host_fingerprint(), "numpy": np.__version__}


def calibration_s() -> float:
    """Wall time of a fixed NumPy + pure-Python spin (about 0.1 s), the
    faster of two so a cold first touch does not read as noise.

    Timed before and after a workload; a drift above 10% means something
    else was using the machine and the run is marked *noisy*."""
    return min(_spin_s(), _spin_s())


def _spin_s() -> float:
    start = time.perf_counter()
    values = np.arange(400_000, dtype=np.float64)
    for _ in range(60):  # in place: no allocator traffic in the spin
        np.multiply(values, 1.0000001, out=values)
        np.add(values, 1.0, out=values)
        np.sqrt(values, out=values)
    total = 0
    for i in range(1_000_000):
        total += i & 7
    return time.perf_counter() - start
