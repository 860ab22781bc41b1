"""The fixed calibration kernel that rescales CPU times to a reference speed.

Kept apart from ``run.py`` so that a set-up probe can calibrate after
timing its own imports without importing the whole runner.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_CAL_S = 0.0005  # the kernel's CPU time on the baseline VM, rounded


def calibration_kernel() -> Fraction:
    """Fixed interpreter work of the kinds the program does: a small-int
    loop, big-int products and Fraction sums."""
    acc, x = Fraction(0), 1
    for i in range(1, 200):
        x = x * 3 + i
        acc += Fraction(x % 1000 + 1, i)
    return acc


def calibration_runs(repeats: int) -> list[float]:
    """CPU seconds of each of ``repeats`` runs of the calibration kernel."""
    runs = []
    for _ in range(repeats):
        start = time.process_time()
        calibration_kernel()
        runs.append(time.process_time() - start)
    return runs


def calibration_s() -> float:
    """CPU seconds of the calibration kernel, best of three."""
    return min(calibration_runs(3))
