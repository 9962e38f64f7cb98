"""Machine-speed calibration for timing metrics.

A virtual machine whose cores are shared with other tenants can change
speed by up to 1.8x over seconds to minutes (measured on a 2-vCPU VM, where
it put the run-to-run spread of raw wall times at up to 35 %).  The client
times a fixed piece of exact ``Fraction`` arithmetic, about every quarter
second between documents, and scales each measured time by
``CAL_REF_S / calibration`` taken around it.  A scaled time is the time the
work would have taken had the machine been running the calibration in
``CAL_REF_S``; a change to matseq does not touch the calibration, so it
shows in full in the scaled times.  Raw times are recorded alongside.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import refmath as rm

# scaled times are relative to this calibration time: the median one on the
# baseline's machine, so that there a scaled time reads about as measured and
# --seconds of scaled time take about as many seconds of measuring
CAL_REF_S = 0.011
CAL_EVERY_S = 0.25     # seconds of measurement between calibrations
CAL_WINDOW = 2         # samples on each side that smooth one factor

_Q = rm.QRing()
_MATS = [(Fraction(i + 1, 3), Fraction(-i, 5), Fraction(2, i + 7), Fraction(i, 11))
         for i in range(8)]


def calibration_s() -> float:
    """Duration of 384 exact 2x2 products over Q."""
    t0 = time.perf_counter()
    for _ in range(6):
        for x in _MATS:
            for y in _MATS:
                rm.mmul(_Q, x, y)
    return time.perf_counter() - t0


class Speed:
    """Calibration samples in time order; ``factor(i)`` scales a time measured
    after sample i by the median of the samples around it."""

    def __init__(self):
        self.samples: list[float] = []
        self.at = 0.0

    def sample(self) -> int:
        """Take a calibration sample; returns its index."""
        self.samples.append(calibration_s())
        self.at = time.perf_counter()
        return len(self.samples) - 1

    def due(self) -> bool:
        return time.perf_counter() - self.at >= CAL_EVERY_S

    def factor(self, i: int) -> float:
        near = self.samples[max(0, i - CAL_WINDOW + 1): i + CAL_WINDOW + 1]
        return CAL_REF_S / statistics.median(near)
