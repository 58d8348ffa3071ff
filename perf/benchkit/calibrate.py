"""Machine-speed calibration: times are reported at a reference speed.

The reference box is a 2-core VM whose speed drifts: the *same* search
loop, same process, same inputs, completes anywhere between 540 and 910
ops in 10 s depending on the minute it runs in, and the drift lasts tens
of seconds — longer than a run, so no statistic taken inside a run can
remove it.  What can: a fixed kernel of interpreter-bound small-array
NumPy work (the product's own instruction mix, but none of its code) is
timed between the slices of a phase, and every time the benchmark reports
is divided by ``kernel time / REFERENCE_MS`` of the slice it was taken in
(rates are multiplied).  On a quiet machine the factor is 1 within a
percent or two and changes nothing; when the machine slows by 40% it
takes 40% back out.  Result files carry the factor and the raw values.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel time on the reference box in its quiet state.  Only a
#: scale: it makes "ms" mean "ms on that box when nothing else runs".
REFERENCE_MS = 8.9
_REPEATS = 5
_KERNEL_STEPS = 1500


def _kernel() -> float:
    low = np.array([0.10, 0.25, 0.40])
    high = np.array([0.30, 0.35, 0.90])
    point = np.array([0.20, 0.60, 0.50])
    total = 0.0
    for step in range(_KERNEL_STEPS):
        gap = np.maximum(low - point, 0.0) + np.maximum(point - high, 0.0)
        total += float(np.sqrt(np.sum(gap * gap))) + step * 1e-9
        point = (point + 0.37) % 1.0
    return total


class Calibrator:
    """Collects speed samples; hands out the factor between two of them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall time sampling has taken, to keep it out of what is measured.
        self.spent_s = 0.0

    def sample(self) -> int:
        """Time the kernel a few times; returns this sample's index."""
        began = time.perf_counter()
        times = []
        for _ in range(_REPEATS):
            started = time.thread_time()
            _kernel()
            times.append((time.thread_time() - started) * 1e3)
        self.samples.append(statistics.median(times))
        self.spent_s += time.perf_counter() - began
        return len(self.samples) - 1

    def factor(self, first: int, last: int) -> float:
        """How much slower than the reference the machine ran over
        samples ``first..last`` (inclusive): their mean / reference.

        The mean, because elapsed time adds up the speed of every moment.
        """
        return statistics.fmean(self.samples[first : last + 1]) / REFERENCE_MS
