"""Machine-speed reference for the benchmark's time metrics.

On the shared 2-core machine this benchmark was written on, the same code
runs up to 60 % slower from one minute to the next, in CPU time as much as
in wall time and with no CPU steal recorded: other tenants of the host
compete for its cores and caches.  A fixed computation that uses no code of
this repository slows down with the workloads: LU factorisations of one
fixed 250 x 250 matrix tracked that drift on every workload, while a loop of
small numpy calls did not.  So the reference is timed between passes, for
a fixed share of the time it scales so that its samples cover the run
evenly, and every time metric is reported as its raw value times
``(NOMINAL_S / median(reference times of the same phase)) ** elasticity``:
seconds at the machine speed where one reference takes NOMINAL_S.  A tail
percentile of task latency is scaled by the same percentile of the
reference times, since it is set by the run's slowest stretches.  The
elasticity is how strongly a workload's time follows the reference's, a
measured property of the workload (see ``workloads.py``).  Raw values are
printed alongside.
"""
from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.linalg

NOMINAL_S = 0.015   # mid-range of the 11-19 ms one sample took on the machine above
SIZE = 250
REPEATS = 20        # factorisations per reference sample
SHARE = 0.1         # reference time as a share of the timed work it scales


class Reference:
    def __init__(self):
        self.matrix = np.random.default_rng(0).standard_normal((SIZE, SIZE))
        self.samples: list[float] = []
        self.total = 0.0

    def keep_up(self, timed_s: float) -> None:
        """Sample until the reference has run for SHARE of timed_s, and at least once."""
        while not self.samples or self.total < SHARE * timed_s:
            t0 = time.perf_counter()
            for _ in range(REPEATS):
                scipy.linalg.lu_factor(self.matrix)
            self.samples.append(time.perf_counter() - t0)
            self.total += self.samples[-1]

    def scale(self, elasticity: float = 1.0, percentile: int = 50) -> float:
        """Factor from this phase's raw times at the given percentile to nominal-speed times."""
        xs = sorted(self.samples)
        ref = statistics.median(xs) if percentile == 50 else xs[math.ceil(percentile * len(xs) / 100) - 1]
        return (NOMINAL_S / ref) ** elasticity
