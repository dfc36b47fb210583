"""Fixed reference kernel that measures how fast the machine runs right now.

The benchmark shares its machine with other tenants; their load changes the
speed of our single thread by +-20% over tens of seconds (a fixed loop of
this kind reads 34-94 ms on the same box within one minute).  A run times
this kernel between its requests and scales its timings by
``(REFERENCE_S / median(kernel times)) ** EXPONENT[workload]``.  On a
2-vCPU Xeon this cut the run-to-run spread of throughput on ``ladder`` and
``grid`` by half or more.
The raw timings stay in the result file.

The kernel mixes the kinds of work the package does: Python rational
arithmetic, a long-double three-term recurrence, a float64 array power and
an 8 MB grid like the oracle's, which tracks memory-bound slowdowns.  It
never calls the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

# median kernel time on the reference machine (2-vCPU Intel Xeon, Python
# 3.11, numpy 2.4) at the commit that introduced the benchmark
REFERENCE_S = 0.0175

# least spacing between two kernel runs inside a request loop
INTERVAL_S = 0.25

# how strongly each workload's request times follow the kernel: the slope of
# log(request time) on log(kernel time), fitted over 100 s of alternating
# kernels and requests on the reference machine.  The scalar Python and
# long-double work of ladder and grid slows as much as the kernel (slopes
# 0.7-1.3); the oracle's large numpy sweeps in certify about half as much
# (0.4-0.55), so scaling certify by the full factor overcorrected and made
# its run-to-run spread wider than no scaling at all.  Set-up (interpreter
# start and imports) takes the same half: over thirty runs scaled by the
# full factor its spread was widest, in episodes where the kernel ran at
# half speed while imports slowed by a fifth
EXPONENT = {"ladder": 1.0, "grid": 1.0, "certify": 0.5, "setup": 0.5}


def kernel() -> float:
    """Run the reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 300):
        acc += Fraction(k * k + 1, 2 * k + 3) * Fraction(7, k + 11)
    x = np.linspace(0.0, 60.0, 4000).astype(np.longdouble)
    p0, p1 = np.ones_like(x), 1.5 - x
    for k in range(1, 60):
        p0, p1 = p1, ((2 * k + 1.5 - x) * p1 - (k + 0.5) * p0) / (k + 1)
    a = np.linspace(0.1, 2.0, 300_000)
    float(np.sum(a ** 1.7))
    # an 8 MB outer product raised to a power in place, like the oracle's grid
    grid = np.outer(np.linspace(0.1, 2.0, 1000), np.linspace(0.2, 1.0, 1000))
    np.power(grid, 1.3, out=grid)
    float(np.sum(grid))
    return time.perf_counter() - t0
