"""Host speed, measured with a fixed kernel, to scale the benchmark's times.

The benchmark runs on a few cores of a shared host whose speed moves in
phases of one to three minutes: the same op, or a plain numpy and Python
loop, runs up to twice as long in a slow phase as in a fast one, with CPU
time equal to wall time (the process is not descheduled; the cores run
slower).  A run of 30 or 60 seconds falls mostly into one phase, so raw
op latencies of runs of the same code spread by about 30 %, more than a
regression bound can allow.

``factor()`` times ``kernel()`` -- benchmark code of the kinds of work the
library does (numpy ufuncs on a few hundred points, Python arithmetic,
QUADPACK integrals with a Python integrand) that no change to the library
can touch -- and returns its median time over REPEATS runs divided by
REFERENCE_S.  A time divided by the factors measured around it reads as it
would on a host that runs the kernel in REFERENCE_S.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

# Time of one kernel run on a 2-core container of the shared host (Python
# 3.11.7, numpy 2.4.6, scipy 1.17.1, one BLAS thread) in a fast phase, the
# lower of the two modes its samples fall into.  It fixes the scale of the
# scaled times only: two commits measured with the same constant compare
# the same way whatever its value.
REFERENCE_S = 0.7e-3
REPEATS = 3

_THETA = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)


def _integrand(t: float) -> float:
    return math.cos(3.0 * t) * math.exp(-t)


def kernel() -> float:
    s = 0.0
    for k in range(1, 21):
        values = np.exp(1j * k * _THETA) * (1.0 + 0.5 * np.cos(_THETA))
        s += float(np.abs(values.sum()))
    for i in range(4000):
        s += (i % 7) * 0.5
    s += quad(_integrand, 0.0, 1.0)[0] + quad(_integrand, 0.0, 4.0)[0]
    return s


def factor() -> float:
    """Host slowness now: the median kernel time over REFERENCE_S."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REFERENCE_S
