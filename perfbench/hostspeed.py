"""Host-speed calibration of measured times.

On a shared virtual machine the speed of a vCPU drifts with the load of
the other tenants: on the 2-vCPU host of the README's measurements a fixed
kernel and a gstruct op both ran about 30% slower for stretches of tens of
seconds to minutes, so raw run medians spread by up to a third.  The
benchmark therefore times a fixed kernel right before each op (and right
after each set-up) and reports the op's time scaled to a host on which the
kernel takes REFERENCE_MS:

    calibrated = wall time * REFERENCE_MS / kernel time around the op

The kernel mixes what gstruct ops spend their time on: a LAPACK SVD, numpy
calls on 14x14 arrays and plain Python loops.  It is benchmark code, so a
change to gstruct moves the op times and not the kernel.  REFERENCE_MS is
fixed; changing it rescales every time the benchmark reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_MS = 5.0

_rng = np.random.default_rng(20121011)
_SVD = _rng.standard_normal((120, 120))
_SMALL = _rng.standard_normal((3, 14, 14))


def kernel_ms() -> float:
    start = time.perf_counter()
    np.linalg.svd(_SVD)
    a, b, c = _SMALL
    for _ in range(80):
        a = np.tanh(a @ b - b @ a + np.einsum("ij,jk->ik", c, a))
    total = 0
    for i in range(20000):
        total += (i * i) & 7
    return (time.perf_counter() - start) * 1e3


def measure() -> float:
    """Kernel time in ms: the faster of two back-to-back runs, so that lazy
    initialisation or caches emptied by the work before do not count."""
    return min(kernel_ms(), kernel_ms())


def factors(kernel_times, width=5):
    """Per op, REFERENCE_MS over the median of the kernel times measured
    around it (a centred window of `width` ops).  The window follows the
    host's speed, which changes over seconds, and damps the jitter of a
    single short kernel run."""
    half = width // 2
    return [REFERENCE_MS / statistics.median(kernel_times[max(0, i - half):i + half + 1])
            for i in range(len(kernel_times))]
