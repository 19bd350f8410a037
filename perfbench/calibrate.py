"""Host-speed calibration: times on a shared machine, scaled to a fixed reference speed.

Other tenants of a shared host slow every instruction this process runs by up
to 2x, in stretches that last from a fraction of a second to minutes, so the
same solves of the same code take 0.10 s in one minute and 0.23 s in the next.
A fixed kernel that does not touch gutterlp (small numpy arrays built and
normalised in an interpreted loop, the mix a solve runs) slows down nearly in
step. On a 2-vCPU KVM guest of a 2.1 GHz Xeon host, over 12-second windows,
the quartile distance of the solve time was 25% (wide-scan) and 39%
(tiny-text) of its median, and that of the ratio of solve time to kernel time
4% and 6%. The benchmark therefore times the kernel next to the solves and
reports each time at the speed at which the kernel takes REF_S seconds, about
the speed of an undisturbed core of that host. The raw wall times are printed
beside.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

REF_S = 0.002          # kernel time at the reference speed
ITERATIONS = 300


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel (fixed work)."""
    total = 0.0
    start = time.perf_counter()
    for i in range(ITERATIONS):
        rows = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0 + i]])
        norms = np.linalg.norm(rows, axis=1)
        total += float((rows / norms[:, None]).sum())
    return time.perf_counter() - start


def scale(kernel_times: list[float]) -> float:
    """Factor that turns wall time measured next to these kernel times into reference time."""
    return REF_S / statistics.median(kernel_times)
