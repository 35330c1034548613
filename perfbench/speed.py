"""The machine's speed, measured by a fixed kernel run between ops.

On a shared machine the speed of one core wanders by tens of percent over
seconds to minutes, and every timing of a run moves with it.  The worker
runs ``kernel_seconds`` (about 2 ms of small numpy contractions and Python
arithmetic, like the program's own work) before every op; ``scaled``
turns each raw latency into the latency at the speed where the kernel
takes ``REFERENCE_S``.  The kernel is the benchmark's own code, so a
change to chivdw cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 2.0e-3       # the kernel's median time on the reference machine
WINDOW = 9                 # kernel samples in the rolling median per op

_A = np.linspace(0.1, 1.0, 9 * 32).reshape(32, 3, 3)


def kernel_seconds() -> float:
    """Wall time of one fixed batch of small contractions and arithmetic."""
    start = time.perf_counter()
    x = _A
    for _ in range(60):
        y = np.einsum("nij,njk->nik", x, x)
        x = _A + 1e-3 * y / (1.0 + float(np.abs(y).sum()))
        sum(i * i for i in range(150))
    return time.perf_counter() - start


def scaled(seconds, kernel_s):
    """Each time in ``seconds`` at the reference speed, judged by the median
    of the WINDOW kernel times around it (same order, same length)."""
    half = WINDOW // 2
    return [t * REFERENCE_S / statistics.median(
        kernel_s[max(0, i - half):i + half + 1])
        for i, t in enumerate(seconds)]
