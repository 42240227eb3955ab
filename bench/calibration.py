"""Machine-speed calibration for the benchmark's times.

On a shared 2-core virtual machine (the one the reference figures in
README.md come from), identical pure-Python work runs at speeds that drift
by up to 1.6x over a few seconds, so raw CPU times spread by 15-30% between
runs of the same code.  A fixed kernel, timed right before and right after
each measured piece of work, measures that speed; every reported time is
scaled by ``REFERENCE_S / kernel time``, which expresses it at one fixed
speed.  The kernel does the kinds of work the program does: float
arithmetic, math.erf and math.exp, small function calls and float-to-text
formatting.  It does not touch stefan3.
"""

from __future__ import annotations

import math
import time

# CPU seconds the kernel takes at the reference speed (about its fast-state
# time on the machine of the reference figures in README.md).
REFERENCE_S = 3.0e-4


def _term(x: float) -> float:
    return math.erf(x) * math.exp(-x) / (1.0 + x)


def kernel() -> int:
    acc, parts = 0.0, []
    for i in range(500):
        x = i * 1e-3
        acc += _term(x)
        if i % 8 == 0:
            parts.append(f"{x!r},{acc!r}")
    return len(",".join(parts))


def sample() -> float:
    """CPU seconds of one kernel run."""
    start = time.process_time()
    kernel()
    return time.process_time() - start


def scale(before: float, after: float) -> float:
    """Factor taking a CPU time measured between two samples to reference speed."""
    return 2.0 * REFERENCE_S / (before + after)
