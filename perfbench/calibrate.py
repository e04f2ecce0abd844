"""Machine-speed reference for analyze_s and setup_s.

On the shared 2-vCPU x86 VM this benchmark was written on, a fixed piece of
work takes from 26 to 39 ms within one minute, on both vCPUs at once and with
nothing else running, so the raw analysis times of ten runs of the same code
spread by 0.12-0.22 (interquartile range over median) against a bound of
0.25.  After each round of analyses the harness therefore runs a fixed
kernel that does the same kind of work as the workload, and scales the
round's time by the kernel's REFERENCE seconds over its mean time on either
side of the round: analyze_s reads as seconds on a machine where the kernel
takes REFERENCE seconds (about that VM's typical speed between analyses).
The kernels use only the standard library, numpy and scipy, never hypvol, so
no program change can move them.

The exact layers are interpreter-bound (Fraction, big-int and mpmath
arithmetic) and the integrator runs numpy over blocks of scrambled Sobol
points; a kernel of the other kind, or numpy work unlike the integrator's,
tracked the drift less well.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

import numpy as np
from scipy.stats import qmc

_MAP = np.random.default_rng(0).random((5, 5)) / 5


def python_work() -> None:
    """Fraction and 300-bit integer arithmetic and dict/str churn."""
    x = Fraction(1)
    for i in range(1, 1000):
        x = x * Fraction(i + 1, i + 2) + Fraction(1, i)
    a, m = 3**190, 7**110 + 1
    for _ in range(3000):
        a = (a * a) % m + 12345
    table = {}
    for i in range(4000):
        table[str(i)] = i


def numpy_work() -> None:
    """The integrator's steps on one block: scrambled Sobol points, a linear
    map, a quadratic form and a power, averaged."""
    u = qmc.Sobol(5, scramble=True, seed=0).random_base2(17)
    t = u @ _MAP
    float(((1.5 - np.einsum("ij,ij->i", t, t)) ** -3.0).mean())


# workload -> (kernel, REFERENCE: its seconds at the reference speed)
KERNELS = {
    "exact-assumed": (python_work, 0.010),
    "recognize-5d": (numpy_work, 0.011),
    "recognize-7d": (numpy_work, 0.011),
    # a fresh interpreter's imports are interpreter-bound too
    "setup": (python_work, 0.010),
}


def timer(workload: str):
    """Function that runs the workload's kernel twice and returns the faster
    run's seconds (the first run after an analysis may find its memory and
    caches cold)."""
    work, _ = KERNELS[workload]

    def run() -> float:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            work()
            best = min(best, time.perf_counter() - t0)
        return best

    return run


def reference(workload: str) -> float:
    return KERNELS[workload][1]
