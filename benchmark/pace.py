"""The machine's pace, read from a fixed reference kernel.

On a shared host the CPU speed drifts by 25-50% in spells that last from
seconds to longer than a run, so the median of one run reads whichever
spells the run happened to get. The benchmark therefore times a fixed
reference kernel between every two units of work, and scales each unit's
sample to the pace at which that kernel takes ``REFERENCE_S``: a time by
``REFERENCE_S / kernel time``, a rate by the inverse. The kernel does what
gridstate does, Python-level loops over small numpy arrays and a dense
solve, so a slow spell slows both alike and the ratio holds within a few
percent where raw times move by a quarter. A change to gridstate moves the
unit and not the kernel, so it shows in full.
"""

import time

import numpy as np

# The kernel's time at this benchmark's reference host at full speed (2 CPUs,
# Python 3.11, numpy 2.4, one OpenBLAS thread). It only fixes the scale: a
# paced figure is what the unit takes when the kernel takes this long.
REFERENCE_S = 0.55e-3
READS = 3                # kernel repetitions per reading; the fastest counts

_x = np.linspace(0.1, 1.0, 48)
_a = np.eye(48) + 1e-2 * np.outer(_x, _x)


def kernel():
    acc = 0.0
    v = _x.copy()
    for k in range(120):
        v = 0.5 * (v + _x) + 1e-3 * np.sin(v)
        acc += float(v[k % 48])
    m = _a
    for _ in range(4):
        m = np.linalg.solve(_a, m @ _a)
    return acc + float(m[0, 0])


def reading():
    """Seconds of one kernel run: the fastest of READS back to back."""
    best = float("inf")
    for _ in range(READS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best
