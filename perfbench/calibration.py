"""Correction of timings for contention on a shared host.

Other tenants of the host slow this process by up to 2x, in bursts shorter
than a second that come and go in spells lasting minutes, so raw timings of
identical work move by 15-30% from run to run.  A fixed calibration kernel,
timed between operations for a set share of their time, slows down with
them: dividing each operation's time by the mean slowdown of the kernel
around it removes most of that movement.  A calibrated time is the time the
operation would take on the reference host when it is quiet.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's mean time on the reference host in its quiet spells: a 2-core
# x86-64 VM running Python 3.11 and numpy 2.4 with OpenBLAS on one thread.
REFERENCE_S = 1.25e-3
SHARE = 0.05  # kernel time after an operation, as a share of the operation's time
NEAR = 8  # kernel timings on each side of an operation that set its slowdown


def kernel() -> float:
    """Seconds for a fixed mix of dict/tuple work and small complex numpy ops.

    The mix stands for the library's own work: sparse polynomials held in
    dicts keyed by tuples, and the numeric fold on 4x4 complex arrays.
    """
    start = time.perf_counter()
    acc: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, i % 13)
        acc[key] = acc.get(key, 0) + i
    a = np.ones((4, 4), dtype=complex)
    for _ in range(200):
        a = a * 0.5 + 1j
    return time.perf_counter() - start


def gap(op_seconds: float) -> list[float]:
    """Kernel timings after an operation: at least one, and SHARE of its time."""
    timings = [kernel()]
    while sum(timings) < SHARE * op_seconds:
        timings.append(kernel())
    return timings


def slowdowns(gaps: list[list[float]]) -> list[float]:
    """Slowdown of the host around each operation.

    ``gaps`` holds one list of kernel timings before the first operation and
    one after each operation, so operation i sits between gaps i and i+1.
    Its slowdown is the mean kernel time, over the reference, of the nearest
    gaps on each side that hold at least NEAR timings; long operations are
    followed by many timings, so their slowdown is read close to them.  The
    mean, because bursts add time in proportion to how often they strike.
    """
    out = []
    for i in range(len(gaps) - 1):
        near: list[float] = []
        for side in (range(i, -1, -1), range(i + 1, len(gaps))):
            taken = 0
            for j in side:
                near.extend(gaps[j])
                taken += len(gaps[j])
                if taken >= NEAR:
                    break
        out.append(sum(near) / len(near) / REFERENCE_S)
    return out
