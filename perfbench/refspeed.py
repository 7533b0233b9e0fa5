"""How fast the machine runs at the moment, from a fixed reference kernel.

On a shared machine the speed of a core changes from second to second as
other tenants come and go. Where this benchmark was written (2 vCPUs) it
switched between two levels about 2x apart, about once a second, and at
times stayed at the slow level for minutes; the fastest of many executions
then still differed by 1.7x between runs. The benchmark therefore runs
short chunks of a fixed kernel, which calls no ``oel`` code, right before and
after each piece of measured work, for about SHARE of its time, and divides
the measured time by how much slower than REF_CHUNK_S the chunks ran.
Measured side by side for a minute in the slow level, the ratio of work time
to reference time varied by +-3% between 10-second blocks, while the work's
own fastest time varied 2x.
"""

from __future__ import annotations

import time

import numpy as np

# one chunk at the fast level of the machine this was written on
# (Intel Xeon, 2 vCPUs, numpy 2.4 on OpenBLAS 0.3.31)
REF_CHUNK_S = 0.005
SHARE = 0.2  # reference time per second of measured work


def chunk() -> float:
    """Fixed mix of interpreter work and small numpy calls, like oel's."""
    rng = np.random.default_rng(0)
    acc = 0.0
    for i in range(800):
        a = rng.standard_normal((4, 4))
        acc += float(np.linalg.norm(a @ a.T))
        acc += len(str({"k": i, "v": [i, i + 1]}))
    return acc


def slowdown(work_seconds: float) -> float:
    """Run chunks for about SHARE of ``work_seconds``, at least one, and
    return how much slower than REF_CHUNK_S they ran: 1 at the reference
    speed, 2 at half of it."""
    n = max(1, round(SHARE * work_seconds / REF_CHUNK_S))
    t0 = time.perf_counter()
    for _ in range(n):
        chunk()
    return (time.perf_counter() - t0) / (n * REF_CHUNK_S)


def at_reference_speed(work_seconds: float, before: float, after: float) -> float:
    """Work time at the reference speed, from the slowdowns measured right
    before and right after the work."""
    return work_seconds * 2.0 / (before + after)
