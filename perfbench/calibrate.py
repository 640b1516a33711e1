"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a shared host whose speed drifts: over windows of
tens of seconds the same jobs take a fifth to a third longer or shorter,
for every kind of code alike (CPU time follows wall time, so it is not
the scheduler).  A fixed piece of work that never touches the program is
therefore timed right after every job, in the same process.  Its mean time
over a run measures how fast the machine ran during that run, and each
timing metric is scaled by ``REFERENCE_S / mean``: it reads in seconds as
they would be at one fixed machine speed.  A change to the program moves
the job times and not the calibration, so it shows in full.

The step mixes interpreter work (integer arithmetic, dict and list
updates) with small numpy operations, as the program's own jobs do.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Mean time of one calibration step on an Intel Xeon (2 vCPU, shared),
# CPython 3.11, numpy 2.4: the speed the scaled timings refer to.
REFERENCE_S = 6.5e-4


def step() -> float:
    """Wall time of one calibration step (about REFERENCE_S)."""
    t0 = perf_counter()
    acc, table, trail = 0, {}, []
    for i in range(1500):
        acc += i * i % 7
        table[i % 97] = acc
        trail.append(acc)
    a, m = np.arange(30.0), np.eye(4)
    for _ in range(60):
        a = a * 1.0000001 + np.sqrt(a)
        m = m @ m
    return perf_counter() - t0


def mean_step(repeats: int) -> float:
    """Mean time of ``repeats`` calibration steps in a row, after one more
    that is not counted: the first step in a fresh interpreter runs half as
    fast again."""
    step()
    return sum(step() for _ in range(repeats)) / repeats
