"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared host the machine's speed drifts by tens of percent over
minutes: ten runs of the same benchmark a few minutes apart gave
case-study plan times from 0.98 s to 1.36 s. :func:`calibrate` times a
fixed pass shaped like the planner's own work — summing subsets of a
26-workload, four-week, five-minute allocation matrix, replaying each
sum against capacities with NumPy, and memoising results in Python
dictionaries — that no change to ``repro`` can touch. A run times it
between its plans; :func:`speed_scale` turns the run's median
calibration time into the factor that scales the run's wall times to a
machine on which one pass takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds one calibration pass takes on the reference host (a 2-vCPU
#: Intel Xeon virtual machine, Python 3.11, NumPy 2.4): the median of 30.
REFERENCE_S = 0.033

WORKLOADS = 26
SLOTS = 4 * 7 * 288
CAPACITIES = (8.0, 12.0)

_rng = np.random.default_rng(2006)
_COS1 = _rng.random((WORKLOADS, SLOTS)) * 3.0
_COS2 = _rng.random((WORKLOADS, SLOTS)) * 2.0
_SUBSETS = [
    tuple(sorted(_rng.choice(WORKLOADS, size=int(size), replace=False)))
    for size in _rng.integers(2, 6, size=40)
]


def calibrate() -> float:
    """Wall seconds of one fixed calibration pass."""
    start = time.perf_counter()
    memo: dict = {}
    for rows in _SUBSETS:
        index = np.asarray(rows)
        cos1 = _COS1[index].sum(axis=0)
        cos2 = _COS2[index].sum(axis=0)
        arrivals = np.cumsum(cos2)
        for capacity in CAPACITIES:
            available = np.maximum(0.0, capacity - np.minimum(cos1, capacity))
            prefix = np.cumsum(cos2 - available)
            backlog = prefix - np.minimum.accumulate(np.minimum(prefix, 0.0))
            np.searchsorted(arrivals - backlog, arrivals - 1e-9)
            memo[(capacity, rows)] = float(np.minimum(cos2, available).sum())
        for probe in range(30):
            memo.get((probe, rows))
            tuple(sorted(set(rows)))
    return time.perf_counter() - start


def speed_scale(samples: list[float]) -> float:
    """Factor from this run's wall seconds to reference-speed seconds."""
    return REFERENCE_S / statistics.median(samples)
