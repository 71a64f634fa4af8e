"""Required-capacity search (Section VI-A).

Given a set of workloads tentatively assigned to a server, find the
smallest capacity value that satisfies the pool's CoS commitments — the
server's *required capacity* ``R``. The paper uses a binary search, which
is sound because commitment satisfaction is monotone in capacity: more
capacity can only raise the measured theta and shorten deferrals.

Preconditions mirror the paper: if the sum of peak CoS1 allocations
exceeds the capacity limit the workloads do not fit at all; otherwise the
search brackets between that CoS1 peak (the floor any valid capacity must
reach) and the attribute's capacity limit ``L``.

Each probe asks :meth:`SingleServerSimulator.meets` for a yes/no answer;
the access report of the answer is only built when a caller reads
:attr:`RequiredCapacityResult.report`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.simulator import AccessReport, SingleServerSimulator
from repro.traces.allocation import CoSAllocationPair

DEFAULT_TOLERANCE = 0.01


@dataclass(frozen=True)
class RequiredCapacityResult:
    """Outcome of the required-capacity search for one server.

    ``report`` is the simulator's access report at the required capacity
    (at the capacity limit when the workloads do not fit; ``None`` when
    their CoS1 peak alone exceeds the limit). It is computed on first
    access.
    """

    fits: bool
    required_capacity: float
    simulator: Optional[SingleServerSimulator] = field(
        default=None, repr=False, compare=False
    )
    report_capacity: Optional[float] = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def report(self) -> Optional[AccessReport]:
        if self.simulator is None or self.report_capacity is None:
            return None
        return self.simulator.evaluate(self.report_capacity)


def required_capacity(
    pairs: Sequence[CoSAllocationPair],
    capacity_limit: float,
    commitment: CoSCommitment,
    tolerance: float = DEFAULT_TOLERANCE,
    simulator: SingleServerSimulator | None = None,
) -> RequiredCapacityResult:
    """Binary-search the smallest capacity satisfying the commitments.

    Parameters
    ----------
    pairs:
        The workloads assigned to the server (ignored when ``simulator``
        is supplied prebuilt).
    capacity_limit:
        The attribute's capacity limit ``L``; the search never reports a
        required capacity above it.
    commitment:
        The pool's CoS2 commitment (theta and deadline).
    tolerance:
        Absolute capacity resolution of the search; the returned value
        satisfies the commitments and is within ``tolerance`` of the true
        minimum.

    Returns a result with ``fits=False`` when even the full limit cannot
    satisfy the commitments (or CoS1 peaks alone exceed the limit).
    """
    if capacity_limit <= 0:
        raise SimulationError(
            f"capacity_limit must be > 0, got {capacity_limit}"
        )
    if tolerance <= 0:
        raise SimulationError(f"tolerance must be > 0, got {tolerance}")
    if simulator is None:
        simulator = SingleServerSimulator.from_pairs(list(pairs))

    if simulator.cos1_peak > capacity_limit + 1e-9:
        return RequiredCapacityResult(fits=False, required_capacity=float("inf"))

    theta = commitment.theta
    deadline_slots = commitment.deadline_slots(simulator.calendar)

    def result(fits: bool, capacity: float) -> RequiredCapacityResult:
        return RequiredCapacityResult(
            fits=fits,
            required_capacity=capacity if fits else float("inf"),
            simulator=simulator,
            report_capacity=capacity,
        )

    if not simulator.meets(capacity_limit, theta, deadline_slots):
        return result(False, capacity_limit)

    # Bracket: `high` always satisfies; `low` is a floor that may not.
    low = max(simulator.cos1_peak, tolerance)
    high = float(capacity_limit)
    if low < high:
        if simulator.meets(low, theta, deadline_slots):
            return result(True, low)
        while high - low > tolerance:
            mid = (low + high) / 2.0
            if simulator.meets(mid, theta, deadline_slots):
                high = mid
            else:
                low = mid
    return result(True, high)
