"""Single-server replay simulation (Section VI-A).

The simulator considers the assignment of a set of workloads to a single
resource: it replays the aggregate per-CoS allocation traces against the
server's capacity, scheduling CoS1 first and CoS2 from the remainder, and
computes the resource access CoS statistics:

* whether the sum of peak CoS1 allocations fits within capacity (CoS1 is
  a guarantee, not a probability);
* the measured CoS2 resource access probability, per the paper's
  definition — the minimum over weeks and slots-of-day of the ratio of
  satisfied to requested CoS2 allocation, aggregated across the days of
  each week;
* whether CoS2 demand deferred under contention is fully served within
  the deadline ``s`` (checked with a fluid FIFO backlog model).

Everything here is vectorised; the step-wise
:class:`~repro.resources.scheduler.CapacityScheduler` is the per-workload
reference model these aggregates are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.traces.allocation import CoSAllocationPair
from repro.traces.calendar import TraceCalendar

_EPSILON = 1e-9


@dataclass(frozen=True)
class AccessReport:
    """Resource access statistics for one (workloads, capacity) pairing."""

    capacity: float
    cos1_fits: bool
    cos1_peak: float
    theta_measured: float
    max_deferred_slots: int
    cos2_demand_total: float
    cos2_satisfied_on_request: float

    def deadline_ok(
        self, commitment: CoSCommitment, calendar: TraceCalendar
    ) -> bool:
        """True when all deferred CoS2 demand drains within the deadline.

        Deferral within the commitment's deadline ``s`` is allowed by the
        CoS2 contract — only waits *longer* than the deadline violate it.
        """
        return self.max_deferred_slots <= commitment.deadline_slots(calendar)

    def satisfies(self, commitment: CoSCommitment, calendar: TraceCalendar) -> bool:
        """True when this capacity honours the pool's CoS commitments."""
        if not self.cos1_fits:
            return False
        if self.theta_measured < commitment.theta - 1e-12:
            return False
        return self.deadline_ok(commitment, calendar)


class SingleServerSimulator:
    """Replays aggregate allocation traces against one capacity value."""

    def __init__(self, cos1_values: np.ndarray, cos2_values: np.ndarray, calendar: TraceCalendar):
        cos1 = np.asarray(cos1_values, dtype=float)
        cos2 = np.asarray(cos2_values, dtype=float)
        if cos1.shape != (calendar.n_observations,) or cos2.shape != (
            calendar.n_observations,
        ):
            raise SimulationError(
                "aggregate series must match the calendar length"
            )
        self.calendar = calendar
        self._cos1 = cos1
        self._cos2 = cos2
        self._cos1_peak = float(cos1.max()) if cos1.size else 0.0
        self._cos2_arrivals_cum = np.concatenate(([0.0], np.cumsum(cos2)))
        # Capacity-independent precomputation, hoisted so repeated
        # evaluate() calls (dozens per binary search) don't redo it: the
        # theta denominator (requested CoS2 per week and slot-of-day),
        # its positive mask, and the total CoS2 demand.
        self._theta_requested = calendar.slot_of_day_view(cos2).sum(axis=1)
        self._theta_positive = self._theta_requested > 0
        self._cos2_total = float(cos2.sum())

    @classmethod
    def from_pairs(cls, pairs: list[CoSAllocationPair]) -> "SingleServerSimulator":
        """Build the simulator from the workloads assigned to the server."""
        if not pairs:
            raise SimulationError("cannot simulate an empty workload set")
        calendar = pairs[0].calendar
        cos1 = np.zeros(calendar.n_observations)
        cos2 = np.zeros(calendar.n_observations)
        for pair in pairs:
            calendar.require_compatible(pair.calendar)
            cos1 += pair.cos1.values
            cos2 += pair.cos2.values
        return cls(cos1, cos2, calendar)

    @property
    def cos1_peak(self) -> float:
        return self._cos1_peak

    def evaluate(self, capacity: float) -> AccessReport:
        """Measure access statistics at one candidate capacity."""
        if capacity <= 0:
            raise SimulationError(f"capacity must be > 0, got {capacity}")
        cos1_fits = self._cos1_peak <= capacity + _EPSILON
        granted_cos1 = np.minimum(self._cos1, capacity)
        available_cos2 = np.maximum(0.0, capacity - granted_cos1)
        satisfied_now = np.minimum(self._cos2, available_cos2)

        theta = self._measure_theta(satisfied_now)
        max_deferred = self._max_deferred_slots(available_cos2)

        return AccessReport(
            capacity=float(capacity),
            cos1_fits=cos1_fits,
            cos1_peak=self._cos1_peak,
            theta_measured=theta,
            max_deferred_slots=max_deferred,
            cos2_demand_total=self._cos2_total,
            cos2_satisfied_on_request=float(satisfied_now.sum()),
        )

    def _measure_theta(self, satisfied_now: np.ndarray) -> float:
        """The paper's theta: min over weeks and slots of day.

        For week ``w`` and slot ``t``, the ratio is the sum over the
        seven days of satisfied CoS2 allocation divided by the sum of
        requested CoS2 allocation. Slots with no CoS2 request anywhere in
        the week count as fully satisfied. The requested-per-slot
        denominator is capacity-independent and precomputed in
        ``__init__``.
        """
        satisfied = self.calendar.slot_of_day_view(satisfied_now).sum(axis=1)
        ratios = np.ones_like(self._theta_requested)
        positive = self._theta_positive
        ratios[positive] = satisfied[positive] / self._theta_requested[positive]
        return float(ratios.min()) if ratios.size else 1.0

    def _max_deferred_slots(self, available_cos2: np.ndarray) -> int:
        """Longest time any deferred CoS2 demand waited (fluid FIFO model).

        The backlog after slot ``t`` is
        ``b_t = max(0, b_{t-1} + a_t - c_t)`` with arrivals ``a`` and
        service capacity ``c``; a unit arriving in slot ``t`` has been
        served within ``k`` extra slots iff cumulative service through
        ``t + k`` covers cumulative arrivals through ``t``. The returned
        value is the smallest ``k`` that works for every slot (0 when no
        demand is ever deferred).
        """
        deficits = self._cos2 - available_cos2
        prefix = np.cumsum(deficits)
        floor = np.minimum.accumulate(np.minimum(prefix, 0.0))
        backlog = prefix - floor
        if float(backlog.max(initial=0.0)) <= _EPSILON:
            return 0
        arrivals_cum = self._cos2_arrivals_cum[1:]
        served_cum = arrivals_cum - backlog
        # For each arrival slot t find the first slot where cumulative
        # service reaches the arrivals through t; served_cum is
        # non-decreasing so searchsorted applies. Index n means demand
        # arriving at t was never fully served within the trace; count
        # that wait as running to the end of the trace.
        n = arrivals_cum.shape[0]
        first_served = np.searchsorted(
            served_cum, arrivals_cum - _EPSILON, side="left"
        )
        waits = first_served - np.arange(n)
        return int(max(0, waits.max()))
