"""Shared assignment evaluation with caching.

Every placement algorithm (genetic, greedy, bin-packing comparisons)
needs the same primitive: "what is the required capacity of this subset
of workloads on this server?". The :class:`PlacementEvaluator` owns the
stacked allocation matrices, runs the simulator + capacity search, and
memoises results by (server capacity profile, workload subset) — the
genetic search re-visits the same server contents constantly, so the
cache is what makes the search affordable.

Every lookup that misses the cache runs the paper's capacity search
once: :func:`~repro.placement.required_capacity.required_capacity`
bisects on a :class:`~repro.placement.simulator.SingleServerSimulator`
built from the subset's aggregate CoS1/CoS2 traces.
:meth:`PlacementEvaluator.evaluate_groups` and
:func:`evaluate_groups_worker` take many subsets per call and solve the
misses one after another.

For parallel backends the evaluator exposes a picklable
:class:`EvaluationPayload` (the matrices plus commitment parameters) and
the pure worker functions; workers stay stateless, compute only
cache-missing subsets, and the driver reconciles results back into the
single authoritative cache via :meth:`PlacementEvaluator.install`, so
the memoisation design survives the fan-out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine.instrumentation import Instrumentation
from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.required_capacity import (
    DEFAULT_TOLERANCE,
    RequiredCapacityResult,
    required_capacity,
)
from repro.placement.simulator import SingleServerSimulator
from repro.resources.server import ServerSpec
from repro.traces.allocation import CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@dataclass(frozen=True)
class ServerEvaluation:
    """Required capacity of one workload subset on one server."""

    fits: bool
    required: float
    utilization: float

    @property
    def feasible(self) -> bool:
        return self.fits


#: Memoisation key and work item: (server capacity, canonically sorted
#: subset rows).
GroupKey = tuple[float, tuple[int, ...]]


@dataclass(frozen=True)
class EvaluationPayload:
    """Everything a stateless worker needs to evaluate workload subsets.

    Broadcast once per executor session; ``cos1``/``cos2`` are the
    stacked per-workload allocation matrices — by far the largest part,
    which is why the parallel backend publishes them zero-copy through
    shared memory when it can (see :mod:`repro.engine.broadcast`).
    """

    cos1: np.ndarray
    cos2: np.ndarray
    calendar: TraceCalendar
    commitment: CoSCommitment
    tolerance: float


def _evaluation_from_result(
    result: RequiredCapacityResult, limit: float
) -> ServerEvaluation:
    if not result.fits:
        return ServerEvaluation(
            fits=False, required=float("inf"), utilization=float("inf")
        )
    return ServerEvaluation(
        fits=True,
        required=result.required_capacity,
        utilization=min(1.0, result.required_capacity / limit),
    )


def _canonical_rows(indices: Sequence[int], n_workloads: int) -> tuple[int, ...]:
    """Sorted, de-duplicated subset rows; raises on an out-of-range row."""
    rows = tuple(sorted({int(index) for index in indices}))
    if rows and (rows[0] < 0 or rows[-1] >= n_workloads):
        raise PlacementError(f"workload indices out of range: {indices}")
    return rows


def _simulator_for_rows(
    cos1: np.ndarray,
    cos2: np.ndarray,
    calendar: TraceCalendar,
    rows: Sequence[int],
) -> SingleServerSimulator:
    """The simulator of one canonically-sorted subset's aggregate traces."""
    index = np.asarray(rows, dtype=int)
    return SingleServerSimulator(
        cos1[index].sum(axis=0), cos2[index].sum(axis=0), calendar
    )


def _evaluate_rows(
    cos1: np.ndarray,
    cos2: np.ndarray,
    calendar: TraceCalendar,
    commitment: CoSCommitment,
    tolerance: float,
    rows: Sequence[int],
    limit: float,
) -> ServerEvaluation:
    """Scalar evaluation of one canonically-sorted subset at one limit."""
    if not rows:
        return ServerEvaluation(fits=True, required=0.0, utilization=0.0)
    result = required_capacity(
        [],
        capacity_limit=limit,
        commitment=commitment,
        tolerance=tolerance,
        simulator=_simulator_for_rows(cos1, cos2, calendar, rows),
    )
    return _evaluation_from_result(result, limit)


def evaluate_group_worker(
    payload: EvaluationPayload, item: tuple[float, tuple[int, ...]]
) -> ServerEvaluation:
    """Executor work unit: ``item`` is ``(capacity_limit, workload_rows)``.

    A pure function of the broadcast payload and the item, so results
    are identical across serial and parallel backends. The rows are
    canonicalised as :meth:`PlacementEvaluator.cache_key` does, so the
    answer equals :meth:`PlacementEvaluator.evaluate_group` on them.
    """
    limit, rows = item
    return _evaluate_rows(
        payload.cos1,
        payload.cos2,
        payload.calendar,
        payload.commitment,
        payload.tolerance,
        _canonical_rows(rows, payload.cos1.shape[0]),
        limit,
    )


def evaluate_groups_worker(
    payload: EvaluationPayload, items: tuple[GroupKey, ...]
) -> tuple[ServerEvaluation, ...]:
    """Executor work unit: a chunk of ``(limit, sorted rows)`` items.

    Returns the evaluations in item order.
    """
    return tuple(
        _evaluate_rows(
            payload.cos1,
            payload.cos2,
            payload.calendar,
            payload.commitment,
            payload.tolerance,
            rows,
            limit,
        )
        for limit, rows in items
    )


class PlacementEvaluator:
    """Evaluates workload subsets against server capacities, with memoing."""

    def __init__(
        self,
        pairs: Sequence[CoSAllocationPair],
        commitment: CoSCommitment,
        tolerance: float = DEFAULT_TOLERANCE,
        *,
        instrumentation: Optional[Instrumentation] = None,
    ):
        if not pairs:
            raise PlacementError("need at least one workload to place")
        names = [pair.name for pair in pairs]
        if len(set(names)) != len(names):
            raise PlacementError("workload names must be unique")
        self.pairs = list(pairs)
        self.names = names
        self._index_by_name = {name: index for index, name in enumerate(names)}
        self.commitment = commitment
        self.tolerance = tolerance
        self.instrumentation = instrumentation
        self.calendar: TraceCalendar = pairs[0].calendar
        for pair in pairs:
            self.calendar.require_compatible(pair.calendar)
        self._cos1 = np.vstack([pair.cos1.values for pair in self.pairs])
        self._cos2 = np.vstack([pair.cos2.values for pair in self.pairs])
        self._cache: dict[GroupKey, ServerEvaluation] = {}

    @property
    def n_workloads(self) -> int:
        return len(self.pairs)

    def index_of(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise PlacementError(f"unknown workload {name!r}") from None

    def peak_allocations(self) -> np.ndarray:
        """Per-workload peak total allocation (the C_peak contributions)."""
        return (self._cos1 + self._cos2).max(axis=1)

    def evaluate_group(
        self,
        indices: Sequence[int],
        server: ServerSpec,
        attribute: str = "cpu",
    ) -> ServerEvaluation:
        """Required capacity of the workloads ``indices`` on ``server``."""
        key = self.cache_key(indices, server, attribute)
        cached = self._cache.get(key)
        if cached is not None:
            self._count("placement.cache_hits")
            return cached
        self._count("placement.cache_misses")
        evaluation = self._evaluate_key(key)
        self._cache[key] = evaluation
        return evaluation

    def evaluate_groups(
        self, items: Sequence[tuple[float, Sequence[int]]]
    ) -> list[ServerEvaluation]:
        """Evaluate many ``(capacity limit, subset)`` items at once.

        Cache-hitting items are answered from the memo; each distinct
        miss is searched once and installed in the cache. Results are
        identical to calling :meth:`evaluate_group` one by one.
        """
        keys = [
            (float(limit), _canonical_rows(rows, self.n_workloads))
            for limit, rows in items
        ]
        missing: dict[GroupKey, None] = {}
        for key in keys:
            if key in self._cache:
                self._count("placement.cache_hits")
            elif key not in missing:
                self._count("placement.cache_misses")
                missing[key] = None
        for key in missing:
            self._cache[key] = self._evaluate_key(key)
        return [self._cache[key] for key in keys]

    def cache_key(
        self, indices: Sequence[int], server: ServerSpec, attribute: str = "cpu"
    ) -> GroupKey:
        """The memoisation key for one (server, workload subset) pairing.

        The subset is canonicalised (sorted, de-duplicated) here, once,
        so every downstream consumer — the capacity search, worker
        shipping — reuses the same sorted tuple instead of re-sorting
        per evaluation.
        """
        return (
            server.capacity_of(attribute),
            _canonical_rows(indices, self.n_workloads),
        )

    def is_cached(self, key: GroupKey) -> bool:
        return key in self._cache

    def install(self, key: GroupKey, evaluation: ServerEvaluation) -> None:
        """Merge a worker-computed evaluation into the driver-side cache."""
        self._cache.setdefault(key, evaluation)

    def worker_payload(self) -> EvaluationPayload:
        """The picklable state a stateless worker needs (broadcast once)."""
        return EvaluationPayload(
            cos1=self._cos1,
            cos2=self._cos2,
            calendar=self.calendar,
            commitment=self.commitment,
            tolerance=self.tolerance,
        )

    def search_result(
        self,
        indices: Sequence[int],
        server: ServerSpec,
        attribute: str = "cpu",
    ) -> RequiredCapacityResult:
        """Full (uncached) search result, including the access report."""
        rows = _canonical_rows(indices, self.n_workloads)
        if not rows:
            raise PlacementError("cannot build a simulator for no workloads")
        simulator = _simulator_for_rows(self._cos1, self._cos2, self.calendar, rows)
        return required_capacity(
            [],
            capacity_limit=server.capacity_of(attribute),
            commitment=self.commitment,
            tolerance=self.tolerance,
            simulator=simulator,
        )

    def _evaluate_key(self, key: GroupKey) -> ServerEvaluation:
        limit, rows = key
        if rows:
            self._count("kernel.rows")
        return _evaluate_rows(
            self._cos1,
            self._cos2,
            self.calendar,
            self.commitment,
            self.tolerance,
            rows,
            limit,
        )

    def _count(self, name: str, increment: float = 1) -> None:
        if self.instrumentation is not None:
            self.instrumentation.count(name, increment)
