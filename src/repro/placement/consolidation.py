"""The consolidation exercise (Section VI-B).

A :class:`Consolidator` takes translated workloads (per-CoS allocation
pairs) and a resource pool and searches for an assignment that satisfies
the resource access QoS commitments on every server while using as few
servers as possible. The default pipeline seeds the genetic search with
a greedy first-fit-decreasing assignment, so the result is always at
least as good as the greedy baseline; ``algorithm=`` selects a pure
baseline instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Mapping, Optional, Sequence

from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import PlacementError
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.genetic import (
    GeneticPlacementSearch,
    GeneticSearchConfig,
    GeneticSearchResult,
)
from repro.placement.greedy import best_fit_decreasing, first_fit_decreasing
from repro.resources.pool import ResourcePool
from repro.traces.allocation import CoSAllocationPair

Algorithm = Literal["genetic", "first_fit", "best_fit"]


@dataclass(frozen=True)
class ConsolidationResult:
    """A feasible workload placement and its capacity economics.

    Attributes
    ----------
    assignment:
        Mapping of server name to the workload names placed on it; only
        servers that host at least one workload appear.
    required_by_server:
        Required capacity ``R`` per used server.
    sum_required:
        ``C_requ``: the sum of per-server required capacities (a Table I
        column).
    sum_peak_allocations:
        ``C_peak``: the sum of per-application peak allocations (the
        other Table I column) — what provisioning without sharing would
        need.
    score:
        The consolidation objective value of the assignment.
    algorithm:
        Which placement algorithm produced the result.
    search:
        Details of the genetic search when it ran.
    """

    assignment: Mapping[str, tuple[str, ...]]
    required_by_server: Mapping[str, float]
    sum_required: float
    sum_peak_allocations: float
    score: float
    algorithm: str
    search: Optional[GeneticSearchResult] = None

    @property
    def servers_used(self) -> int:
        return len(self.assignment)

    def sharing_savings(self) -> float:
        """Fractional saving of ``C_requ`` relative to ``C_peak``.

        The paper reports 37-45% for the case study: resource sharing
        lets required capacity undercut the sum of peak allocations.
        """
        if self.sum_peak_allocations == 0:
            return 0.0
        return 1.0 - self.sum_required / self.sum_peak_allocations

    def server_of(self, workload: str) -> str:
        for server, names in self.assignment.items():
            if workload in names:
                return server
        raise PlacementError(f"workload {workload!r} is not in the assignment")

    def to_payload(self) -> dict:
        """This result as a JSON-able checkpoint document.

        Search details are deliberately not persisted: the plan-level
        outputs (assignment, capacities, score) never depend on them,
        so a restored result carries ``search=None`` exactly like one
        computed by a greedy algorithm.
        """
        return {
            "assignment": {
                server: list(names)
                for server, names in self.assignment.items()
            },
            "required_by_server": dict(self.required_by_server),
            "sum_required": self.sum_required,
            "sum_peak_allocations": self.sum_peak_allocations,
            "score": self.score,
            "algorithm": self.algorithm,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "ConsolidationResult":
        """Rebuild a persisted result; raises on malformed documents.

        Callers restoring from untrusted checkpoints catch the failure
        and recompute (see :func:`repro.placement.failure._case_from_payload`
        and the shard resume path) — a checkpoint is never load-bearing.
        """
        return cls(
            assignment={
                server: tuple(names)
                for server, names in payload["assignment"].items()
            },
            required_by_server={
                server: float(required)
                for server, required in payload["required_by_server"].items()
            },
            sum_required=float(payload["sum_required"]),
            sum_peak_allocations=float(payload["sum_peak_allocations"]),
            score=float(payload["score"]),
            algorithm=str(payload["algorithm"]),
        )


class Consolidator:
    """Runs the workload placement service for one pool configuration."""

    def __init__(
        self,
        pool: ResourcePool,
        commitment,
        *,
        config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        constraints=None,
    ):
        if len(pool) == 0:
            raise PlacementError("cannot consolidate onto an empty pool")
        self.pool = pool
        self.commitment = commitment
        self.config = config or GeneticSearchConfig()
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        #: Optional anti-affinity constraints
        #: (:class:`repro.placement.affinity.PlacementConstraints`):
        #: priced into the genetic fitness and repaired on the final
        #: assignment of any algorithm.
        self.constraints = constraints

    def consolidate(
        self,
        pairs: Sequence[CoSAllocationPair],
        algorithm: Algorithm = "genetic",
        *,
        previous: Optional[ConsolidationResult] = None,
        checkpointer: Optional[Checkpointer] = None,
        checkpoint_key: str = "consolidation",
    ) -> ConsolidationResult:
        """Place ``pairs`` onto the pool with the chosen algorithm.

        ``previous`` seeds the genetic search with an earlier plan's
        assignment: re-planning then prefers solutions close to what is
        already running, which keeps workload migrations down (each move
        disrupts an application and needs migration machinery).
        ``checkpointer`` journals the genetic search's generations under
        ``checkpoint_key`` so an interrupted consolidation resumes from
        its last completed generation (see
        :meth:`GeneticPlacementSearch.run`).
        """
        evaluator = PlacementEvaluator(
            pairs,
            self.commitment,
            tolerance=self.tolerance,
            instrumentation=self.engine.instrumentation,
        )
        return self.consolidate_with_evaluator(
            evaluator,
            algorithm,
            previous=previous,
            checkpointer=checkpointer,
            checkpoint_key=checkpoint_key,
        )

    def consolidate_with_evaluator(
        self,
        evaluator,
        algorithm: Algorithm = "genetic",
        *,
        previous: Optional[ConsolidationResult] = None,
        checkpointer: Optional[Checkpointer] = None,
        checkpoint_key: str = "consolidation",
    ) -> ConsolidationResult:
        """Run the placement algorithms against any evaluator.

        The evaluator only needs the :class:`PlacementEvaluator`
        interface (``names``, ``n_workloads``, ``peak_allocations`` and
        ``evaluate_group``); the multi-attribute extension passes a
        composite evaluator here.
        """
        instrumentation = self.engine.instrumentation
        with instrumentation.stage("placement"):
            if algorithm == "first_fit":
                assignment = first_fit_decreasing(
                    evaluator, self.pool, self.attribute
                )
                search = None
            elif algorithm == "best_fit":
                assignment = best_fit_decreasing(
                    evaluator, self.pool, self.attribute
                )
                search = None
            elif algorithm == "genetic":
                seed = first_fit_decreasing(evaluator, self.pool, self.attribute)
                extra_seeds = self._best_fit_seed(evaluator)
                extra_seeds.extend(self._correlation_seed(evaluator))
                carried = self._assignment_from_previous(evaluator, previous)
                if carried is not None:
                    extra_seeds.insert(0, carried)
                searcher = GeneticPlacementSearch(
                    evaluator,
                    self.pool,
                    self.config,
                    self.attribute,
                    engine=self.engine,
                    constraints=self.constraints,
                )
                search = searcher.run(
                    seed,
                    extra_seeds=extra_seeds,
                    checkpointer=checkpointer,
                    checkpoint_key=checkpoint_key,
                )
                assignment = search.best.assignment
            else:
                raise PlacementError(
                    f"unknown placement algorithm {algorithm!r}"
                )

            assignment = self._enforce_constraints(evaluator, assignment)
            result = self._build_result(evaluator, assignment, algorithm, search)
        instrumentation.count("placement.consolidations")
        return result

    def _enforce_constraints(self, evaluator, assignment):
        """Repair anti-affinity violations left in a final assignment.

        The genetic search only *prices* violations (a crowded pool can
        make a clean assignment unreachable mid-search) and the greedy
        algorithms ignore them entirely, so the final assignment gets a
        deterministic repair pass: surplus group members migrate to
        feasible servers in unoccupied domains (see
        :func:`repro.placement.affinity.repair_assignment`). The
        ``placement.affinity_*`` counters always report — zeros
        included — whenever constraints are enabled, so counter deltas
        are comparable across runs.
        """
        if self.constraints is None or not self.constraints.enabled:
            return assignment
        from repro.placement.affinity import ConstraintIndex, repair_assignment

        servers = list(self.pool.servers)
        index = ConstraintIndex(self.constraints, evaluator.names, servers)
        instrumentation = self.engine.instrumentation
        violations = index.pair_count(assignment)
        instrumentation.count("placement.affinity_violations", violations)
        moves = 0
        if violations:
            assignment, moves = repair_assignment(
                assignment,
                evaluator,
                servers,
                self.constraints,
                self.attribute,
            )
        instrumentation.count("placement.affinity_repairs", moves)
        remaining = index.pair_count(assignment) if violations else 0
        instrumentation.count("placement.affinity_unrepaired", remaining)
        if remaining:
            instrumentation.event(
                "placement.affinity_unrepaired",
                violations=violations,
                remaining=remaining,
            )
        return assignment

    def _best_fit_seed(self, evaluator) -> list[tuple[int, ...]]:
        """A best-fit-decreasing seed, when it places every workload.

        Packing each workload tightest can strand a later one that the
        first-fit seed (already placed) still fits, so a raising
        best-fit seed is skipped rather than failing the consolidation.
        """
        try:
            return [best_fit_decreasing(evaluator, self.pool, self.attribute)]
        except PlacementError:
            return []

    def _correlation_seed(self, evaluator) -> list[tuple[int, ...]]:
        """A correlation-aware greedy seed, when the evaluator supports it.

        Mixing anti-correlated workloads onto servers is a strong
        starting point for the genetic search (Section VIII flags demand
        correlation as worth exploiting). Composite (multi-attribute)
        evaluators do not expose the raw series, so the seed is skipped
        for them.
        """
        from repro.placement.correlation import correlation_aware_seed
        from repro.placement.evaluation import PlacementEvaluator

        if not isinstance(evaluator, PlacementEvaluator):
            return []
        try:
            return [correlation_aware_seed(evaluator, self.pool, self.attribute)]
        except PlacementError:
            return []

    def _assignment_from_previous(
        self, evaluator, previous: Optional[ConsolidationResult]
    ) -> Optional[tuple[int, ...]]:
        """Translate an earlier plan into a seed assignment, if usable.

        The previous plan is only usable when it covers exactly the
        workloads being placed and references only servers still in the
        pool; otherwise it is silently skipped (the greedy seeds remain).
        """
        if previous is None:
            return None
        server_index = {
            server.name: index
            for index, server in enumerate(self.pool.servers)
        }
        assignment = [-1] * evaluator.n_workloads
        for server_name, names in previous.assignment.items():
            index = server_index.get(server_name)
            if index is None:
                return None
            for name in names:
                try:
                    workload_index = evaluator.index_of(name)
                except PlacementError:
                    return None
                assignment[workload_index] = index
        if any(value < 0 for value in assignment):
            return None
        return tuple(assignment)

    def _build_result(
        self,
        evaluator: PlacementEvaluator,
        assignment: Sequence[int],
        algorithm: str,
        search: Optional[GeneticSearchResult],
    ) -> ConsolidationResult:
        servers = list(self.pool.servers)
        groups: dict[int, list[int]] = {}
        for workload_index, server_index in enumerate(assignment):
            groups.setdefault(int(server_index), []).append(workload_index)

        # Evaluate every used server's final group in one call when the
        # evaluator supports it (normally all cache hits after a search).
        batch_evaluate = getattr(evaluator, "evaluate_groups", None)
        used = [
            (server_index, server)
            for server_index, server in enumerate(servers)
            if groups.get(server_index)
        ]
        if batch_evaluate is not None:
            evaluations = batch_evaluate(
                [
                    (server.capacity_of(self.attribute), groups[server_index])
                    for server_index, server in used
                ]
            )
        else:
            evaluations = [
                evaluator.evaluate_group(
                    groups[server_index], server, self.attribute
                )
                for server_index, server in used
            ]
        evaluation_by_server = {
            server_index: evaluation
            for (server_index, _), evaluation in zip(used, evaluations)
        }

        named_assignment: dict[str, tuple[str, ...]] = {}
        required_by_server: dict[str, float] = {}
        score = 0.0
        for server_index, server in enumerate(servers):
            indices = groups.get(server_index)
            if not indices:
                score += 1.0
                continue
            evaluation = evaluation_by_server[server_index]
            if not evaluation.fits:
                raise PlacementError(
                    f"assignment places an infeasible workload set on "
                    f"{server.name!r}"
                )
            named_assignment[server.name] = tuple(
                evaluator.names[index] for index in sorted(indices)
            )
            required_by_server[server.name] = evaluation.required
            score += evaluation.utilization ** (2 * server.cpus)

        peaks = evaluator.peak_allocations()
        return ConsolidationResult(
            assignment=named_assignment,
            required_by_server=required_by_server,
            sum_required=float(sum(required_by_server.values())),
            sum_peak_allocations=float(peaks.sum()),
            score=score,
            algorithm=algorithm,
            search=search,
        )
