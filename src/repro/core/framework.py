"""The R-Opus facade: translate, place, and plan for failures.

:class:`ROpus` wires the framework's pieces together the way Figure 2 of
the paper draws them:

1. the pool operator supplies :class:`~repro.core.cos.PoolCommitments`
   and a :class:`~repro.resources.pool.ResourcePool`;
2. each application owner supplies a
   :class:`~repro.core.qos.QoSPolicy` (normal- and failure-mode QoS);
3. the QoS translation maps demands onto the two CoS;
4. the workload placement service consolidates the translated workloads
   onto few servers, and the failure planner reports whether a spare
   server is needed.

:meth:`ROpus.plan` runs those steps in order: translate, one
consolidation over the whole pool, then the failure check.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

from repro.core.cos import PoolCommitments
from repro.core.qos import ApplicationQoS, QoSPolicy
from repro.core.translation import QoSTranslator, TranslationResult
from repro.engine import Checkpointer, ExecutionEngine
from repro.exceptions import ConfigurationError
from repro.placement.affinity import PlacementConstraints
from repro.placement.consolidation import ConsolidationResult, Consolidator
from repro.placement.failure import (
    FailurePlanner,
    FailureReport,
    FailureSweepPolicy,
    SpareSizingCurve,
)
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.traces.trace import DemandTrace

PolicyMap = Union[Mapping[str, QoSPolicy], QoSPolicy]


def _policy_digest(policies: PolicyMap) -> object:
    """A JSON-able canonical form of the policy input.

    ``QoSPolicy`` and everything it nests are frozen dataclasses of
    floats and strings, so ``repr`` is a stable value encoding.
    """
    if isinstance(policies, QoSPolicy):
        return repr(policies)
    return sorted((name, repr(policy)) for name, policy in policies.items())


def planning_fingerprint(
    demands: Sequence[DemandTrace],
    policies: PolicyMap,
    pool: ResourcePool,
    commitments: PoolCommitments,
    search_config: GeneticSearchConfig | None,
    *,
    tolerance: float,
    attribute: str,
    algorithm: str,
    plan_failures: bool,
    relax_all_on_failure: bool,
    previous: ConsolidationResult | None,
    constraints: PlacementConstraints | None = None,
    failure_policy: FailureSweepPolicy | None = None,
) -> str:
    """A digest of everything a planning run's decisions depend on.

    Checkpoints stamped with this fingerprint are only ever resumed by
    a run whose inputs hash identically — changing a trace, the pool,
    the seed (inside ``search_config``), or any planning knob — makes
    old checkpoints read as absent instead of silently steering the
    new run. Execution backend and worker count are deliberately
    excluded: results are backend-independent, so a resume may
    legitimately use different parallelism.
    """
    document = {
        "demands": [
            [
                demand.name,
                demand.attribute,
                hashlib.sha256(demand.values.tobytes()).hexdigest(),
                repr(demand.calendar),
            ]
            for demand in demands
        ],
        "policies": _policy_digest(policies),
        "pool": [
            [
                server.name,
                server.cpus,
                sorted(server.attributes.items()),
                server.rack,
                server.zone,
            ]
            for server in pool.servers
        ],
        "commitments": repr(commitments),
        "search_config": repr(search_config),
        "tolerance": repr(tolerance),
        "attribute": attribute,
        "algorithm": algorithm,
        "plan_failures": plan_failures,
        "relax_all_on_failure": relax_all_on_failure,
        "previous": (
            None
            if previous is None
            else sorted(
                (server, list(names))
                for server, names in previous.assignment.items()
            )
        ),
        "constraints": None if constraints is None else repr(constraints),
        "failure_policy": (
            None if failure_policy is None else repr(failure_policy)
        ),
    }
    canonical = json.dumps(document, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CapacityPlan:
    """Everything the capacity manager needs from one planning run.

    ``timings`` maps stage names (``translation``, ``placement``,
    ``failure_planning``) to the seconds this run spent in each, as
    recorded by the engine's instrumentation; ``counters`` holds the
    run's counter increments (capacity searches solved as
    ``kernel.rows``, evaluation cache hits/misses, GA generations,
    bytes broadcast to workers, ...), failure-case consolidations
    included.
    """

    translations: Mapping[str, TranslationResult]
    consolidation: ConsolidationResult
    failure_report: Optional[FailureReport]
    timings: Mapping[str, float] = field(default_factory=dict)
    counters: Mapping[str, float] = field(default_factory=dict)
    #: Domain-scoped failure sweeps (scope spec → report) when the run
    #: had a :class:`~repro.placement.failure.FailureSweepPolicy`.
    domain_reports: Optional[Mapping[str, FailureReport]] = None
    #: The spares-needed-vs-failure-scope curve when the policy asked
    #: for the spare-sizing search.
    spare_curve: Optional[SpareSizingCurve] = None

    @property
    def servers_used(self) -> int:
        return self.consolidation.servers_used

    @property
    def spare_server_needed(self) -> Optional[bool]:
        """Whether failures require a spare (``None`` if not analysed)."""
        if self.failure_report is None:
            return None
        return self.failure_report.spare_server_needed

    def summary(self) -> dict[str, object]:
        """A compact report of the headline planning quantities."""
        return {
            "workloads": len(self.translations),
            "servers_used": self.servers_used,
            "sum_required": self.consolidation.sum_required,
            "sum_peak_allocations": self.consolidation.sum_peak_allocations,
            "sharing_savings": self.consolidation.sharing_savings(),
            "spare_server_needed": self.spare_server_needed,
            "failure_domains": (
                None
                if self.domain_reports is None
                else {
                    scope: report.summary()
                    for scope, report in self.domain_reports.items()
                }
            ),
            "spare_curve": (
                None
                if self.spare_curve is None
                else self.spare_curve.to_payload()
            ),
            "stage_timings": dict(self.timings),
            "counters": dict(self.counters),
            "resilience": self.resilience_summary(),
        }

    def resilience_summary(self) -> dict[str, float]:
        """The run's recovery telemetry: retries, respawns, fallbacks,
        checkpoint activity, and resumed work, pulled out of the full
        counter map so operators see degraded-but-successful runs at a
        glance (an all-zero map means the run never needed recovery)."""
        prefixes = ("resilience.", "checkpoint.")
        names = ("failure.case_resumes", "placement.ga_resumes")
        return {
            name: value
            for name, value in self.counters.items()
            if name.startswith(prefixes) or name in names
        }

    def plan_hash(self) -> str:
        """A digest of the plan's *decisions*, stable across recovery.

        Hashes what the capacity manager would act on — the
        consolidation assignment and per-server required capacities,
        plus each failure case's feasibility and assignment — and
        nothing operational (timings, counters, search trajectories).
        A run that survived injected faults via retries, or resumed
        from a checkpoint after a kill, therefore hashes identically to
        an undisturbed run; a changed hash means the *plan* changed.

        Domain-scoped sweeps and the spare-sizing curve join the
        document only when the run produced them, so plans from runs
        without a failure policy hash exactly as they always have.
        """
        document = {
            "consolidation": {
                "assignment": {
                    server: list(names)
                    for server, names in self.consolidation.assignment.items()
                },
                "required_by_server": dict(
                    self.consolidation.required_by_server
                ),
                "sum_required": self.consolidation.sum_required,
            },
            "failures": (
                None
                if self.failure_report is None
                else [
                    {
                        "failed_server": case.label,
                        "feasible": case.feasible,
                        "assignment": (
                            None
                            if case.result is None
                            else {
                                server: list(names)
                                for server, names in (
                                    case.result.assignment.items()
                                )
                            }
                        ),
                    }
                    for case in self.failure_report.cases
                ]
            ),
        }
        if self.domain_reports is not None:
            document["failure_domains"] = {
                scope: [
                    {
                        "case": case.label,
                        "feasible": case.feasible,
                        "assignment": (
                            None
                            if case.result is None
                            else {
                                server: list(names)
                                for server, names in (
                                    case.result.assignment.items()
                                )
                            }
                        ),
                    }
                    for case in report.cases
                ]
                for scope, report in self.domain_reports.items()
            }
        if self.spare_curve is not None:
            document["spare_curve"] = self.spare_curve.to_payload()
        canonical = json.dumps(document, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ROpus:
    """The composite framework, end to end.

    >>> from repro.core.cos import PoolCommitments
    >>> from repro.core.qos import QoSPolicy, case_study_qos
    >>> from repro.resources.pool import ResourcePool
    >>> from repro.resources.server import homogeneous_servers
    >>> framework = ROpus(
    ...     PoolCommitments.of(theta=0.95),
    ...     ResourcePool(homogeneous_servers(4)),
    ... )  # then framework.plan(demands, QoSPolicy(case_study_qos()))
    """

    def __init__(
        self,
        commitments: PoolCommitments,
        pool: ResourcePool,
        *,
        search_config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        checkpointer: Checkpointer | None = None,
        constraints: PlacementConstraints | None = None,
        failure_policy: FailureSweepPolicy | None = None,
    ):
        self.commitments = commitments
        self.pool = pool
        self.search_config = search_config
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.checkpointer = checkpointer
        if checkpointer is not None and checkpointer.instrumentation is None:
            checkpointer.instrumentation = self.engine.instrumentation
        #: Anti-affinity constraints, threaded into every consolidation
        #: this framework runs (the placement and the failure what-ifs
        #: plan *around* them via the priced objective).
        self.constraints = constraints
        #: What the failure check sweeps beyond the paper's
        #: single-server baseline (domain scopes, degraded servers, the
        #: spare-sizing curve). ``None`` keeps the historical behavior.
        self.failure_policy = failure_policy
        self.translator = QoSTranslator(commitments, engine=self.engine)

    def translate(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        failure_mode: bool = False,
    ) -> dict[str, TranslationResult]:
        """Run the QoS translation for every workload in one mode."""
        items: list[tuple[DemandTrace, ApplicationQoS]] = []
        seen: set[str] = set()
        for demand in demands:
            if demand.name in seen:
                raise ConfigurationError(
                    f"duplicate workload name {demand.name!r}"
                )
            seen.add(demand.name)
            items.append(
                (demand, self._qos_for(policies, demand.name, failure_mode))
            )
        results = self.translator.translate_items(items)
        return {
            demand.name: result
            for (demand, _), result in zip(items, results)
        }

    def plan(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        *,
        plan_failures: bool = True,
        relax_all_on_failure: bool = True,
        algorithm: str = "genetic",
        previous: "ConsolidationResult | None" = None,
    ) -> CapacityPlan:
        """Translate, consolidate, check failures; assemble the plan.

        ``previous`` seeds the placement search with an earlier plan so
        re-planning favours low-migration solutions (see
        :meth:`~repro.placement.consolidation.Consolidator.consolidate`).
        """
        instrumentation = self.engine.instrumentation
        baseline = instrumentation.snapshot()
        counter_baseline = instrumentation.counters()
        if self.checkpointer is not None:
            # Stamp this run's inputs on the store: checkpoints written
            # now carry the fingerprint, and any leftover documents from
            # a run over *different* inputs read as absent instead of
            # silently resuming the wrong problem.
            self.checkpointer.fingerprint = planning_fingerprint(
                demands,
                policies,
                self.pool,
                self.commitments,
                self.search_config,
                tolerance=self.tolerance,
                attribute=self.attribute,
                algorithm=algorithm,
                plan_failures=plan_failures,
                relax_all_on_failure=relax_all_on_failure,
                previous=previous,
                constraints=self.constraints,
                failure_policy=self.failure_policy,
            )
        translations = self.translate(demands, policies)
        consolidator = Consolidator(
            self.pool,
            self.commitments.cos2,
            config=self.search_config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            engine=self.engine,
            constraints=self.constraints,
        )
        consolidation = consolidator.consolidate(
            [result.pair for result in translations.values()],
            algorithm=algorithm,
            previous=previous,
            checkpointer=self.checkpointer,
        )
        failure_report = None
        domain_reports = None
        spare_curve = None
        if plan_failures:
            failure_report, domain_reports, spare_curve = self._check_failures(
                demands,
                policies,
                consolidation,
                relax_all=relax_all_on_failure,
                algorithm=algorithm,
            )
        if self.checkpointer is not None:
            # The run completed: its checkpoints are spent. Rotating
            # them out here means only interrupted runs leave resumable
            # state behind.
            self.checkpointer.clear()
        return CapacityPlan(
            translations=translations,
            consolidation=consolidation,
            failure_report=failure_report,
            timings=instrumentation.timings_since(baseline),
            counters=instrumentation.counters_since(counter_baseline),
            domain_reports=domain_reports,
            spare_curve=spare_curve,
        )

    def _check_failures(
        self,
        demands: Sequence[DemandTrace],
        policies: PolicyMap,
        consolidation: ConsolidationResult,
        *,
        relax_all: bool,
        algorithm: str,
    ) -> tuple[
        FailureReport,
        Optional[dict[str, FailureReport]],
        Optional[SpareSizingCurve],
    ]:
        """The single-server sweep, then what ``failure_policy`` adds."""
        planner = FailurePlanner(
            self.translator,
            config=self.search_config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            engine=self.engine,
            checkpointer=self.checkpointer,
        )
        failure_report = planner.plan(
            demands,
            policies,
            self.pool,
            consolidation,
            relax_all=relax_all,
            algorithm=algorithm,
        )
        policy = self.failure_policy
        if policy is None:
            return failure_report, None, None
        # Domain-scoped sweeps on top of the single-server baseline.
        # Each scope checkpoints under its own key prefix, so a killed
        # multi-scope sweep resumes every completed case regardless of
        # which scope was in flight.
        domain_reports: dict[str, FailureReport] = {}
        for scope in policy.scopes:
            domain_reports[scope] = planner.plan_scope(
                demands,
                policies,
                self.pool,
                consolidation,
                scope=scope,
                relax_all=relax_all,
                algorithm=algorithm,
                max_cases=policy.max_cases,
                sample_seed=policy.sample_seed,
                key_prefix=f"scope:{scope}",
            )
        if policy.degraded_factor is not None:
            label = (
                f"degraded:{policy.degraded_scope}"
                f"@{policy.degraded_factor:g}"
            )
            domain_reports[label] = planner.plan_degraded(
                demands,
                policies,
                self.pool,
                consolidation,
                factor=policy.degraded_factor,
                scope=policy.degraded_scope,
                relax_all=relax_all,
                algorithm=algorithm,
                key_prefix=label,
            )
        spare_curve = None
        if policy.spare_curve:
            spare_curve = planner.spare_sizing_curve(
                demands,
                policies,
                self.pool,
                consolidation,
                scopes=policy.spare_scopes,
                max_spares=policy.max_spares,
                relax_all=relax_all,
                algorithm=algorithm,
                max_cases=policy.max_cases,
                sample_seed=policy.sample_seed,
            )
        return failure_report, domain_reports or None, spare_curve

    def _qos_for(
        self, policies: PolicyMap, name: str, failure_mode: bool
    ) -> ApplicationQoS:
        if isinstance(policies, QoSPolicy):
            return policies.mode(failure_mode)
        try:
            policy = policies[name]
        except KeyError:
            raise ConfigurationError(
                f"no QoS policy given for workload {name!r}"
            ) from None
        return policy.mode(failure_mode)
