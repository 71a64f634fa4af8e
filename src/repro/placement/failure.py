"""Failure-mode planning (Section VI-C), with correlated failure domains.

Starting from a normal-mode consolidation, the planner perturbs the pool
with a fault scenario, switches the affected applications (those hosted
on the faulted servers) to their failure-mode QoS requirements, and
re-runs the consolidation on the surviving capacity. If every scenario
in a sweep can be absorbed, the pool needs no spare server — the
applications ride out the repair window at their (typically relaxed)
failure-mode QoS.

Scenario families (one :class:`FaultScenario` each):

* **single-server loss** (:meth:`FailurePlanner.plan`) — the paper's
  sweep: remove one used server at a time;
* **k-concurrent loss** (:meth:`FailurePlanner.plan_multi`) — every
  combination of ``k`` used servers, globally or drawn *within* one
  rack/zone (correlated faults); combinatorial spaces beyond
  :data:`MAX_EXHAUSTIVE_CASES` are sampled with a deterministic seeded
  draw instead of refused;
* **whole-domain loss** (:meth:`FailurePlanner.plan_domains`) — every
  rack or zone that hosts workloads fails at once (the
  :class:`~repro.resources.server.ServerSpec` topology labels define
  the domains);
* **degraded servers** (:meth:`FailurePlanner.plan_degraded`) — the
  servers of a domain *survive* with their capacity limits scaled by a
  factor in ``(0, 1)`` rather than disappearing; their residents still
  fall back to failure-mode QoS for the repair window.

:meth:`FailurePlanner.spare_sizing_curve` searches, per failure scope,
for the smallest number of cloned spare servers that makes the sweep
fully absorbable — the spares-needed-vs-failure-scope curve the
capacity outlook reports.

The planner deliberately re-translates only the affected applications by
default; pass ``relax_all=True`` to apply failure-mode QoS to every
application during the what-if (the cheaper, pool-wide degraded posture
used in the paper's case-study discussion of Table I).

Fan-out: every what-if case is independent — translate the ensemble
under the case's QoS mix, consolidate on the surviving capacity — so the
sweep maps cases through the execution engine. Each work unit is a pure
function of a broadcast :class:`_FailureSweepPayload` (commitments, pool,
demands, policies, search config) and its ``(scenario, affected
workloads)`` item; inner consolidations run serially inside the worker
with their own deterministic seeded search, so results are identical
across backends. Each case returns its counter increments alongside,
and the driver folds them into its instrumentation. Completed cases are
checkpointed per wave under keys derived from the scenario's structured
fields, so killed sweeps resume; a resumed case adds no counters.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from repro.core.cos import PoolCommitments
from repro.core.qos import QoSPolicy
from repro.engine import Checkpointer, ExecutionEngine, Instrumentation
from repro.exceptions import PlacementError
from repro.placement.consolidation import ConsolidationResult, Consolidator
from repro.placement.evaluation import PlacementEvaluator
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import DOMAIN_KINDS
from repro.traces.trace import DemandTrace
from repro.util.rng import derive_rng

#: Exhaustive multi-failure sweeps stop here: when a sweep's
#: combination space ``C(n, k)`` (summed over domains for
#: within-domain draws) exceeds this cap, the sweep evaluates a
#: deterministic seeded sample of this many combinations instead.
#: The ``failure.sweep_exhaustive`` / ``failure.sweep_sampled``
#: counters record which branch a run took.
MAX_EXHAUSTIVE_CASES = 512


def parse_scope(scope: str) -> tuple[str, Optional[int]]:
    """Parse a failure-scope spec into ``(domain kind, k)``.

    ``"server"`` — single-server loss; ``"server:2"`` — two concurrent
    losses anywhere; ``"rack"``/``"zone"`` — whole-domain loss;
    ``"rack:2"`` — two concurrent losses drawn within each rack.
    ``k is None`` means the whole domain fails at once.
    """
    base, _, k_text = scope.partition(":")
    if base not in DOMAIN_KINDS:
        raise PlacementError(
            f"failure scope must start with one of {DOMAIN_KINDS}, "
            f"got {scope!r}"
        )
    if not k_text:
        return base, 1 if base == "server" else None
    try:
        k = int(k_text)
    except ValueError:
        raise PlacementError(
            f"failure scope {scope!r}: expected an integer after ':'"
        ) from None
    if k < 1:
        raise PlacementError(f"failure scope {scope!r}: k must be >= 1")
    return base, k


def _scope_width(scope: str) -> tuple[int, float]:
    """A sortable width key: wider scopes sort later.

    Ordered by domain granularity first (server < rack < zone), then by
    the concurrent-loss count ``k`` (whole-domain loss counts as wider
    than any ``k``-subset of the same granularity).
    """
    base, k = parse_scope(scope)
    return DOMAIN_KINDS.index(base), math.inf if k is None else float(k)


def _scenario_label(
    kind: str,
    domain: Optional[str],
    failed_servers: tuple[str, ...],
    degraded: tuple[tuple[str, float], ...],
) -> str:
    """The stable display / checkpoint identity of one scenario.

    Built from structured fields only — never parsed back. Plain
    single- and multi-server losses keep the historical ``"+"``-joined
    form, so flat-pool checkpoint keys and plan hashes are unchanged.
    """
    if degraded:
        core = "degraded:" + "+".join(
            f"{name}@{factor:g}" for name, factor in degraded
        )
    else:
        core = "+".join(failed_servers)
    if kind != "server" and domain is not None:
        return f"{kind}:{domain}:{core}"
    return core


@dataclass(frozen=True)
class FaultScenario:
    """One fault to what-if: servers lost and/or degraded together.

    ``kind`` names the scope family (``"server"``, ``"rack"``,
    ``"zone"``); ``domain`` carries the rack/zone label for
    domain-scoped scenarios. ``degraded`` lists ``(server, factor)``
    pairs for servers that survive with scaled capacity.
    """

    failed_servers: tuple[str, ...] = ()
    degraded: tuple[tuple[str, float], ...] = ()
    kind: str = "server"
    domain: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.failed_servers and not self.degraded:
            raise PlacementError(
                "a fault scenario must fail or degrade at least one server"
            )
        if self.kind not in DOMAIN_KINDS:
            raise PlacementError(
                f"scenario kind must be one of {DOMAIN_KINDS}, "
                f"got {self.kind!r}"
            )
        for name, factor in self.degraded:
            if not 0.0 < factor < 1.0:
                raise PlacementError(
                    f"degraded factor for {name!r} must be in (0, 1), "
                    f"got {factor}"
                )

    @property
    def label(self) -> str:
        return _scenario_label(
            self.kind, self.domain, self.failed_servers, self.degraded
        )


@dataclass(frozen=True)
class FailureCase:
    """Outcome of one failure what-if.

    ``failed_servers`` is the structured identity of the fault (empty
    for pure degraded-capacity scenarios); ``degraded`` lists the
    ``(server, factor)`` pairs that survived with scaled limits;
    ``kind``/``domain`` record the scope the case came from.
    """

    failed_servers: tuple[str, ...]
    feasible: bool
    affected_workloads: tuple[str, ...]
    result: ConsolidationResult | None
    kind: str = "server"
    domain: Optional[str] = None
    degraded: tuple[tuple[str, float], ...] = ()

    @property
    def servers_used(self) -> int | None:
        return self.result.servers_used if self.result is not None else None

    @property
    def label(self) -> str:
        """The case's stable identity (matches its scenario's label)."""
        return _scenario_label(
            self.kind, self.domain, self.failed_servers, self.degraded
        )

    @property
    def failed_server(self) -> str:
        """Deprecated: the ``"+"``-joined display string.

        Use :attr:`failed_servers` (structured) or :attr:`label`
        (display/checkpoint identity) instead; this property exists only
        for callers written against the pre-domain API.
        """
        warnings.warn(
            "FailureCase.failed_server is deprecated; use "
            "FailureCase.failed_servers or FailureCase.label",
            DeprecationWarning,
            stacklevel=2,
        )
        return "+".join(self.failed_servers)


@dataclass(frozen=True)
class FailureReport:
    """All what-if cases of one sweep over one normal-mode plan."""

    cases: tuple[FailureCase, ...]

    @property
    def spare_server_needed(self) -> bool:
        """True when at least one failure cannot be absorbed in place."""
        return any(not case.feasible for case in self.cases)

    @property
    def all_supported(self) -> bool:
        return not self.spare_server_needed

    @property
    def infeasible_cases(self) -> tuple[FailureCase, ...]:
        return tuple(case for case in self.cases if not case.feasible)

    def case_for(self, label: str) -> FailureCase:
        """Look up a case by its label (a server name for the single
        sweep, a scenario label otherwise)."""
        for case in self.cases:
            if case.label == label or "+".join(case.failed_servers) == label:
                return case
        raise PlacementError(f"no failure case for server {label!r}")

    def summary(self) -> dict[str, object]:
        return {
            "cases": len(self.cases),
            "infeasible": len(self.infeasible_cases),
            "all_supported": self.all_supported,
        }


@dataclass(frozen=True)
class SparePoint:
    """One scope's entry on the spares-needed-vs-failure-scope curve."""

    scope: str
    cases: int
    infeasible_without_spares: int
    #: Smallest spare count that absorbs every case; ``None`` when even
    #: ``max_spares`` spares were not enough.
    spares_needed: Optional[int]


@dataclass(frozen=True)
class SpareSizingCurve:
    """Spares needed per failure scope, for one pool and plan."""

    points: tuple[SparePoint, ...]
    max_spares: int

    def spares_for(self, scope: str) -> Optional[int]:
        for point in self.points:
            if point.scope == scope:
                return point.spares_needed
        raise PlacementError(f"no spare-sizing point for scope {scope!r}")

    def monotone_in_scope(self) -> bool:
        """True when shrinking the failure scope never needs more spares.

        Points are ordered narrow → wide by :func:`_scope_width`; a
        scope the search could not satisfy within ``max_spares`` counts
        as needing ``max_spares + 1``.
        """
        ordered = sorted(self.points, key=lambda point: _scope_width(point.scope))
        needed = [
            point.spares_needed
            if point.spares_needed is not None
            else self.max_spares + 1
            for point in ordered
        ]
        return all(a <= b for a, b in zip(needed, needed[1:]))

    def to_payload(self) -> dict[str, object]:
        """A JSON-able form (plan summaries, benchmark artifacts)."""
        return {
            "max_spares": self.max_spares,
            "points": [
                {
                    "scope": point.scope,
                    "cases": point.cases,
                    "infeasible_without_spares": (
                        point.infeasible_without_spares
                    ),
                    "spares_needed": point.spares_needed,
                }
                for point in self.points
            ],
        }


@dataclass(frozen=True)
class FailureSweepPolicy:
    """What the pipeline's ``failure_check`` stage should sweep.

    The single-server sweep always runs (it is the paper's baseline
    report); ``scopes`` adds domain-scoped sweeps on top (see
    :func:`parse_scope` for the spec grammar). ``degraded_factor``
    additionally sweeps degraded-server scenarios at ``degraded_scope``
    granularity; ``spare_curve`` runs the spare-sizing search over
    ``spare_scopes`` (defaulting to the granularities the pool's
    topology actually has). ``max_cases``/``sample_seed`` bound the
    combinatorial sweeps (``None`` means
    :data:`MAX_EXHAUSTIVE_CASES` / seed ``0``).
    """

    scopes: tuple[str, ...] = ("rack",)
    degraded_factor: Optional[float] = None
    degraded_scope: str = "server"
    spare_curve: bool = False
    spare_scopes: Optional[tuple[str, ...]] = None
    max_spares: int = 4
    max_cases: Optional[int] = None
    sample_seed: Optional[int] = None

    def __post_init__(self) -> None:
        for scope in self.scopes + (self.spare_scopes or ()):
            parse_scope(scope)
        parse_scope(self.degraded_scope)
        if self.degraded_factor is not None and not (
            0.0 < self.degraded_factor < 1.0
        ):
            raise PlacementError(
                f"degraded_factor must be in (0, 1), "
                f"got {self.degraded_factor}"
            )
        if self.max_spares < 0:
            raise PlacementError(
                f"max_spares must be >= 0, got {self.max_spares}"
            )
        if self.max_cases is not None and self.max_cases < 1:
            raise PlacementError(
                f"max_cases must be >= 1, got {self.max_cases}"
            )


@dataclass(frozen=True)
class _FailureSweepPayload:
    """Picklable state broadcast once per failure sweep.

    Carries commitments rather than the driver's translator so engines
    (which may hold live process pools) never cross process boundaries.
    """

    commitments: PoolCommitments
    config: GeneticSearchConfig | None
    tolerance: float
    attribute: str
    pool: object
    demands: tuple[DemandTrace, ...]
    policies: Mapping[str, QoSPolicy] | QoSPolicy
    relax_all: bool
    algorithm: str

    def __getstate__(self) -> dict:
        # The lazily attached scratch (see ``_scratch_for``) holds live
        # evaluators; it must never cross a process boundary.
        state = dict(self.__dict__)
        state.pop("_scratch", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)


class _SweepScratch:
    """Process-local memo shared across one sweep's what-if cases.

    Everything memoised here is a pure function of the broadcast
    payload: a workload's failure-mode translation does not depend on
    which server failed, and with ``relax_all`` every case degrades the
    same ensemble — so the cases share one translation table and, per
    distinct QoS mix, one :class:`PlacementEvaluator` whose
    required-capacity memo carries over from case to case. Sharing
    changes no results (cache hits return exactly what a fresh search
    would), it only removes re-derivation; the serial backend shares
    across the whole sweep, parallel workers share whatever cases land
    in the same process. Degraded-capacity scenarios only change
    server *limits*, never the translated workloads, so they share the
    same memo.

    Every case's consolidation counts into the scratch's one
    ``instrumentation``; a case's counter delta is its share.
    """

    def __init__(self) -> None:
        self.translations: dict = {}
        self.evaluators: dict = {}
        self.instrumentation = Instrumentation()


def _scratch_for(payload: _FailureSweepPayload) -> _SweepScratch:
    """The payload's scratch, attached lazily to the payload itself.

    Each worker process unpickles its own payload copy (broadcast once
    per session), so hanging the scratch off that copy keeps it
    process-local without any module-level registry — the scratch's
    lifetime is exactly the payload's, and a new sweep starts cold by
    construction. ``object.__setattr__`` is the sanctioned escape
    hatch for caching on a frozen dataclass.
    """
    scratch = getattr(payload, "_scratch", None)
    if scratch is None:
        scratch = _SweepScratch()
        object.__setattr__(payload, "_scratch", scratch)
    return scratch


def _failure_case_worker(
    payload: _FailureSweepPayload,
    item: tuple[FaultScenario, tuple[str, ...]],
) -> tuple[FailureCase, dict[str, float]]:
    """Executor work unit: evaluate one failure what-if end to end.

    Returns the case and the counter increments its consolidation made.
    """
    from repro.core.translation import QoSTranslator

    scenario, affected = item
    scratch = _scratch_for(payload)
    planner = FailurePlanner(
        QoSTranslator(payload.commitments),
        config=payload.config,
        tolerance=payload.tolerance,
        attribute=payload.attribute,
        engine=ExecutionEngine.serial(scratch.instrumentation),
    )
    demand_by_name = {demand.name: demand for demand in payload.demands}
    before = scratch.instrumentation.counters()
    case = planner._evaluate_failure(
        scenario,
        set(affected),
        demand_by_name,
        payload.policies,
        payload.pool,
        relax_all=payload.relax_all,
        algorithm=payload.algorithm,
        scratch=scratch,
    )
    return case, scratch.instrumentation.counters_since(before)


def _case_to_payload(case: FailureCase) -> dict:
    """A :class:`FailureCase` as a JSON-able checkpoint document.

    Structured fields only: nothing downstream re-parses a joined
    display string.
    """
    result = case.result
    return {
        "failed_servers": list(case.failed_servers),
        "kind": case.kind,
        "domain": case.domain,
        "degraded": [[name, factor] for name, factor in case.degraded],
        "feasible": case.feasible,
        "affected_workloads": list(case.affected_workloads),
        "result": None if result is None else result.to_payload(),
    }


def _case_from_payload(payload: dict) -> FailureCase | None:
    """Rebuild a persisted what-if case; ``None`` when unreadable.

    Search details are not persisted (the sweep's plan-level outputs —
    feasibility, assignment, capacities — never depend on them), so a
    restored case carries ``search=None`` exactly like a case computed
    by a greedy algorithm. Pre-domain checkpoints (which persisted a
    joined ``failed_server`` string) read as unreadable and recompute.
    """
    try:
        doc = payload["result"]
        result = None if doc is None else ConsolidationResult.from_payload(doc)
        domain = payload["domain"]
        return FailureCase(
            failed_servers=tuple(
                str(name) for name in payload["failed_servers"]
            ),
            feasible=bool(payload["feasible"]),
            affected_workloads=tuple(payload["affected_workloads"]),
            result=result,
            kind=str(payload["kind"]),
            domain=None if domain is None else str(domain),
            degraded=tuple(
                (str(name), float(factor))
                for name, factor in payload["degraded"]
            ),
        )
    except (KeyError, TypeError, ValueError, AttributeError):
        return None


class FailurePlanner:
    """Evaluates whether fault scenarios can be absorbed by the pool."""

    def __init__(
        self,
        translator,
        *,
        config: GeneticSearchConfig | None = None,
        tolerance: float = 0.01,
        attribute: str = "cpu",
        engine: ExecutionEngine | None = None,
        checkpointer: Checkpointer | None = None,
    ):
        self.translator = translator
        self.config = config
        self.tolerance = tolerance
        self.attribute = attribute
        self.engine = engine if engine is not None else ExecutionEngine.serial()
        self.checkpointer = checkpointer

    def plan(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        relax_all: bool = False,
        algorithm: str = "genetic",
        key_prefix: str = "",
    ) -> FailureReport:
        """Run the what-if for every server used by the normal plan.

        Parameters
        ----------
        demands:
            The full workload ensemble (demand traces).
        policies:
            Per-workload :class:`~repro.core.qos.QoSPolicy` (or one
            shared policy) providing normal- and failure-mode QoS.
        pool:
            The pool the normal plan was computed for.
        normal_result:
            The normal-mode consolidation to perturb.
        relax_all:
            Apply failure-mode QoS to every application during the
            what-if instead of only those hosted on the failed server.
        """
        demand_by_name = {demand.name: demand for demand in demands}
        missing = [
            name
            for names in normal_result.assignment.values()
            for name in names
            if name not in demand_by_name
        ]
        if missing:
            raise PlacementError(
                f"normal plan references unknown workloads: {missing}"
            )

        items = [
            (
                FaultScenario(failed_servers=(failed_server,)),
                tuple(sorted(set(hosted))),
            )
            for failed_server, hosted in normal_result.assignment.items()
        ]
        return self._sweep(
            items, demands, policies, pool, relax_all, algorithm,
            key_prefix=key_prefix,
        )

    def plan_multi(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        concurrent_failures: int = 2,
        relax_all: bool = False,
        algorithm: str = "genetic",
        within_domain: Optional[str] = None,
        max_cases: Optional[int] = None,
        sample_seed: Optional[int] = None,
        key_prefix: str = "",
    ) -> FailureReport:
        """What-if combinations of ``concurrent_failures`` used servers.

        The paper notes the single-failure scenario "can be extended to
        multiple node failures" (Section III). With ``within_domain``
        set to ``"rack"`` or ``"zone"``, combinations are drawn per
        domain — the correlated-fault model where concurrent losses
        cluster inside a failure domain.

        The number of cases grows combinatorially; when the combination
        space exceeds ``max_cases`` (default
        :data:`MAX_EXHAUSTIVE_CASES`) the sweep evaluates a
        deterministic sample of ``max_cases`` combinations drawn from a
        generator seeded by ``sample_seed`` (falling back to the search
        config's seed, then ``0``) instead of refusing or exploding.
        """
        if concurrent_failures < 1:
            raise PlacementError(
                f"concurrent_failures must be >= 1, got {concurrent_failures}"
            )
        used_servers = list(normal_result.assignment)
        if concurrent_failures > len(used_servers):
            raise PlacementError(
                f"cannot fail {concurrent_failures} of "
                f"{len(used_servers)} used servers"
            )
        kind = "server" if within_domain is None else within_domain
        if within_domain is None:
            groups: list[tuple[Optional[str], list[str]]] = [
                (None, used_servers)
            ]
        else:
            used = set(used_servers)
            groups = [
                (label, [name for name in members if name in used])
                for label, members in pool.domains(within_domain).items()
            ]
            groups = [
                (label, members)
                for label, members in groups
                if len(members) >= concurrent_failures
            ]
            if not groups:
                # No domain concentrates k used servers, so there is no
                # correlated k-fault to draw — the sweep is trivially
                # all-supported (unlike the global draw above, where
                # asking for more failures than used servers exist is a
                # caller error).
                return FailureReport(cases=())
        combos = self._combinations(
            groups, concurrent_failures, max_cases, sample_seed
        )
        items = []
        for domain, combo in combos:
            affected = {
                name
                for server in combo
                for name in normal_result.assignment[server]
            }
            items.append(
                (
                    FaultScenario(
                        failed_servers=combo, kind=kind, domain=domain
                    ),
                    tuple(sorted(affected)),
                )
            )
        return self._sweep(
            items, demands, policies, pool, relax_all, algorithm,
            key_prefix=key_prefix,
        )

    def plan_domains(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        scope: str = "rack",
        relax_all: bool = False,
        algorithm: str = "genetic",
        key_prefix: str = "",
    ) -> FailureReport:
        """Whole-domain loss: every rack (or zone) fails at once.

        Only domains hosting at least one workload of the normal plan
        are swept (losing an idle domain leaves the running assignment
        untouched, exactly like the single sweep's unused servers).
        """
        if scope not in ("rack", "zone"):
            raise PlacementError(
                f"domain scope must be 'rack' or 'zone', got {scope!r}"
            )
        items = []
        for label, members in pool.domains(scope).items():
            affected = {
                name
                for server in members
                for name in normal_result.assignment.get(server, ())
            }
            if not affected:
                continue
            items.append(
                (
                    FaultScenario(
                        failed_servers=tuple(members),
                        kind=scope,
                        domain=label,
                    ),
                    tuple(sorted(affected)),
                )
            )
        return self._sweep(
            items, demands, policies, pool, relax_all, algorithm,
            key_prefix=key_prefix,
        )

    def plan_degraded(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        factor: float = 0.5,
        scope: str = "server",
        relax_all: bool = False,
        algorithm: str = "genetic",
        key_prefix: str = "",
    ) -> FailureReport:
        """Degraded-server what-ifs: domains survive at scaled capacity.

        Each swept domain's servers stay in the pool with every capacity
        limit multiplied by ``factor`` (see
        :meth:`~repro.resources.pool.ResourcePool.with_degraded`); the
        workloads hosted there switch to failure-mode QoS for the
        repair window, exactly as if the servers had died — except the
        degraded capacity is still available to the re-plan.
        """
        if not 0.0 < factor < 1.0:
            raise PlacementError(
                f"degraded capacity factor must be in (0, 1), got {factor}"
            )
        base, _ = parse_scope(scope)
        items = []
        for label, members in pool.domains(base).items():
            affected = {
                name
                for server in members
                for name in normal_result.assignment.get(server, ())
            }
            if not affected:
                continue
            items.append(
                (
                    FaultScenario(
                        degraded=tuple(
                            (server, factor) for server in members
                        ),
                        kind=base,
                        domain=label if base != "server" else None,
                    ),
                    tuple(sorted(affected)),
                )
            )
        return self._sweep(
            items, demands, policies, pool, relax_all, algorithm,
            key_prefix=key_prefix,
        )

    def plan_scope(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        scope: str,
        relax_all: bool = False,
        algorithm: str = "genetic",
        max_cases: Optional[int] = None,
        sample_seed: Optional[int] = None,
        key_prefix: str = "",
    ) -> FailureReport:
        """Dispatch one scope spec (see :func:`parse_scope`) to a sweep."""
        base, k = parse_scope(scope)
        if base == "server":
            if k == 1:
                return self.plan(
                    demands, policies, pool, normal_result,
                    relax_all=relax_all, algorithm=algorithm,
                    key_prefix=key_prefix,
                )
            return self.plan_multi(
                demands, policies, pool, normal_result,
                concurrent_failures=k or 2, relax_all=relax_all,
                algorithm=algorithm, max_cases=max_cases,
                sample_seed=sample_seed, key_prefix=key_prefix,
            )
        if k is None:
            return self.plan_domains(
                demands, policies, pool, normal_result, scope=base,
                relax_all=relax_all, algorithm=algorithm,
                key_prefix=key_prefix,
            )
        return self.plan_multi(
            demands, policies, pool, normal_result,
            concurrent_failures=k, relax_all=relax_all,
            algorithm=algorithm, within_domain=base, max_cases=max_cases,
            sample_seed=sample_seed, key_prefix=key_prefix,
        )

    def spare_sizing_curve(
        self,
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        normal_result: ConsolidationResult,
        *,
        scopes: Optional[Sequence[str]] = None,
        max_spares: int = 4,
        relax_all: bool = False,
        algorithm: str = "genetic",
        max_cases: Optional[int] = None,
        sample_seed: Optional[int] = None,
    ) -> SpareSizingCurve:
        """Smallest spare count absorbing every case, per failure scope.

        For each scope, spares are appended one at a time — clones of
        the pool's roomiest server, each in a fresh singleton failure
        domain — until the scope's sweep is fully absorbable or
        ``max_spares`` is exhausted (``spares_needed=None``). Because a
        narrower scope's fail-sets are subsets of a wider scope's, the
        resulting curve is monotone non-increasing as the scope shrinks
        (:meth:`SpareSizingCurve.monotone_in_scope` asserts exactly
        that; the hypothesis harness sweeps it over random ensembles).
        """
        if max_spares < 0:
            raise PlacementError(
                f"max_spares must be >= 0, got {max_spares}"
            )
        if scopes is None:
            derived = ["server"]
            if pool.has_topology("rack"):
                derived.append("rack")
            if pool.has_topology("zone"):
                derived.append("zone")
            scopes = derived
        template = max(
            pool.servers,
            key=lambda server: server.capacity_of(self.attribute),
        )
        points = []
        for scope in scopes:
            cases = 0
            infeasible_without_spares = 0
            spares_needed: Optional[int] = None
            for spares in range(max_spares + 1):
                spare_pool = pool.with_added(
                    *self._spare_servers(template, spares, pool)
                )
                report = self.plan_scope(
                    demands, policies, spare_pool, normal_result,
                    scope=scope, relax_all=relax_all, algorithm=algorithm,
                    max_cases=max_cases, sample_seed=sample_seed,
                    key_prefix=f"spare:{scope}:{spares}",
                )
                if spares == 0:
                    cases = len(report.cases)
                    infeasible_without_spares = len(report.infeasible_cases)
                if report.all_supported:
                    spares_needed = spares
                    break
            points.append(
                SparePoint(
                    scope=scope,
                    cases=cases,
                    infeasible_without_spares=infeasible_without_spares,
                    spares_needed=spares_needed,
                )
            )
            self.engine.instrumentation.event(
                "failure.spare_point",
                scope=scope,
                spares_needed=spares_needed,
            )
        curve = SpareSizingCurve(points=tuple(points), max_spares=max_spares)
        self.engine.instrumentation.count("failure.spare_curves")
        return curve

    def _spare_servers(self, template, count: int, pool) -> list:
        """``count`` clones of the roomiest server, in fresh domains.

        Each spare lives in its own singleton rack/zone so a spare is
        never lost together with the domain it is meant to replace.
        """
        from repro.resources.server import ServerSpec

        existing = set(pool.names())
        spares = []
        index = 0
        while len(spares) < count:
            name = f"spare-{index:02d}"
            index += 1
            if name in existing:
                continue
            spares.append(
                ServerSpec(
                    name,
                    template.cpus,
                    dict(template.attributes),
                    rack=f"{name}-rack",
                    zone=f"{name}-zone",
                )
            )
        return spares

    def _combinations(
        self,
        groups: Sequence[tuple[Optional[str], list[str]]],
        k: int,
        max_cases: Optional[int],
        sample_seed: Optional[int],
    ) -> list[tuple[Optional[str], tuple[str, ...]]]:
        """All (or a seeded sample of) k-subsets across the groups.

        The cap (``max_cases`` or :data:`MAX_EXHAUSTIVE_CASES`) guards
        the sweep against combinatorial blow-up: below it every
        combination is evaluated (``failure.sweep_exhaustive``); above
        it a deterministic seeded draw selects ``cap`` distinct
        combinations, groups weighted by their share of the space
        (``failure.sweep_sampled``, with the space size recorded on the
        ``failure.sweep_sampled`` event).
        """
        cap = MAX_EXHAUSTIVE_CASES if max_cases is None else max_cases
        if cap < 1:
            raise PlacementError(f"max_cases must be >= 1, got {cap}")
        instrumentation = self.engine.instrumentation
        weights = [math.comb(len(members), k) for _, members in groups]
        total = sum(weights)
        if total <= cap:
            instrumentation.count("failure.sweep_exhaustive")
            return [
                (label, combo)
                for (label, members), weight in zip(groups, weights)
                if weight
                for combo in itertools.combinations(members, k)
            ]
        instrumentation.count("failure.sweep_sampled")
        seed = sample_seed
        if seed is None and self.config is not None:
            seed = self.config.seed
        # A concrete default keeps the sampled sweep deterministic even
        # when neither a sample seed nor a search seed was provided.
        rng = derive_rng(0 if seed is None else int(seed))
        probabilities = [weight / total for weight in weights]
        selected: list[tuple[Optional[str], tuple[str, ...]]] = []
        seen: set[tuple[Optional[str], tuple[str, ...]]] = set()
        attempts = 0
        max_attempts = cap * 64
        while len(selected) < cap and attempts < max_attempts:
            attempts += 1
            group_index = int(rng.choice(len(groups), p=probabilities))
            label, members = groups[group_index]
            rows = rng.choice(len(members), size=k, replace=False)
            combo = tuple(
                members[row] for row in sorted(int(row) for row in rows)
            )
            if (label, combo) in seen:
                continue
            seen.add((label, combo))
            selected.append((label, combo))
        instrumentation.count("failure.cases_sampled", len(selected))
        instrumentation.event(
            "failure.sweep_sampled",
            space=total,
            cap=cap,
            selected=len(selected),
        )
        return selected

    def _sweep(
        self,
        items: Sequence[tuple[FaultScenario, tuple[str, ...]]],
        demands: Sequence[DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        relax_all: bool,
        algorithm: str,
        key_prefix: str = "",
    ) -> FailureReport:
        """Evaluate every what-if case through the execution engine."""
        payload = _FailureSweepPayload(
            commitments=self.translator.commitments,
            config=self.config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            pool=pool,
            demands=tuple(demands),
            policies=policies,
            relax_all=relax_all,
            algorithm=algorithm,
        )
        instrumentation = self.engine.instrumentation
        with instrumentation.stage("failure_planning"):
            restored: dict[int, FailureCase] = {}
            pending: list[tuple[int, object]] = []
            for position, item in enumerate(items):
                case = self._load_case(item[0].label, key_prefix)
                if case is not None:
                    restored[position] = case
                else:
                    pending.append((position, item))
            if restored:
                instrumentation.count("failure.case_resumes", len(restored))
                instrumentation.event(
                    "failure.cases_resumed",
                    restored=len(restored),
                    pending=len(pending),
                )
            # Map in parallelism-sized waves so each wave's cases are
            # checkpointed as soon as they exist: a kill mid-sweep
            # loses at most the in-flight wave, and the resume picks up
            # every completed case. (One session spans all waves, so
            # the payload still broadcasts once.)
            computed: list[FailureCase] = []
            if pending:
                with self.engine.session(payload) as session:
                    wave = max(1, int(getattr(session, "parallelism", 1)))
                    for start in range(0, len(pending), wave):
                        batch = pending[start : start + wave]
                        for case, counters in session.map(
                            _failure_case_worker,
                            [item for _, item in batch],
                        ):
                            computed.append(case)
                            for name, value in counters.items():
                                instrumentation.count(name, value)
                            self._save_case(case, key_prefix)
            cases: list[FailureCase] = [None] * len(items)  # type: ignore[list-item]
            for case_position, case in restored.items():
                cases[case_position] = case
            for (case_position, _), case in zip(pending, computed):
                cases[case_position] = case
        instrumentation.count("failure.cases", len(items))
        return FailureReport(cases=tuple(cases))

    def _case_key(self, label: str, key_prefix: str = "") -> str:
        if key_prefix:
            return f"failure/{key_prefix}/{label}"
        return f"failure/{label}"

    def _load_case(
        self, label: str, key_prefix: str = ""
    ) -> FailureCase | None:
        if self.checkpointer is None:
            return None
        payload = self.checkpointer.load(self._case_key(label, key_prefix))
        if payload is None:
            return None
        return _case_from_payload(payload)

    def _save_case(self, case: FailureCase, key_prefix: str = "") -> None:
        if self.checkpointer is not None:
            self.checkpointer.save(
                self._case_key(case.label, key_prefix),
                _case_to_payload(case),
            )

    def _evaluate_failure(
        self,
        scenario: FaultScenario,
        affected: set[str],
        demand_by_name: Mapping[str, DemandTrace],
        policies: Mapping[str, QoSPolicy] | QoSPolicy,
        pool,
        *,
        relax_all: bool,
        algorithm: str,
        scratch: _SweepScratch,
    ) -> FailureCase:
        surviving = pool
        if scenario.failed_servers:
            surviving = surviving.without(*scenario.failed_servers)
        if scenario.degraded:
            surviving = surviving.with_degraded(dict(scenario.degraded))
        pairs = []
        mix = []
        for name, demand in demand_by_name.items():
            policy = self._policy_for(policies, name)
            failure_mode = relax_all or name in affected
            qos = policy.mode(failure_mode=failure_mode)
            key = (name, failure_mode)
            pair = scratch.translations.get(key)
            if pair is None:
                pair = self.translator.translate(demand, qos).pair
                scratch.translations[key] = pair
            pairs.append(pair)
            mix.append(key)

        consolidator = Consolidator(
            surviving,
            self.translator.commitments.cos2,
            config=self.config,
            tolerance=self.tolerance,
            attribute=self.attribute,
            engine=self.engine,
        )
        try:
            signature = tuple(mix)
            evaluator = scratch.evaluators.get(signature)
            if evaluator is None:
                evaluator = PlacementEvaluator(
                    pairs,
                    self.translator.commitments.cos2,
                    tolerance=self.tolerance,
                    instrumentation=self.engine.instrumentation,
                )
                scratch.evaluators[signature] = evaluator
            result = consolidator.consolidate_with_evaluator(
                evaluator, algorithm=algorithm
            )
        except PlacementError:
            return FailureCase(
                failed_servers=scenario.failed_servers,
                feasible=False,
                affected_workloads=tuple(sorted(affected)),
                result=None,
                kind=scenario.kind,
                domain=scenario.domain,
                degraded=scenario.degraded,
            )
        return FailureCase(
            failed_servers=scenario.failed_servers,
            feasible=True,
            affected_workloads=tuple(sorted(affected)),
            result=result,
            kind=scenario.kind,
            domain=scenario.domain,
            degraded=scenario.degraded,
        )

    @staticmethod
    def _policy_for(
        policies: Mapping[str, QoSPolicy] | QoSPolicy, name: str
    ) -> QoSPolicy:
        if isinstance(policies, QoSPolicy):
            return policies
        try:
            return policies[name]
        except KeyError:
            raise PlacementError(
                f"no QoS policy given for workload {name!r}"
            ) from None
