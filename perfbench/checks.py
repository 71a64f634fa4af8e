"""The output check: every plan is verified from outside the planner.

The reference side is rebuilt independently of the plan: each workload
is translated again with a fresh :class:`QoSTranslator`, and each
server's group is replayed with
:meth:`SingleServerSimulator.from_pairs` at the capacity the plan
reports. A plan passes when :meth:`ReferenceCheck.problems` returns no
problem.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, Optional

from repro import PoolCommitments, QoSTranslator
from repro.placement.simulator import SingleServerSimulator

#: Slack for comparing a reported capacity with a server's capacity.
CAPACITY_EPSILON = 1e-9


class ReferenceCheck:
    """Checks plans of one ensemble against independently translated pairs."""

    def __init__(self, demands, pool, commitments: PoolCommitments, policy):
        translator = QoSTranslator(commitments)
        self.names = [demand.name for demand in demands]
        self.pairs = {
            demand.name: translator.translate(demand, policy.normal).pair
            for demand in demands
        }
        self.capacity = {
            server.name: server.capacity_of("cpu") for server in pool.servers
        }
        self.commitment = commitments.cos2
        self.expected_hash: Optional[str] = None

    def problems(self, plan) -> list[str]:
        """Everything wrong with ``plan``; empty when it passes."""
        found = self._placement_problems(
            "normal plan", plan.consolidation.assignment, failed=()
        )
        found.extend(self._capacity_problems(plan.consolidation))
        reports = {"single-server": plan.failure_report}
        reports.update(plan.domain_reports or {})
        for scope, report in reports.items():
            if report is None:
                continue
            for case in report.cases:
                if not case.feasible:
                    continue
                if case.result is None:
                    found.append(f"{scope} {case.label}: feasible without result")
                    continue
                found.extend(
                    self._placement_problems(
                        f"{scope} {case.label}",
                        case.result.assignment,
                        failed=case.failed_servers,
                    )
                )
        if plan.spare_curve is not None and not plan.spare_curve.monotone_in_scope():
            found.append("spare curve is not monotone in the failure scope")
        digest = plan.plan_hash()
        if self.expected_hash is None:
            self.expected_hash = digest
        elif digest != self.expected_hash:
            found.append(
                f"plan_hash {digest[:12]} differs from the run's first "
                f"plan {self.expected_hash[:12]}"
            )
        return found

    def _placement_problems(
        self, what: str, assignment: Mapping[str, tuple[str, ...]], failed
    ) -> list[str]:
        found = []
        placed = Counter(
            name for names in assignment.values() for name in names
        )
        for name in self.names:
            if placed[name] != 1:
                found.append(f"{what}: {name} placed {placed[name]} times")
        unknown = sorted(set(placed) - set(self.names))
        if unknown:
            found.append(f"{what}: unknown workloads {unknown}")
        for server in assignment:
            if server in failed:
                found.append(f"{what}: uses failed server {server}")
        return found

    def _capacity_problems(self, consolidation) -> list[str]:
        found = []
        assignment = consolidation.assignment
        required = consolidation.required_by_server
        if set(required) != set(assignment):
            found.append("required capacities do not match the used servers")
        for server, names in assignment.items():
            if server not in self.capacity:
                found.append(f"{server}: not in the pool")
                continue
            capacity = required.get(server)
            if capacity is None or not names:
                continue
            if any(name not in self.pairs for name in names):
                continue  # already reported as unknown workloads
            if capacity > self.capacity[server] + CAPACITY_EPSILON:
                found.append(
                    f"{server}: required {capacity:.4f} exceeds capacity "
                    f"{self.capacity[server]:.4f}"
                )
                continue
            if capacity <= 0:
                found.append(f"{server}: required capacity {capacity}")
                continue
            simulator = SingleServerSimulator.from_pairs(
                [self.pairs[name] for name in names]
            )
            report = simulator.evaluate(capacity)
            if not report.satisfies(self.commitment, simulator.calendar):
                found.append(
                    f"{server}: {len(names)} workloads miss the CoS2 "
                    f"commitment at required {capacity:.4f}"
                )
        total = sum(required.values())
        if abs(total - consolidation.sum_required) > 1e-6 * max(1.0, total):
            found.append(
                f"sum_required {consolidation.sum_required:.4f} is not the "
                f"sum of per-server requirements {total:.4f}"
            )
        return found
