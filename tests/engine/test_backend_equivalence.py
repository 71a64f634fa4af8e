"""Serial and parallel backends must produce identical plans.

The engine contract: work units are pure functions, seeded RNG stays in
the driver, so the executor backend must never change a planning result.
These tests run the full translate -> place -> failure pipeline under
both backends and require identical outputs.
"""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.framework import ROpus
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.engine import ExecutionEngine
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

FAST_SEARCH = GeneticSearchConfig(
    seed=7, max_generations=6, stall_generations=3, population_size=8
)


@pytest.fixture(scope="module")
def demands():
    calendar = TraceCalendar(weeks=1, slot_minutes=60)
    generator = WorkloadGenerator(seed=42)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.5 * i) for i in range(4)
    ]
    return generator.generate_many(specs, calendar)


@pytest.fixture
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=30),
    )


def make_framework(engine, **kwargs):
    return ROpus(
        PoolCommitments.of(theta=0.9),
        ResourcePool(homogeneous_servers(4, cpus=16)),
        search_config=FAST_SEARCH,
        engine=engine,
        **kwargs,
    )


def plan_with(engine, demands, policy, **kwargs):
    framework = make_framework(engine, **kwargs)
    try:
        return framework.plan(demands, policy, plan_failures=True)
    finally:
        engine.close()


class TestBackendEquivalence:
    def test_full_pipeline_plans_identically(self, demands, policy):
        serial_plan = plan_with(ExecutionEngine.serial(), demands, policy)
        parallel_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy
        )

        assert (
            dict(serial_plan.consolidation.assignment)
            == dict(parallel_plan.consolidation.assignment)
        )
        assert (
            dict(serial_plan.consolidation.required_by_server)
            == dict(parallel_plan.consolidation.required_by_server)
        )
        assert (
            serial_plan.consolidation.sum_required
            == parallel_plan.consolidation.sum_required
        )

        serial_summary = serial_plan.summary()
        parallel_summary = parallel_plan.summary()
        # Wall-clock timings and execution telemetry (broadcast
        # transport, how cases share the sweep memo) legitimately differ
        # between backends; the planning quantities must not.
        serial_summary.pop("stage_timings")
        parallel_summary.pop("stage_timings")
        serial_counters = serial_summary.pop("counters")
        parallel_counters = parallel_summary.pop("counters")
        assert serial_summary == parallel_summary
        # Both backends account their capacity-search work.
        assert serial_counters["kernel.rows"] > 0
        assert parallel_counters["kernel.rows"] > 0
        # The parallel backend broadcast the allocation matrices
        # zero-copy for the placement session.
        assert parallel_counters.get("broadcast.bytes_shared", 0.0) > 0.0

    def test_failure_cases_identical(self, demands, policy):
        serial_plan = plan_with(ExecutionEngine.serial(), demands, policy)
        parallel_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy
        )

        def case_view(report):
            return [
                (
                    case.label,
                    case.feasible,
                    case.affected_workloads,
                    case.servers_used,
                )
                for case in report.cases
            ]

        assert case_view(serial_plan.failure_report) == case_view(
            parallel_plan.failure_report
        )

    def test_translation_identical(self, demands, policy):
        commitments = PoolCommitments.of(theta=0.9)
        with ExecutionEngine.with_workers(2) as parallel_engine:
            serial = QoSTranslator(commitments).translate_many(
                demands, policy.normal
            )
            parallel = QoSTranslator(
                commitments, engine=parallel_engine
            ).translate_many(demands, policy.normal)
        assert set(serial) == set(parallel)
        for name in serial:
            assert serial[name].d_new_max == parallel[name].d_new_max
            assert serial[name].breakpoint == parallel[name].breakpoint
            assert (
                serial[name].pair.cos1.values
                == parallel[name].pair.cos1.values
            ).all()
            assert (
                serial[name].pair.cos2.values
                == parallel[name].pair.cos2.values
            ).all()

    def test_parallel_plan_hashes_like_serial(self, demands, policy):
        """The strongest cross-cutting check: the whole plan, failure
        cases included, hashes identically on both backends."""
        serial_plan = plan_with(ExecutionEngine.serial(), demands, policy)
        parallel_plan = plan_with(
            ExecutionEngine.with_workers(2), demands, policy
        )
        assert serial_plan.plan_hash() == parallel_plan.plan_hash()

    def test_failure_case_counters_reach_the_plan(self, demands, policy):
        """Failure-case consolidations count into ``plan.counters``,
        with the same totals on both backends."""

        def counters(engine, plan_failures):
            framework = make_framework(engine)
            try:
                plan = framework.plan(
                    demands, policy, plan_failures=plan_failures
                )
            finally:
                engine.close()
            return {
                "generations": plan.counters["placement.ga_generations"],
                "lookups": plan.counters["placement.cache_hits"]
                + plan.counters["placement.cache_misses"],
            }

        without = counters(ExecutionEngine.serial(), plan_failures=False)
        serial = counters(ExecutionEngine.serial(), plan_failures=True)
        parallel = counters(
            ExecutionEngine.with_workers(2), plan_failures=True
        )
        for name in without:
            assert serial[name] > without[name], name
        assert serial == parallel

    def test_plan_records_stage_timings(self, demands, policy):
        plan = plan_with(ExecutionEngine.serial(), demands, policy)
        assert set(plan.timings) >= {
            "translation",
            "placement",
            "failure_planning",
        }
        assert all(value >= 0.0 for value in plan.timings.values())
        assert plan.summary()["stage_timings"] == dict(plan.timings)
