"""Tests for single-failure what-if planning."""

import pytest

from repro.core.cos import PoolCommitments
from repro.core.qos import QoSPolicy, case_study_qos
from repro.core.translation import QoSTranslator
from repro.exceptions import PlacementError
from repro.placement.consolidation import Consolidator
from repro.placement.failure import FailurePlanner
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.calendar import TraceCalendar
from repro.workloads.generator import WorkloadGenerator, WorkloadSpec

SEARCH_CONFIG = GeneticSearchConfig(
    seed=0, max_generations=10, stall_generations=3, population_size=10
)


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


@pytest.fixture
def demands(cal):
    generator = WorkloadGenerator(seed=21)
    specs = [
        WorkloadSpec(name=f"w{i}", peak_cpus=1.0 + 0.3 * i, noise_sigma=0.2)
        for i in range(6)
    ]
    return generator.generate_many(specs, cal)


@pytest.fixture
def translator():
    return QoSTranslator(PoolCommitments.of(theta=0.9))


@pytest.fixture
def policy():
    return QoSPolicy(
        normal=case_study_qos(m_degr_percent=0),
        failure=case_study_qos(m_degr_percent=3, t_degr_minutes=None),
    )


def normal_plan(translator, demands, policy, pool):
    pairs = [
        translator.translate(demand, policy.normal).pair for demand in demands
    ]
    consolidator = Consolidator(
        pool, translator.commitments.cos2, config=SEARCH_CONFIG
    )
    return consolidator.consolidate(pairs)


class TestFailurePlanning:
    def test_absorbable_failures(self, demands, translator, policy):
        """A generously sized pool absorbs any single failure."""
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        assert len(report.cases) == normal.servers_used
        assert report.all_supported
        assert not report.spare_server_needed

    def test_case_lookup(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        some_server = next(iter(normal.assignment))
        case = report.case_for(some_server)
        assert case.failed_servers == (some_server,)
        assert case.label == some_server
        assert set(case.affected_workloads) == set(
            normal.assignment[some_server]
        )
        with pytest.raises(PlacementError):
            report.case_for("ghost")

    def test_failure_case_excludes_failed_server(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        for case in report.cases:
            if case.result is not None:
                for failed in case.failed_servers:
                    assert failed not in case.result.assignment

    def test_spare_needed_when_pool_tight(self, cal, translator):
        """A pool that is exactly full cannot absorb a failure."""
        generator = WorkloadGenerator(seed=5)
        # Workloads that each demand most of one server.
        specs = [
            WorkloadSpec(name=f"big{i}", peak_cpus=5.0, noise_sigma=0.05)
            for i in range(2)
        ]
        demands = generator.generate_many(specs, cal)
        policy = QoSPolicy(normal=case_study_qos(m_degr_percent=0))
        pool = ResourcePool(homogeneous_servers(2, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        if normal.servers_used < 2:
            pytest.skip("workloads consolidated onto one server")
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        report = planner.plan(demands, policy, pool, normal)
        assert report.spare_server_needed

    def test_relax_all_toggle(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        relaxed = planner.plan(
            demands, policy, pool, normal, relax_all=True
        )
        assert len(relaxed.cases) == normal.servers_used

    def test_unknown_workloads_rejected(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        with pytest.raises(PlacementError):
            planner.plan(demands[:-1], policy, pool, normal)

    def test_per_workload_policies(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        policies = {demand.name: policy for demand in demands}
        report = planner.plan(demands, policies, pool, normal)
        assert len(report.cases) == normal.servers_used

    def test_missing_policy_rejected(self, demands, translator, policy):
        pool = ResourcePool(homogeneous_servers(6, cpus=16))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        with pytest.raises(PlacementError):
            planner.plan(demands, {"w0": policy}, pool, normal)


def fresh_case(translator, demands, policy, pool, case, relax_all):
    """The case's consolidation, replanned from scratch without the
    sweep's shared memo; ``None`` where the fresh plan is infeasible."""
    surviving = pool
    if case.failed_servers:
        surviving = surviving.without(*case.failed_servers)
    if case.degraded:
        surviving = surviving.with_degraded(dict(case.degraded))
    pairs = [
        translator.translate(
            demand,
            policy.mode(
                failure_mode=relax_all
                or demand.name in case.affected_workloads
            ),
        ).pair
        for demand in demands
    ]
    consolidator = Consolidator(
        surviving, translator.commitments.cos2, config=SEARCH_CONFIG
    )
    try:
        return consolidator.consolidate(pairs)
    except PlacementError:
        return None


class TestSweepMemo:
    """The sweep shares translations and evaluator memos across its
    cases; every case must still equal a fresh plan of its scenario."""

    @pytest.mark.parametrize("relax_all", [False, True])
    def test_every_case_equals_a_fresh_consolidation(
        self, demands, translator, policy, relax_all
    ):
        pool = ResourcePool(homogeneous_servers(4, cpus=8))
        normal = normal_plan(translator, demands, policy, pool)
        planner = FailurePlanner(translator, config=SEARCH_CONFIG)
        cases = list(
            planner.plan(
                demands, policy, pool, normal, relax_all=relax_all
            ).cases
        )
        cases += planner.plan_degraded(
            demands, policy, pool, normal, factor=0.5, relax_all=relax_all
        ).cases
        assert len(cases) > normal.servers_used
        for case in cases:
            fresh = fresh_case(
                translator, demands, policy, pool, case, relax_all
            )
            assert case.feasible == (fresh is not None), case.label
            if fresh is None:
                continue
            assert dict(case.result.assignment) == dict(fresh.assignment)
            assert dict(case.result.required_by_server) == dict(
                fresh.required_by_server
            )
