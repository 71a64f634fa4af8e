"""Tests for the consolidation exercise."""

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.consolidation import Consolidator
from repro.placement.genetic import GeneticSearchConfig
from repro.resources.pool import ResourcePool
from repro.resources.server import homogeneous_servers
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


@pytest.fixture
def pairs(cal):
    rng = np.random.default_rng(3)
    n = cal.n_observations
    return [
        CoSAllocationPair(
            f"w{i}",
            AllocationTrace(f"w{i}.c1", rng.uniform(0, 1, n), cal),
            AllocationTrace(f"w{i}.c2", rng.uniform(0, 3, n), cal),
        )
        for i in range(8)
    ]


@pytest.fixture
def consolidator():
    pool = ResourcePool(homogeneous_servers(8, cpus=16))
    return Consolidator(
        pool,
        CoSCommitment(theta=0.9),
        config=GeneticSearchConfig(seed=0, max_generations=15, stall_generations=4),
    )


class TestConsolidate:
    @pytest.mark.parametrize("algorithm", ["genetic", "first_fit", "best_fit"])
    def test_produces_valid_result(self, pairs, consolidator, algorithm):
        result = consolidator.consolidate(pairs, algorithm=algorithm)
        placed = sorted(
            name for names in result.assignment.values() for name in names
        )
        assert placed == sorted(pair.name for pair in pairs)
        assert result.servers_used == len(result.assignment)
        assert result.algorithm == algorithm
        assert set(result.required_by_server) == set(result.assignment)

    def test_capacity_metrics(self, pairs, consolidator):
        result = consolidator.consolidate(pairs)
        assert result.sum_required == pytest.approx(
            sum(result.required_by_server.values())
        )
        expected_peak = sum(pair.peak_allocation() for pair in pairs)
        assert result.sum_peak_allocations == pytest.approx(expected_peak)
        assert 0.0 <= result.sharing_savings() < 1.0

    def test_sharing_beats_peak_provisioning(self, pairs, consolidator):
        """C_requ should undercut C_peak for uncorrelated workloads."""
        result = consolidator.consolidate(pairs)
        assert result.sum_required < result.sum_peak_allocations

    def test_genetic_never_worse_than_first_fit(self, pairs, consolidator):
        genetic = consolidator.consolidate(pairs, algorithm="genetic")
        greedy = consolidator.consolidate(pairs, algorithm="first_fit")
        assert genetic.servers_used <= greedy.servers_used

    def test_server_of(self, pairs, consolidator):
        result = consolidator.consolidate(pairs, algorithm="first_fit")
        server = result.server_of("w0")
        assert "w0" in result.assignment[server]
        with pytest.raises(PlacementError):
            result.server_of("ghost")

    def test_unknown_algorithm_rejected(self, pairs, consolidator):
        with pytest.raises(PlacementError):
            consolidator.consolidate(pairs, algorithm="quantum")

    def test_empty_pool_rejected(self):
        with pytest.raises(PlacementError):
            Consolidator(ResourcePool([]), CoSCommitment(theta=0.9))

    def test_required_capacities_within_limits(self, pairs, consolidator):
        result = consolidator.consolidate(pairs)
        for server_name, required in result.required_by_server.items():
            assert required <= 16.0 + 1e-9


class TestPreviousPlanSeeding:
    def test_previous_plan_improves_or_matches(self, pairs, consolidator):
        first = consolidator.consolidate(pairs)
        second = consolidator.consolidate(pairs, previous=first)
        assert second.score >= first.score - 1e-9

    def test_previous_with_unknown_server_skipped(self, pairs, consolidator):
        from repro.placement.consolidation import ConsolidationResult

        bogus = ConsolidationResult(
            assignment={"ghost-server": tuple(pair.name for pair in pairs)},
            required_by_server={"ghost-server": 1.0},
            sum_required=1.0,
            sum_peak_allocations=1.0,
            score=0.0,
            algorithm="first_fit",
        )
        # Must not crash: the unusable previous plan is ignored.
        result = consolidator.consolidate(pairs, previous=bogus)
        assert result.servers_used >= 1

    def test_previous_with_missing_workloads_skipped(self, pairs, consolidator):
        partial = consolidator.consolidate(pairs[:3])
        result = consolidator.consolidate(pairs, previous=partial)
        assert result.servers_used >= 1

    def test_previous_with_stale_workload_names_skipped(
        self, pairs, consolidator
    ):
        from repro.placement.consolidation import ConsolidationResult

        stale = ConsolidationResult(
            assignment={"server-00": ("nonexistent",) + tuple(
                pair.name for pair in pairs
            )},
            required_by_server={"server-00": 1.0},
            sum_required=1.0,
            sum_peak_allocations=1.0,
            score=0.0,
            algorithm="first_fit",
        )
        result = consolidator.consolidate(pairs, previous=stale)
        assert result.servers_used >= 1


class TestSeedFailures:
    """A greedy seed that cannot place everything is skipped."""

    @staticmethod
    def two_phase_pair(cal, name, first, second):
        """CoS1-only demand: ``first`` in the first half of the trace,
        ``second`` in the second half (required capacity = peak sum)."""
        n = cal.n_observations
        cos1 = np.where(np.arange(n) < n // 2, first, second).astype(float)
        return CoSAllocationPair(
            name,
            AllocationTrace(f"{name}.c1", cos1, cal),
            AllocationTrace(f"{name}.c2", np.zeros(n), cal),
        )

    def test_raising_best_fit_seed_does_not_abort(self, cal):
        # On two 10-CPU servers first fit puts w2 beside w0 (peak 8)
        # while best fit puts it beside w1 (peak 9.5, the tighter
        # fit); w3 then fits next to w1 only in the first-fit layout.
        pairs = [
            self.two_phase_pair(cal, "w0", 8.0, 0.0),
            self.two_phase_pair(cal, "w1", 3.0, 7.0),
            self.two_phase_pair(cal, "w2", 0.0, 2.5),
            self.two_phase_pair(cal, "w3", 2.5, 2.5),
        ]
        consolidator = Consolidator(
            ResourcePool(homogeneous_servers(2, cpus=10)),
            CoSCommitment(theta=0.9),
            config=GeneticSearchConfig(
                seed=0, max_generations=4, stall_generations=2
            ),
        )
        with pytest.raises(PlacementError):
            consolidator.consolidate(pairs, algorithm="best_fit")
        first_fit = consolidator.consolidate(pairs, algorithm="first_fit")
        genetic = consolidator.consolidate(pairs, algorithm="genetic")
        assert genetic.score >= first_fit.score
        assert genetic.servers_used <= first_fit.servers_used
