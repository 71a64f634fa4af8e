"""Tests for the shared placement evaluator."""

import numpy as np
import pytest

from repro.core.cos import CoSCommitment
from repro.exceptions import PlacementError
from repro.placement.evaluation import PlacementEvaluator, evaluate_group_worker
from repro.resources.server import ServerSpec
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", np.full(n, cos1_level), cal),
        AllocationTrace(f"{name}.cos2", np.full(n, cos2_level), cal),
    )


@pytest.fixture
def evaluator(cal):
    pairs = [
        constant_pair(cal, "a", 1.0, 2.0),
        constant_pair(cal, "b", 0.5, 1.0),
        constant_pair(cal, "c", 2.0, 4.0),
    ]
    return PlacementEvaluator(pairs, CoSCommitment(theta=0.9), tolerance=0.01)


class TestBasics:
    def test_n_workloads_and_names(self, evaluator):
        assert evaluator.n_workloads == 3
        assert evaluator.names == ["a", "b", "c"]
        assert evaluator.index_of("b") == 1

    def test_unknown_name(self, evaluator):
        with pytest.raises(PlacementError):
            evaluator.index_of("nope")

    def test_peak_allocations(self, evaluator):
        peaks = evaluator.peak_allocations()
        assert peaks.tolist() == [3.0, 1.5, 6.0]

    def test_duplicate_names_rejected(self, cal):
        pairs = [constant_pair(cal, "a", 1, 1), constant_pair(cal, "a", 1, 1)]
        with pytest.raises(PlacementError):
            PlacementEvaluator(pairs, CoSCommitment(theta=0.9))

    def test_empty_rejected(self):
        with pytest.raises(PlacementError):
            PlacementEvaluator([], CoSCommitment(theta=0.9))


class TestEvaluateGroup:
    def test_empty_group_fits_trivially(self, evaluator):
        evaluation = evaluator.evaluate_group([], ServerSpec("s", 16))
        assert evaluation.fits
        assert evaluation.required == 0.0

    def test_feasible_group(self, evaluator):
        evaluation = evaluator.evaluate_group([0, 1], ServerSpec("s", 16))
        assert evaluation.fits
        # Constant demand 1.5 CoS1 + 3.0 CoS2 at theta 0.9 needs ~4.2.
        assert 4.0 <= evaluation.required <= 4.6
        assert 0 < evaluation.utilization <= 1

    def test_infeasible_group(self, cal):
        pairs = [constant_pair(cal, "big", 20.0, 0.0)]
        evaluator = PlacementEvaluator(pairs, CoSCommitment(theta=0.9))
        evaluation = evaluator.evaluate_group([0], ServerSpec("s", 16))
        assert not evaluation.fits
        assert evaluation.required == float("inf")

    def test_caching_returns_same_object(self, evaluator):
        server = ServerSpec("s", 16)
        first = evaluator.evaluate_group([0, 2], server)
        second = evaluator.evaluate_group([2, 0], server)  # order-insensitive
        assert first is second

    def test_cache_distinguishes_capacity(self, evaluator):
        small = evaluator.evaluate_group([0], ServerSpec("s", 8))
        large = evaluator.evaluate_group([0], ServerSpec("s", 16))
        assert small.utilization > large.utilization

    def test_out_of_range_indices(self, evaluator):
        with pytest.raises(PlacementError):
            evaluator.evaluate_group([99], ServerSpec("s", 16))


class TestSearchResult:
    def test_full_report_available(self, evaluator):
        result = evaluator.search_result([0, 1, 2], ServerSpec("s", 16))
        assert result.fits
        assert result.report is not None
        assert result.report.theta_measured >= 0.9


class TestWorkerCanonicalisation:
    """Regression: the worker once sorted its rows without de-duplicating
    or range-checking them, so ``(0, 0)`` counted workload ``a`` twice
    and ``(-1,)`` silently evaluated the last workload."""

    @pytest.mark.parametrize("rows", [(0, 0), (1, 0, 1), ()])
    def test_worker_equals_evaluate_group(self, evaluator, rows):
        expected = evaluator.evaluate_group(list(rows), ServerSpec("s", 16))
        payload = evaluator.worker_payload()
        assert evaluate_group_worker(payload, (16.0, rows)) == expected

    @pytest.mark.parametrize("rows", [(-1,), (3,), (0, 99)])
    def test_worker_rejects_out_of_range_rows(self, evaluator, rows):
        with pytest.raises(PlacementError):
            evaluate_group_worker(evaluator.worker_payload(), (16.0, rows))
