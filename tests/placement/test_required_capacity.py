"""Tests for the required-capacity binary search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.required_capacity import required_capacity
from repro.placement.simulator import SingleServerSimulator
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=1, slot_minutes=60)


def make_pair(cal, name, cos1, cos2):
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", cos1, cal),
        AllocationTrace(f"{name}.cos2", cos2, cal),
    )


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return make_pair(cal, name, np.full(n, cos1_level), np.full(n, cos2_level))


class TestSearch:
    def test_exact_for_constant_demand(self, cal):
        # Constant CoS2 demand of 3 with theta 1.0: required = 3.
        pair = constant_pair(cal, "a", 0.0, 3.0)
        commitment = CoSCommitment(theta=1.0, deadline_minutes=0)
        result = required_capacity([pair], 16.0, commitment, tolerance=0.001)
        assert result.fits
        assert result.required_capacity == pytest.approx(3.0, abs=0.01)

    def test_theta_below_one_allows_less(self, cal):
        rng = np.random.default_rng(0)
        n = cal.n_observations
        pair = make_pair(cal, "a", np.zeros(n), rng.uniform(1, 4, n))
        strict = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.999, deadline_minutes=10_000)
        )
        loose = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.6, deadline_minutes=10_000)
        )
        assert loose.required_capacity <= strict.required_capacity

    def test_cos1_peak_is_floor(self, cal):
        pair = constant_pair(cal, "a", 5.0, 0.0)
        result = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.5, deadline_minutes=60)
        )
        assert result.fits
        assert result.required_capacity >= 5.0 - 1e-9

    def test_does_not_fit_when_cos1_exceeds_limit(self, cal):
        pair = constant_pair(cal, "a", 20.0, 0.0)
        result = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.5, deadline_minutes=60)
        )
        assert not result.fits
        assert result.required_capacity == float("inf")

    def test_does_not_fit_when_limit_insufficient(self, cal):
        # Constant CoS2 demand of 30 with theta 0.99 cannot fit in 16.
        pair = constant_pair(cal, "a", 0.0, 30.0)
        result = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.99, deadline_minutes=0)
        )
        assert not result.fits

    def test_result_satisfies_commitment(self, cal):
        rng = np.random.default_rng(1)
        n = cal.n_observations
        pair = make_pair(cal, "a", rng.uniform(0, 1, n), rng.uniform(0, 4, n))
        commitment = CoSCommitment(theta=0.9, deadline_minutes=120)
        result = required_capacity([pair], 16.0, commitment, tolerance=0.005)
        assert result.fits
        assert result.report is not None
        assert result.report.satisfies(commitment, cal)

    def test_minimality_within_tolerance(self, cal):
        rng = np.random.default_rng(2)
        n = cal.n_observations
        pair = make_pair(cal, "a", np.zeros(n), rng.uniform(0, 4, n))
        commitment = CoSCommitment(theta=0.9, deadline_minutes=60)
        tolerance = 0.01
        result = required_capacity([pair], 16.0, commitment, tolerance=tolerance)
        simulator = SingleServerSimulator.from_pairs([pair])
        below = result.required_capacity - 2 * tolerance
        if below > 0:
            assert not simulator.evaluate(below).satisfies(commitment, cal)

    def test_rejects_bad_parameters(self, cal):
        pair = constant_pair(cal, "a", 1.0, 1.0)
        commitment = CoSCommitment(theta=0.9)
        with pytest.raises(SimulationError):
            required_capacity([pair], 0.0, commitment)
        with pytest.raises(SimulationError):
            required_capacity([pair], 16.0, commitment, tolerance=0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.6, 0.9, 0.99]),
    )
    def test_search_sound_property(self, seed, theta):
        """Whenever the search reports fits, the reported capacity truly
        satisfies the commitment; larger capacities also satisfy it."""
        calendar = TraceCalendar(weeks=1, slot_minutes=120)
        rng = np.random.default_rng(seed)
        n = calendar.n_observations
        pair = make_pair(
            calendar, "a", rng.uniform(0, 2, n), rng.uniform(0, 5, n)
        )
        commitment = CoSCommitment(theta=theta, deadline_minutes=240)
        result = required_capacity([pair], 16.0, commitment, tolerance=0.01)
        if result.fits:
            simulator = SingleServerSimulator.from_pairs([pair])
            assert simulator.evaluate(result.required_capacity).satisfies(
                commitment, calendar
            )
            assert simulator.evaluate(16.0).satisfies(commitment, calendar)


def report_search(simulator, capacity_limit, commitment, tolerance):
    """The bisection as it was before the boolean probe: every probe
    builds the full access report and asks it ``satisfies``."""
    calendar = simulator.calendar
    if simulator.cos1_peak > capacity_limit + 1e-9:
        return False, float("inf")
    if not simulator.evaluate(capacity_limit).satisfies(commitment, calendar):
        return False, float("inf")
    low = max(simulator.cos1_peak, tolerance)
    high = float(capacity_limit)
    if low < high:
        if simulator.evaluate(low).satisfies(commitment, calendar):
            return True, low
        while high - low > tolerance:
            mid = (low + high) / 2.0
            if simulator.evaluate(mid).satisfies(commitment, calendar):
                high = mid
            else:
                low = mid
    return True, high


class TestProbeEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([0.5, 0.9, 0.99, 1.0]),
        st.sampled_from([0, 120, 480, 20_000]),
        st.sampled_from([2.0, 6.0, 16.0]),
        st.sampled_from([0.001, 0.01]),
    )
    def test_same_answer_as_report_search(
        self, seed, theta, deadline_minutes, limit, tolerance
    ):
        calendar = TraceCalendar(weeks=1, slot_minutes=120)
        rng = np.random.default_rng(seed)
        n = calendar.n_observations
        bursts = np.where(rng.uniform(size=n) < 0.1, rng.uniform(2, 12, n), 0.0)
        pair = make_pair(
            calendar, "a", rng.uniform(0, 1.5, n), rng.uniform(0, 3, n) + bursts
        )
        commitment = CoSCommitment(theta=theta, deadline_minutes=deadline_minutes)
        simulator = SingleServerSimulator.from_pairs([pair])
        result = required_capacity(
            [], limit, commitment, tolerance=tolerance, simulator=simulator
        )
        expected = report_search(simulator, limit, commitment, tolerance)
        assert (result.fits, result.required_capacity) == expected


class TestLazyReport:
    def test_report_is_at_the_required_capacity(self, cal):
        rng = np.random.default_rng(3)
        n = cal.n_observations
        pair = make_pair(cal, "a", np.zeros(n), rng.uniform(0, 4, n))
        commitment = CoSCommitment(theta=0.9, deadline_minutes=60)
        result = required_capacity([pair], 16.0, commitment)
        assert "report" not in vars(result)
        assert result.report.capacity == result.required_capacity
        assert result.report.satisfies(commitment, cal)

    def test_report_is_at_the_limit_when_the_limit_fails(self, cal):
        pair = constant_pair(cal, "a", 0.0, 30.0)
        commitment = CoSCommitment(theta=0.99, deadline_minutes=0)
        result = required_capacity([pair], 16.0, commitment)
        assert not result.fits
        assert result.report.capacity == 16.0
        assert not result.report.satisfies(commitment, cal)

    def test_no_report_when_cos1_exceeds_the_limit(self, cal):
        pair = constant_pair(cal, "a", 20.0, 0.0)
        result = required_capacity(
            [pair], 16.0, CoSCommitment(theta=0.5, deadline_minutes=60)
        )
        assert result.report is None
