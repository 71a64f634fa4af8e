"""Tests for the single-server replay simulator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cos import CoSCommitment
from repro.exceptions import SimulationError
from repro.placement.simulator import SingleServerSimulator
from repro.resources.scheduler import CapacityScheduler
from repro.traces.allocation import AllocationTrace, CoSAllocationPair
from repro.traces.calendar import TraceCalendar


@pytest.fixture
def cal():
    return TraceCalendar(weeks=2, slot_minutes=60)


def make_pair(cal, name, cos1, cos2):
    return CoSAllocationPair(
        name,
        AllocationTrace(f"{name}.cos1", cos1, cal),
        AllocationTrace(f"{name}.cos2", cos2, cal),
    )


def constant_pair(cal, name, cos1_level, cos2_level):
    n = cal.n_observations
    return make_pair(cal, name, np.full(n, cos1_level), np.full(n, cos2_level))


class TestEvaluate:
    def test_ample_capacity_full_satisfaction(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 2.0)]
        )
        report = simulator.evaluate(10.0)
        assert report.cos1_fits
        assert report.theta_measured == 1.0
        assert report.max_deferred_slots == 0
        assert report.deadline_ok(
            CoSCommitment(theta=0.9, deadline_minutes=60), cal
        )

    def test_cos1_does_not_fit(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 5.0, 0.0)]
        )
        report = simulator.evaluate(4.0)
        assert not report.cos1_fits
        assert report.cos1_peak == 5.0

    def test_theta_ratio_constant_overload(self, cal):
        # CoS2 requests 4 every slot, capacity 2 after no CoS1 -> 50%.
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.0, 4.0)]
        )
        report = simulator.evaluate(2.0)
        assert report.theta_measured == pytest.approx(0.5)
        # Permanently oversubscribed: deferred demand never drains in time.
        assert not report.deadline_ok(
            CoSCommitment(theta=0.5, deadline_minutes=60), cal
        )

    def test_cos1_reduces_cos2_capacity(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 2.0)]
        )
        report = simulator.evaluate(2.0)
        # CoS2 sees 1 unit of the 2 requested -> theta 0.5.
        assert report.theta_measured == pytest.approx(0.5)

    def test_theta_is_min_over_week_slots(self, cal):
        # Demand only in week 0, slot 0 of each day; satisfied elsewhere.
        n = cal.n_observations
        cos2 = np.zeros(n)
        for day in range(7):
            cos2[day * 24] = 4.0  # week 0 only
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        # That one (week, slot) pair has ratio 0.5; everything else is 1.
        assert report.theta_measured == pytest.approx(0.5)

    def test_zero_cos2_theta_is_one(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 0.0)]
        )
        assert simulator.evaluate(2.0).theta_measured == 1.0

    def test_monotone_in_capacity(self, cal):
        rng = np.random.default_rng(0)
        n = cal.n_observations
        pair = make_pair(cal, "a", rng.uniform(0, 1, n), rng.uniform(0, 3, n))
        simulator = SingleServerSimulator.from_pairs([pair])
        capacities = [1.0, 2.0, 3.0, 4.0, 6.0]
        thetas = [simulator.evaluate(c).theta_measured for c in capacities]
        deferrals = [simulator.evaluate(c).max_deferred_slots for c in capacities]
        assert all(a <= b + 1e-12 for a, b in zip(thetas, thetas[1:]))
        assert all(a >= b for a, b in zip(deferrals, deferrals[1:]))

    def test_rejects_nonpositive_capacity(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 1.0)]
        )
        with pytest.raises(SimulationError):
            simulator.evaluate(0.0)

    def test_rejects_empty_pairs(self):
        with pytest.raises(SimulationError):
            SingleServerSimulator.from_pairs([])


class TestDeferredSlots:
    def test_burst_deferral_measured(self, cal):
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 6.0  # needs 3 slots at capacity 2
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        assert report.max_deferred_slots == 2
        # 2 deferred slots violate a 1-slot (60 min) deadline but honour
        # a 2-slot (120 min) one.
        assert not report.deadline_ok(
            CoSCommitment(theta=0.1, deadline_minutes=60), cal
        )
        assert report.deadline_ok(
            CoSCommitment(theta=0.1, deadline_minutes=120), cal
        )

    def test_deferral_within_deadline_satisfies(self, cal):
        """Regression: deferral inside the commitment deadline is allowed.

        The old ``deadline_ok`` field was True only for zero deferral,
        contradicting ``satisfies()``; a trace that defers but drains
        within ``s`` must pass both checks.
        """
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 6.0  # needs 3 slots at capacity 2 -> 2 deferred slots
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        commitment = CoSCommitment(theta=0.1, deadline_minutes=180)
        assert report.max_deferred_slots == 2
        assert report.deadline_ok(commitment, cal)
        assert report.satisfies(commitment, cal)

    def test_never_served_counts_to_trace_end(self, cal):
        n = cal.n_observations
        cos2 = np.full(n, 4.0)  # permanently oversubscribed at capacity 2
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        report = simulator.evaluate(2.0)
        assert report.max_deferred_slots > n // 4

    def test_agreement_with_scheduler_backlog(self, cal):
        """The vectorised deferral matches the step-wise scheduler."""
        rng = np.random.default_rng(5)
        n = cal.n_observations
        pairs = [
            make_pair(cal, "a", np.zeros(n), rng.uniform(0, 3, n)),
        ]
        capacity = 2.0
        simulator_report = SingleServerSimulator.from_pairs(pairs).evaluate(
            capacity
        )
        scheduler_result = CapacityScheduler(capacity).run(pairs)
        assert (
            simulator_report.max_deferred_slots
            == scheduler_result.worst_backlog_age()
        )


class TestSatisfies:
    def test_satisfies_commitment(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.5, 1.0)]
        )
        commitment = CoSCommitment(theta=0.9, deadline_minutes=60)
        assert simulator.evaluate(3.0).satisfies(commitment, cal)

    def test_fails_on_low_theta(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.0, 4.0)]
        )
        commitment = CoSCommitment(theta=0.9, deadline_minutes=10_000)
        assert not simulator.evaluate(2.0).satisfies(commitment, cal)

    def test_fails_on_deadline(self, cal):
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[0] = 20.0  # large burst, theta per-slot min still high overall?
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        commitment = CoSCommitment(theta=0.01, deadline_minutes=60)
        report = simulator.evaluate(2.0)
        # Needs 10 slots to drain at capacity 2; deadline is 1 slot.
        assert not report.satisfies(commitment, cal)

    def test_fails_on_cos1_overbooking(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 5.0, 0.0)]
        )
        commitment = CoSCommitment(theta=0.5, deadline_minutes=10_000)
        assert not simulator.evaluate(4.0).satisfies(commitment, cal)


def shaped_pair(calendar, shape, seed):
    """A random workload of one of the shapes the probe treats apart."""
    rng = np.random.default_rng(seed)
    n = calendar.n_observations
    cos1 = rng.uniform(0, 2, n)
    if shape == "zero_cos2":
        cos2 = np.zeros(n)
    elif shape == "oversubscribed":
        cos1 = np.zeros(n)
        cos2 = np.full(n, 4.0)
    elif shape == "bursty":
        cos2 = np.where(rng.uniform(size=n) < 0.1, rng.uniform(5, 20, n), 0.0)
    else:
        cos2 = rng.uniform(0, 5, n)
    return make_pair(calendar, "a", cos1, cos2)


class TestMeets:
    """``meets`` is the capacity-search probe: it must always agree with
    the full report's ``satisfies``."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from(["random", "zero_cos2", "oversubscribed", "bursty"]),
        st.floats(min_value=0.01, max_value=1.5),
        st.sampled_from([0.1, 0.5, 0.9, 0.99, 1.0]),
        # 0 slots, a few slots, and deadlines at and beyond the trace
        # length (84 two-hour slots).
        st.sampled_from([0, 120, 360, 1_440, 10_080, 20_000]),
    )
    def test_equals_evaluate_satisfies(
        self, seed, shape, capacity_fraction, theta, deadline_minutes
    ):
        calendar = TraceCalendar(weeks=1, slot_minutes=120)
        pair = shaped_pair(calendar, shape, seed)
        simulator = SingleServerSimulator.from_pairs([pair])
        peak = float((pair.cos1.values + pair.cos2.values).max())
        capacity = max(capacity_fraction * peak, 1e-3)
        commitment = CoSCommitment(theta=theta, deadline_minutes=deadline_minutes)
        expected = simulator.evaluate(capacity).satisfies(commitment, calendar)
        assert simulator.meets(
            capacity, theta, commitment.deadline_slots(calendar)
        ) == expected

    @pytest.mark.parametrize(
        "deadline_slots, expected", [(0, False), (1, False), (2, True), (3, True)]
    )
    def test_deadline_boundary_is_exact(self, cal, deadline_slots, expected):
        # A burst of 6 at capacity 2 waits exactly 2 slots.
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 6.0
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        assert simulator.evaluate(2.0).max_deferred_slots == 2
        assert simulator.meets(2.0, 0.1, deadline_slots) is expected

    def test_rounding_residue_within_epsilon_is_not_a_wait(self, cal):
        # 3 * 0.1 drained at 0.1 per slot leaves a ~1e-16 backlog after the
        # third slot; the epsilon counts it as drained, as evaluate does.
        n = cal.n_observations
        cos2 = np.zeros(n)
        cos2[10] = 3 * 0.1
        simulator = SingleServerSimulator.from_pairs(
            [make_pair(cal, "a", np.zeros(n), cos2)]
        )
        commitment = CoSCommitment(theta=0.3, deadline_minutes=120)
        assert simulator.evaluate(0.1).satisfies(commitment, cal)
        assert simulator.meets(0.1, 0.3, 2)

    def test_failed_theta_skips_the_deadline_work(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 0.0, 4.0)]
        )
        assert not simulator.meets(2.0, 0.9, 0)
        assert "_cos2_arrivals_cum" not in vars(simulator)

    def test_cos1_overbooking_fails_first(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 5.0, 0.0)]
        )
        assert not simulator.meets(4.0, 0.0, cal.n_observations)

    def test_rejects_nonpositive_capacity(self, cal):
        simulator = SingleServerSimulator.from_pairs(
            [constant_pair(cal, "a", 1.0, 1.0)]
        )
        with pytest.raises(SimulationError):
            simulator.meets(0.0, 0.9, 1)
