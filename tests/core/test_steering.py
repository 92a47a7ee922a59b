"""Tests for the guarded rule-steering service."""

import pickle
from collections import Counter

import numpy as np
import pytest

from repro.core.steering import SteeringService
from repro.core.steering.service import plan_features
from repro.engine import RuleConfig, signatures
from repro.fabric import ControlPlane, FleetConfig, build_fleet
from repro.fabric.fleet import TrueCostFn


@pytest.fixture(scope="module")
def service(world):
    true_cost = lambda plan: world["true_cost"].cost(plan).total  # noqa: E731
    return SteeringService(
        world["optimizer"],
        true_cost,
        exploration_rate=1.0,
        validation_trials=2,
        rng=0,
    )


@pytest.fixture(scope="module")
def report(service, world):
    # Three epochs over the 8-day stream ~ a month of recurring history,
    # enough for per-template validation to accumulate trials.
    jobs = [
        (j.job_id, j.plan) for j in world["workload"].jobs if j.is_recurring
    ]
    stream = jobs + [
        (f"{job_id}-e{epoch}", plan)
        for epoch in (2, 3)
        for job_id, plan in jobs
    ]
    return service.run(stream)


class TestPlanFeatures:
    def test_shape_and_bias(self, world):
        plan = world["workload"].jobs[0].plan
        features = plan_features(plan, 1000.0)
        assert features.shape[0] == 6
        assert features[0] == 1.0


class TestGuardrails:
    def test_no_regressions_beyond_tolerance(self, report):
        assert report.regression_fraction(tolerance=0.01) == 0.0

    def test_small_incremental_steps(self, report, service):
        assert report.max_steps_from_default() <= service.max_steps

    def test_improvement_non_negative(self, report):
        assert report.improvement >= 0.0

    def test_adoptions_happen(self, report):
        assert report.adoptions > 0

    def test_learning_improves_over_time(self, report):
        halves = np.array_split(
            [o.improvement for o in report.outcomes], 2
        )
        assert np.mean(halves[1]) >= np.mean(halves[0])

    def test_default_config_served_for_unknown_template(self, service):
        assert service.recommend("never-seen") == RuleConfig.all_on()


class TestValidation:
    def test_invalid_constructor_args(self, world):
        true_cost = lambda plan: 1.0  # noqa: E731
        with pytest.raises(ValueError):
            SteeringService(world["optimizer"], true_cost, exploration_rate=2.0)
        with pytest.raises(ValueError):
            SteeringService(world["optimizer"], true_cost, validation_trials=0)
        with pytest.raises(ValueError):
            SteeringService(world["optimizer"], true_cost, max_steps=0)

    def test_outcome_improvement_definition(self, report):
        outcome = report.outcomes[0]
        expected = (
            (outcome.default_cost - outcome.steered_cost) / outcome.default_cost
        )
        assert outcome.improvement == pytest.approx(expected)

    def test_blacklisted_arms_not_adopted(self, service):
        # Every adopted flip must have survived validation: by invariant,
        # no template's adopted arm may also be blacklisted.
        for state in service._states.values():
            assert not (set(state.adopted_arms) & state.blacklisted)

    def test_default_config_costs_each_plan_once(self, world):
        calls = []

        def true_cost(plan):
            calls.append(plan)
            return world["true_cost"].cost(plan).total

        fresh = SteeringService(
            world["optimizer"], true_cost, exploration_rate=0.0, rng=0
        )
        plan = world["workload"].jobs[0].plan
        outcome = fresh.observe("job-0", plan)
        assert outcome.config == RuleConfig.all_on()
        assert len(calls) == 1
        assert outcome.steered_cost == outcome.default_cost

    def test_fleet_day_optimizes_each_plan_config_pair_once(self):
        plane = ControlPlane()
        build_fleet(
            plane, FleetConfig(days=2, jobs_per_day=1200, include=("steering",))
        )
        service = plane._binding_for("steering").driver.service
        optimizer = service.optimizer
        calls = Counter()
        optimize = optimizer.optimize

        def counting_optimize(plan, config=None):
            calls[(signatures(plan).strict, config)] += 1
            return optimize(plan, config)

        optimizer.optimize = counting_optimize
        plane.run_days(2)
        plane.close()
        # Two days of the 64-job head sample; without the memo every job
        # would optimize at least once, and shared plans many times.
        assert len(service.report().outcomes) == 2 * 64
        assert 0 < len(calls) < 2 * 64
        assert set(calls.values()) == {1}

    def test_cost_memo_stays_out_of_pickles(self, world):
        fresh = SteeringService(
            world["optimizer"], TrueCostFn(world["true_cost"]), rng=0
        )
        for job in world["workload"].jobs[:20]:
            fresh.observe(job.job_id, job.plan)
        assert fresh._costs
        restored = pickle.loads(pickle.dumps(fresh))
        assert restored._costs == {}
        plan = world["workload"].jobs[0].plan
        assert restored._evaluate(plan, RuleConfig.all_on()) == (
            fresh._evaluate(plan, RuleConfig.all_on())
        )
