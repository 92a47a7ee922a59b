"""Tests for Seagull backup scheduling and proactive pool provisioning."""

import pickle

import numpy as np
import pytest

from repro.core.poolserver import ForecastPoolPolicy, compare_policies
from repro.core.seagull import (
    BackupScheduler,
    ForecastWindowPolicy,
    PreviousDayPolicy,
    SeagullService,
    evaluate_policy,
)
from repro.core.seagull.scheduler import PreviousWeekPolicy
from repro.workloads import (
    UsagePopulationConfig,
    generate_demand,
    generate_population,
)


@pytest.fixture(scope="module")
def servers():
    population = generate_population(
        UsagePopulationConfig(n_tenants=40, n_days=42), rng=0
    )
    return [t for t in population if t.is_predictable]


class TestBackupScheduler:
    def test_window_loads_wraps_midnight(self):
        scheduler = BackupScheduler(window_hours=3)
        day = np.zeros(24)
        day[23] = 5.0
        loads = scheduler.window_loads(day)
        assert loads[22] == 5.0  # hours 22,23,0
        assert loads[23] == 5.0  # hours 23,0,1
        assert loads[0] == 0.0

    def test_choice_fields_consistent(self, servers):
        scheduler = BackupScheduler()
        choice = scheduler.choose(servers[0], day=30, policy=PreviousDayPolicy())
        assert 0 <= choice.start_hour < 24
        assert choice.actual_load >= choice.optimal_load

    def test_day_zero_rejected(self, servers):
        with pytest.raises(ValueError, match="history"):
            BackupScheduler().choose(servers[0], 0, PreviousDayPolicy())

    def test_day_beyond_trace_rejected(self, servers):
        with pytest.raises(ValueError, match="too short"):
            BackupScheduler().choose(servers[0], 999, PreviousDayPolicy())

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            BackupScheduler(window_hours=0)


class TestPolicies:
    def test_forecast_beats_previous_day(self, servers):
        days = range(29, 41)
        heuristic = evaluate_policy(servers, PreviousDayPolicy(), days)
        ml = evaluate_policy(servers, ForecastWindowPolicy(), days)
        assert ml >= heuristic

    def test_accuracies_in_paper_range(self, servers):
        days = range(29, 41)
        heuristic = evaluate_policy(servers, PreviousDayPolicy(), days)
        ml = evaluate_policy(servers, ForecastWindowPolicy(), days)
        assert heuristic > 0.90   # paper: 96%
        assert ml > 0.97          # paper: 99%

    def test_previous_week_falls_back_early(self, servers):
        policy = PreviousWeekPolicy()
        short_history = servers[0].values[:48]
        forecast = policy.forecast_day(short_history)
        np.testing.assert_array_equal(forecast, short_history[-24:])

    def test_empty_evaluation_rejected(self, servers):
        with pytest.raises(ValueError):
            evaluate_policy([], PreviousDayPolicy(), range(1, 2))


class TestForecastWindowPolicyFits:
    """The policy extends a series' last fit; forecasts equal fresh fits."""

    @staticmethod
    def _kept_model(policy, history):
        return policy._fits[history[: policy.period].tobytes()][1]

    def test_kept_fits_equal_fresh_fits_over_evaluated_days(self, servers):
        # evaluate_policy's day range, then the fleet's trace-day wrap
        # (41 back to 30), which must refit.
        days = list(range(29, 42)) + list(range(30, 34))
        policy = ForecastWindowPolicy()
        for trace in servers[:4]:
            previous = None
            for day in days:
                history = trace.values[: day * 24]
                forecast = policy.forecast_day(history)
                fresh = ForecastWindowPolicy().forecast_day(history)
                assert np.array_equal(forecast, fresh)
                model = self._kept_model(policy, history)
                if previous is not None:
                    extended = model is previous[1]
                    assert extended == (previous[0] < day)
                previous = (day, model)
        assert evaluate_policy(servers, policy, range(29, 41)) == (
            evaluate_policy(servers, ForecastWindowPolicy(), range(29, 41))
        )

    def test_a_shorter_or_different_history_refits(self, servers):
        values = servers[0].values
        policy = ForecastWindowPolicy()
        policy.forecast_day(values[: 40 * 24])
        kept = self._kept_model(policy, values)
        shorter = values[: 35 * 24]
        assert np.array_equal(
            policy.forecast_day(shorter),
            ForecastWindowPolicy().forecast_day(shorter),
        )
        assert self._kept_model(policy, values) is not kept
        kept = self._kept_model(policy, values)
        changed = values[: 41 * 24].copy()
        changed[30 * 24] += 1.0  # same first season, different past
        assert np.array_equal(
            policy.forecast_day(changed),
            ForecastWindowPolicy().forecast_day(changed),
        )
        assert self._kept_model(policy, values) is not kept

    def test_pickles_carry_no_kept_fits(self, servers):
        policy = ForecastWindowPolicy()
        for day in (30, 31):
            policy.forecast_day(servers[0].values[: day * 24])
        assert policy._fits
        blob = pickle.dumps(policy)
        assert blob == pickle.dumps(ForecastWindowPolicy())
        restored = pickle.loads(blob)
        assert restored._fits == {}
        history = servers[0].values[: 32 * 24]
        assert np.array_equal(
            restored.forecast_day(history), policy.forecast_day(history)
        )

        service = SeagullService()
        for trace in servers[:3]:
            service.observe(trace)
            for day in (30, 31, 32):
                service.recommend(trace.tenant_id, day)
        assert service.policy._fits
        blob = pickle.dumps(service)
        assert b"_fits" not in blob and b"HoltWinters" not in blob
        assert pickle.loads(blob).policy._fits == {}


class TestPoolProvisioning:
    @pytest.fixture(scope="class")
    def comparison(self):
        trace = generate_demand(n_days=21, rng=0)
        return compare_policies(trace)

    def test_forecast_policy_highest_hit_rate(self, comparison):
        hit_rates = {
            name: report.hit_rate for name, (report, _) in comparison.items()
        }
        assert hit_rates["forecast"] == max(hit_rates.values())
        assert hit_rates["forecast"] > 0.9

    def test_forecast_reduces_mean_latency(self, comparison):
        means = {
            name: report.mean_latency for name, (report, _) in comparison.items()
        }
        assert means["forecast"] < means["on_demand"] / 5

    def test_on_demand_has_no_idle_cost(self, comparison):
        report, point = comparison["on_demand"]
        assert report.warm_idle_hours == 0.0
        assert point.cost == 0.0

    def test_forecast_policy_uses_weekly_history(self):
        policy = ForecastPoolPolicy(buffer_sigma=0.0)
        counts = np.arange(200.0)
        hour = 170
        assert policy.target(hour, counts[:hour]) == hour - 168

    def test_forecast_cold_start_fallback(self):
        policy = ForecastPoolPolicy()
        assert policy.target(0, np.array([])) >= 0
