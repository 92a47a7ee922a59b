"""Streaming generator: bit-identical replay of the eager path.

The scale tentpole only works if ``stream_days`` is a drop-in for
``generate`` — these tests pin job-for-job equivalence across seeds,
drift rates, and instance multipliers, plus the day-addressable random
access the fabric's streaming sources rely on.
"""

import pytest

from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


def _flatten(gen, n_days):
    return [job for day in gen.stream_days(n_days) for job in day]


class TestStreamEagerEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 13])
    def test_stream_matches_generate_across_seeds(self, seed):
        eager = ScopeWorkloadGenerator(rng=seed).generate(n_days=5)
        streamed = _flatten(ScopeWorkloadGenerator(rng=seed), 5)
        assert eager.jobs == streamed

    @pytest.mark.parametrize("drift", [0.0, 0.01, 0.25])
    def test_stream_matches_generate_across_drift(self, drift):
        config = ScopeWorkloadConfig(drift_per_day=drift)
        eager = ScopeWorkloadGenerator(rng=5, config=config).generate(n_days=4)
        streamed = _flatten(ScopeWorkloadGenerator(rng=5, config=config), 4)
        assert eager.jobs == streamed

    def test_stream_matches_generate_with_instances(self):
        config = ScopeWorkloadConfig(instances_per_template=4)
        eager = ScopeWorkloadGenerator(rng=9, config=config).generate(n_days=3)
        streamed = _flatten(ScopeWorkloadGenerator(rng=9, config=config), 3)
        assert eager.jobs == streamed

    def test_stream_does_not_consume_the_eager_rng(self):
        gen = ScopeWorkloadGenerator(rng=4)
        gen.day_jobs(3)  # streaming reads must not move self._rng
        assert gen.generate(n_days=2).jobs == (
            ScopeWorkloadGenerator(rng=4).generate(n_days=2).jobs
        )


class TestDayAddressing:
    def test_day_jobs_random_access_out_of_order(self):
        eager = ScopeWorkloadGenerator(rng=2).generate(n_days=5)
        gen = ScopeWorkloadGenerator(rng=2)
        for day in (4, 0, 2, 4, 1):
            assert gen.day_jobs(day) == list(eager.by_day(day))

    def test_day_jobs_are_submit_sorted(self):
        gen = ScopeWorkloadGenerator(rng=0)
        hours = [job.submit_hour for job in gen.day_jobs(2)]
        assert hours == sorted(hours)
        assert all(48.0 <= h < 72.0 for h in hours)

    def test_stream_days_start_day_offset(self):
        eager = ScopeWorkloadGenerator(rng=6).generate(n_days=6)
        gen = ScopeWorkloadGenerator(rng=6)
        tail = [j for day in gen.stream_days(2, start_day=4) for j in day]
        assert tail == [j for d in (4, 5) for j in eager.by_day(d)]

    def test_rejects_bad_days(self):
        gen = ScopeWorkloadGenerator(rng=0)
        with pytest.raises(ValueError):
            gen.day_jobs(-1)
        with pytest.raises(ValueError):
            list(gen.stream_days(0))


class TestForScale:
    def test_for_scale_hits_requested_volume(self):
        config = ScopeWorkloadConfig.for_scale(10_000)
        gen = ScopeWorkloadGenerator(rng=3, config=config)
        day = gen.day_jobs(0)
        assert 0.9 * 10_000 <= len(day) <= 1.1 * 10_000

    def test_for_scale_keeps_calibrated_fractions(self):
        config = ScopeWorkloadConfig.for_scale(5_000)
        day = ScopeWorkloadGenerator(rng=1, config=config).day_jobs(0)
        recurring = sum(1 for j in day if j.template_id is not None)
        assert abs(recurring / len(day) - config.recurring_fraction) < 0.05

    def test_for_scale_respects_overrides(self):
        config = ScopeWorkloadConfig.for_scale(
            1_000, n_recurring_templates=50, drift_per_day=0.05
        )
        assert config.n_recurring_templates == 50
        assert config.drift_per_day == 0.05
        assert config.instances_per_template >= 1

    def test_instance_job_ids_are_unique(self):
        config = ScopeWorkloadConfig(instances_per_template=3)
        day = ScopeWorkloadGenerator(rng=0, config=config).day_jobs(0)
        ids = [j.job_id for j in day]
        assert len(ids) == len(set(ids))


class TestWorkloadViews:
    def test_by_day_is_memoized(self):
        workload = ScopeWorkloadGenerator(rng=0).generate(n_days=3)
        assert workload.by_day(1) is workload.by_day(1)
        assert isinstance(workload.by_day(1), tuple)

    def test_shards_are_memoized(self):
        workload = ScopeWorkloadGenerator(rng=0).generate(n_days=3)
        assert workload.shards(8) is workload.shards(8)
        assert workload.shards(4) is not workload.shards(8)
