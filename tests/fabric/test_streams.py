"""Streaming worlds on the fabric: sources, fleet wiring, resume."""

import pickle

import numpy as np
import pytest

from repro.core.peregrine.repository import JobBatch
from repro.fabric import (
    ControlPlane,
    FleetConfig,
    StreamingJobSource,
    build_fleet,
)
from repro.fabric.fleet import PeregrineDriver
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


class TestStreamingJobSource:
    def test_matches_eager_generator(self):
        # 50 jobs/day sizes the default 46-job world: every day fits.
        source = StreamingJobSource(seed=3, days=3, jobs_per_day=50)
        eager = ScopeWorkloadGenerator(rng=3).generate(n_days=3)
        for day in range(3):
            assert source.pairs().get(day) == [
                (j.job_id, j.plan) for j in eager.by_day(day)
            ]

    def test_day_cache_capacity_one(self):
        source = StreamingJobSource(seed=0, days=3, jobs_per_day=50)
        assert source.day_batch(1) is source.day_batch(1)
        first = source.day_batch(1)
        source.day_batch(2)
        assert source.day_batch(1) is not first  # regenerated, not hoarded

    def test_out_of_range_days_empty(self):
        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        assert source.day_batch(2) is None
        assert source.day_batch(-1) is None
        assert source.pairs().get(2, []) == []
        assert source.pairs().get(5) is None

    def test_pairs_view_head_limit(self):
        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        pairs = source.pairs(head=4)
        day = pairs.get(0)
        assert len(day) == 4
        jobs = ScopeWorkloadGenerator(rng=0).day_jobs(0)[:4]
        assert day == [(j.job_id, j.plan) for j in jobs]
        assert pairs.get(9, []) == []

    def test_pickle_round_trip_replays(self):
        source = StreamingJobSource(seed=5, days=3, jobs_per_day=50)
        want = source.day_batch(2).ids.tolist()
        clone = pickle.loads(pickle.dumps(source))
        assert clone.day_batch(2).ids.tolist() == want

    def test_rejects_zero_days(self):
        with pytest.raises(ValueError):
            StreamingJobSource(seed=0, days=0, jobs_per_day=10)

    def test_day_is_the_head_of_a_longer_generated_day(self):
        # for_scale(1000) stamps 1,015 jobs a day: the feed is the first
        # 1,000 of them, batched exactly as the record path would.
        source = StreamingJobSource(seed=2, days=2, jobs_per_day=1000)
        generator = ScopeWorkloadGenerator(
            rng=2, config=ScopeWorkloadConfig.for_scale(1000)
        )
        for day in range(2):
            jobs = generator.day_jobs(day)
            assert len(jobs) > 1000
            mine = source.day_batch(day)
            theirs = JobBatch.from_jobs(jobs[:1000])
            assert mine.ids.tolist() == theirs.ids.tolist()
            assert np.array_equal(mine.sig_digests, theirs.sig_digests)


class TestFleetStreaming:
    @pytest.mark.parametrize("jobs_per_day", [8, 46, 500, 1000])
    def test_peregrine_ingests_jobs_per_day(self, jobs_per_day):
        config = FleetConfig(
            days=1, jobs_per_day=jobs_per_day, include=("peregrine",)
        )
        plane = ControlPlane()
        build_fleet(plane, config)
        plane.run_days(1)
        ingested = len(plane._binding_for("peregrine").driver.repo)
        plane.close()
        # The world is sized to jobs_per_day and the feed cut to it.
        assert 0.9 * jobs_per_day <= ingested <= jobs_per_day

    def test_streaming_fleet_runs_and_ingests_full_days(self, tmp_path):
        config = FleetConfig(
            days=2,
            jobs_per_day=5000,
            include=("peregrine", "steering"),
            repo_memory_budget_mb=1,
            repo_spill_dir=str(tmp_path / "chunks"),
        )
        plane = ControlPlane()
        build_fleet(plane, config)
        plane.run_days(2)
        driver = next(
            b.driver
            for b in plane.bindings
            if isinstance(b.driver, PeregrineDriver)
        )
        # the repository saw the full stream, not the service head
        assert len(driver.repo) > 2 * config.service_jobs_per_day
        assert driver.repo.days() == [0, 1]
        assert driver.repo.chunk_stats()["spilled_chunks"] >= 1
        steering = next(
            b.driver for b in plane.bindings if b.name == "steering"
        )
        # the plan-facing service sampled only each day's head
        assert steering.jobs_seen == 2 * config.service_jobs_per_day
        plane.close()

    def test_streaming_checkpoint_resume_identical(self, tmp_path):
        def run(resume_from=None):
            config = FleetConfig(
                days=3,
                jobs_per_day=600,
                include=("peregrine", "steering"),
            )
            plane = ControlPlane()
            build_fleet(plane, config)
            if resume_from is None:
                plane.run_days(3)
            else:
                plane.run_days(1)
                blob = plane.checkpoint(tmp_path / "ckpt.bin")
                plane.close()
                plane = ControlPlane.restore(tmp_path / "ckpt.bin")
                plane.run_days(2)
            report = plane.report_bytes()
            plane.close()
            return report

        assert run() == run(resume_from="ckpt")


class TestDayBatchSource:
    def test_day_batch_cached_and_off_range_none(self):
        source = StreamingJobSource(seed=0, days=2, jobs_per_day=50)
        batch = source.day_batch(0)
        assert batch is source.day_batch(0)
        assert source.day_batch(2) is None
        assert source.day_batch(-1) is None

    def test_pairs_read_off_the_batch(self):
        source = StreamingJobSource(seed=4, days=2, jobs_per_day=60)
        legacy = ScopeWorkloadGenerator(
            rng=4, config=ScopeWorkloadConfig.for_scale(60)
        )
        for day in range(2):
            pairs = source.pairs(head=10).get(day)
            jobs = legacy.day_jobs(day)[:10]
            assert [job_id for job_id, _plan in pairs] == [
                j.job_id for j in jobs
            ]
            assert [plan for _job_id, plan in pairs] == [
                j.plan for j in jobs
            ]
        assert source.pairs(head=10).get(5, "missing") == "missing"

    def test_overlap_fallback_is_local_and_identical(self, monkeypatch):
        # Pool submission failing must silently fall back to local
        # generation with the same bits.
        import repro.fabric.streams as streams

        def broken_pool():
            raise RuntimeError("no pool in this test")

        monkeypatch.setattr(streams, "get_pool", broken_pool)
        forced = StreamingJobSource(
            seed=6, days=2, jobs_per_day=50, overlap=True
        )
        plain = StreamingJobSource(seed=6, days=2, jobs_per_day=50)
        for day in range(2):
            theirs = plain.day_batch(day)
            mine = forced.day_batch(day)
            assert mine.ids.tolist() == theirs.ids.tolist()
            assert np.array_equal(mine.sig_digests, theirs.sig_digests)
        assert forced.prefetch_hits == 0

    def test_prefetched_day_matches_local_across_world_sizes(
        self, monkeypatch
    ):
        # Back-to-back sources of different size share one worker-side
        # generator cache; each must still get its own world's days.
        import concurrent.futures

        import repro.fabric.streams as streams

        class InlinePool:
            def submit(self, fn, payload):
                future = concurrent.futures.Future()
                future.set_result(fn(payload))
                return future

        monkeypatch.setattr(streams, "get_pool", InlinePool)
        monkeypatch.setattr(streams, "_PREFETCH_GENERATORS", {})
        for jobs_per_day in (30, 1200):
            prefetched = StreamingJobSource(
                seed=0, days=3, jobs_per_day=jobs_per_day, overlap=True
            )
            local = StreamingJobSource(
                seed=0, days=3, jobs_per_day=jobs_per_day
            )
            for day in range(3):
                mine = prefetched.day_batch(day)
                theirs = local.day_batch(day)
                assert mine.ids.tolist() == theirs.ids.tolist()
                assert np.array_equal(mine.sig_digests, theirs.sig_digests)
            assert prefetched.prefetch_hits == 2

    def test_pickle_drops_pending_and_caches(self):
        source = StreamingJobSource(seed=1, days=2, jobs_per_day=50)
        source.day_batch(0)
        clone = pickle.loads(pickle.dumps(source))
        assert clone._batch_cache is None
        assert clone._pending is None
        assert clone.day_batch(0).ids.tolist() == source.day_batch(0).ids.tolist()

    @pytest.mark.skipif(
        "REPRO_PARALLEL_FORCE" not in __import__("os").environ,
        reason="needs the real worker pool (REPRO_PARALLEL_FORCE=1)",
    )
    def test_real_pool_prefetch_identical_and_engaged(self):
        plain = StreamingJobSource(seed=2, days=3, jobs_per_day=1200)
        overlapped = StreamingJobSource(
            seed=2, days=3, jobs_per_day=1200, overlap=True
        )
        for day in range(3):
            theirs = plain.day_batch(day)
            mine = overlapped.day_batch(day)
            assert mine.ids.tolist() == theirs.ids.tolist()
            assert np.array_equal(mine.sig_digests, theirs.sig_digests)
            assert mine.deps.items() == theirs.deps.items()
        assert overlapped.prefetch_hits >= 1

    @pytest.mark.skipif(
        "REPRO_PARALLEL_FORCE" not in __import__("os").environ,
        reason="needs the real worker pool (REPRO_PARALLEL_FORCE=1)",
    )
    def test_checkpoint_resume_identical_under_overlap(self, tmp_path):
        def run(resume: bool):
            config = FleetConfig(
                days=3,
                jobs_per_day=1200,
                include=("peregrine", "steering"),
                overlap_prefetch=True,
            )
            plane = ControlPlane()
            build_fleet(plane, config)
            if not resume:
                plane.run_days(3)
            else:
                plane.run_days(1)
                plane.checkpoint(tmp_path / "ckpt.bin")
                plane.close()
                plane = ControlPlane.restore(tmp_path / "ckpt.bin")
                plane.run_days(2)
            report = plane.report_bytes()
            plane.close()
            return report

        assert run(resume=False) == run(resume=True)
