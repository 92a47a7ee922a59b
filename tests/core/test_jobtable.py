"""Columnar JobTable: batch ingest, chunk spill, and manifest pickles.

The repository rewrite must be invisible to existing callers — same
records, same statistics, same errors — while adding the memory-bounded
behaviours these tests pin: cold chunks spill and reload losslessly,
``job()`` after evict equals before, batch ingest matches per-job
ingest byte-for-byte, and pickles carry manifests instead of worlds.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.core.peregrine import JobBatch, WorkloadRepository, analyze
from repro.core.peregrine.repository import _hash_ids
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    config = ScopeWorkloadConfig(n_recurring_templates=60)
    return ScopeWorkloadGenerator(rng=11, config=config).generate(n_days=4)


@pytest.fixture(scope="module")
def reference(workload):
    """Every job ingested as its own one-row batch: the per-job path."""
    repo = WorkloadRepository()
    for job in workload.jobs:
        repo.ingest_batch([job])
    return repo


def _batched(workload, **repo_kwargs):
    repo = WorkloadRepository(**repo_kwargs)
    for day in range(4):
        repo.ingest_batch(JobBatch.from_jobs(list(workload.by_day(day))))
    return repo


class TestHashing:
    def test_hash_is_width_independent(self):
        ids = ["d000-t000", "a-much-longer-job-identifier-xyz", "x"]
        batch = _hash_ids(ids)
        for i, job_id in enumerate(ids):
            assert _hash_ids([job_id])[0] == batch[i]

    def test_distinct_ids_distinct_hashes(self):
        ids = [f"d{d:03d}-t{t:03d}" for d in range(50) for t in range(50)]
        assert len(np.unique(_hash_ids(ids))) == len(ids)


class TestBatchIngest:
    def test_batch_matches_per_job_analysis(self, workload, reference):
        batched = _batched(workload)
        assert dataclasses.asdict(analyze(batched)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_batch_matches_per_job_records(self, workload, reference):
        batched = _batched(workload)
        assert len(batched) == len(reference)
        assert batched.days() == reference.days()
        for got, want in zip(batched.records, reference.records):
            assert got == want

    def test_job_lookup_after_batch(self, workload, reference):
        batched = _batched(workload)
        job_id = workload.by_day(2)[3].job_id
        assert batched.job(job_id) == reference.job(job_id)

    def test_duplicate_across_batches_rejected(self, workload):
        repo = _batched(workload)
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(JobBatch.from_jobs(list(workload.by_day(1))))

    def test_duplicate_within_batch_rejected(self, workload):
        jobs = list(workload.by_day(0))
        with pytest.raises(ValueError, match="already ingested"):
            WorkloadRepository().ingest_batch(jobs + [jobs[0]])

    def test_duplicate_against_per_job_ingest_rejected(self, workload):
        repo = WorkloadRepository()
        repo.ingest_batch([workload.by_day(0)[0]])
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(list(workload.by_day(0)))

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            JobBatch.from_jobs([])

    def test_mixed_day_batch_rejected(self, workload):
        jobs = [workload.by_day(0)[0], workload.by_day(1)[0]]
        with pytest.raises(ValueError, match="per-day"):
            JobBatch.from_jobs(jobs)


class TestSpill:
    def test_spill_reload_round_trip(self, workload, reference, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        stats = repo.chunk_stats()
        assert stats["spilled_chunks"] >= 3  # only the open day stays hot
        # job() after evict == before (and == the in-memory reference)
        for day in range(4):
            job_id = workload.by_day(day)[1].job_id
            assert repo.job(job_id) == reference.job(job_id)
        assert repo.chunk_stats()["loads"] >= 3

    def test_spilled_analysis_identical(self, workload, reference, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        assert dataclasses.asdict(analyze(repo)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_budget_keeps_cold_chunks_out(self, workload, tmp_path):
        repo = _batched(
            workload, memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        assert repo.chunk_stats()["hot_chunks"] == 1
        repo.by_day(0)  # pages day 0 back in, evicts another chunk
        assert repo.chunk_stats()["hot_chunks"] <= 2

    def test_no_spill_without_spill_dir(self, workload):
        repo = _batched(workload, memory_budget_bytes=1)
        assert repo.chunk_stats()["spilled_chunks"] == 0
        assert repo.chunk_stats()["hot_chunks"] == 4


class TestPickling:
    def test_inline_pickle_round_trip(self, workload, reference):
        clone = pickle.loads(pickle.dumps(reference))
        assert len(clone) == len(reference)
        for got, want in zip(clone.records, reference.records):
            assert got == want
        assert dataclasses.asdict(analyze(clone)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_manifest_pickle_round_trip(self, workload, reference, tmp_path):
        repo = _batched(
            workload,
            memory_budget_bytes=50_000,
            spill_dir=tmp_path / "chunks",
        )
        blob = pickle.dumps(repo)
        # Manifest mode: the pickle references chunk files, it does not
        # embed every closed day.
        inline_blob = pickle.dumps(_batched(workload))
        assert len(blob) < len(inline_blob)
        clone = pickle.loads(blob)
        job_id = workload.by_day(1)[0].job_id
        assert clone.job(job_id) == reference.job(job_id)
        assert dataclasses.asdict(analyze(clone)) == dataclasses.asdict(
            analyze(reference)
        )

    def test_manifest_pickles_reference_write_once_files(
        self, workload, tmp_path
    ):
        # Pickles taken mid-day, after a close, and after a reopen each
        # name the files of that moment; later ingest never rewrites a
        # file an older pickle names.
        day0 = list(workload.by_day(0))
        steps = [day0[:10], day0[10:20], list(workload.by_day(1)), day0[20:]]
        repo = WorkloadRepository(
            memory_budget_bytes=1, spill_dir=tmp_path / "chunks"
        )
        blobs = []
        for step in steps:
            repo.ingest_batch(step)
            blobs.append(pickle.dumps(repo))
        for n_steps, blob in enumerate(blobs, start=1):
            clone = pickle.loads(blob)
            twin = WorkloadRepository()
            for step in steps[:n_steps]:
                twin.ingest_batch(step)
            assert list(clone.records) == list(twin.records)
            assert clone.template_stats() == twin.template_stats()
            assert dataclasses.asdict(analyze(clone)) == dataclasses.asdict(
                analyze(twin)
            )


class TestRepositoryViews:
    def test_records_view_indexing(self, workload, reference):
        batched = _batched(workload)
        n = len(batched)
        assert batched.records[0] == reference.records[0]
        assert batched.records[n - 1] == reference.records[n - 1]
        assert batched.records[-1] == reference.records[n - 1]
        assert batched.records[5:8] == reference.records[5:8]
        with pytest.raises(IndexError):
            batched.records[n]

    def test_days_cached_and_invalidated(self, workload):
        repo = WorkloadRepository()
        for job in workload.by_day(0):
            repo.ingest_batch([job])
        first = repo.days()
        assert repo.days() == [0]
        repo.ingest_batch([workload.by_day(1)[0]])
        assert repo.days() == [0, 1]
        assert first == [0]  # caller's copy untouched

    def test_by_day_returns_fresh_list(self, workload):
        repo = _batched(workload)
        got = repo.by_day(2)
        got.clear()
        assert len(repo.by_day(2)) == len(workload.by_day(2))

    def test_reopening_a_closed_day(self, workload, reference):
        repo = WorkloadRepository()
        day0 = list(workload.by_day(0))
        day1 = list(workload.by_day(1))
        repo.ingest_batch(day0[:10])
        repo.ingest_batch(day1)       # closes day 0
        repo.ingest_batch(day0[10:])  # reopens it
        for job in day0:
            assert repo.job(job.job_id) == reference.job(job.job_id)
        assert [r.job_id for r in repo.by_day(1)] == [
            j.job_id for j in day1
        ]
