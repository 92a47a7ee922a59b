"""The memoized whole-history (job, signature) block.

``WorkloadRepository.sig_table`` is the append-only cache behind the
parallel analyze path's shared-memory table: per call it may only
gather days ingested since the last call, must keep its fixed ``S16``
signature layout (names are 16 hex characters), must survive min_size
filtering down to empty days, and must never reload spilled chunks for
days it has already folded in.
"""

from __future__ import annotations

import pickle
from hashlib import sha1

import numpy as np
import pytest

from repro.core.peregrine.analysis import analyze
from repro.core.peregrine.repository import (
    DepsCSR,
    JobBatch,
    ParamPool,
    PlanPool,
    StrColumn,
    WorkloadRepository,
    digests_of,
)
from repro.engine import Scan
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


def sig(label: str) -> str:
    """A 16-hex-char signature name standing for ``label``."""
    return sha1(label.encode()).hexdigest()[:16]


def tiny_batch(
    day: int,
    sig_labels: list[str],
    sig_sizes: list[int],
    n_jobs: int = 2,
    job_ids: list[str] | None = None,
) -> JobBatch:
    """A hand-built one-plan batch with a controlled signature pool."""
    if job_ids is None:
        job_ids = [f"d{day}-j{k}" for k in range(n_jobs)]
    plans = PlanPool()
    plans.append(Scan(f"t{day}"))
    return JobBatch(
        day=day,
        ids=StrColumn.from_strs(job_ids),
        submit_hours=np.arange(n_jobs, dtype=np.float64),
        plan_codes=np.zeros(n_jobs, dtype=np.uint32),
        param_codes=np.zeros(n_jobs, dtype=np.uint32),
        plans=plans,
        template_digests=digests_of([sig(f"tmpl{day}")]),
        strict_digests=digests_of([sig(f"strict{day}")]),
        sig_codes=np.arange(len(sig_labels), dtype=np.uint32),
        sig_offsets=np.array([0, len(sig_labels)], dtype=np.int64),
        sig_digests=digests_of([sig(label) for label in sig_labels]),
        sig_sizes=np.asarray(sig_sizes, dtype=np.uint16),
        params=ParamPool(1),
        deps=DepsCSR(),
    )


def fresh_table(repo_days, min_size):
    """Rebuild the block from scratch on a brand-new repository."""
    repo = WorkloadRepository()
    for batch in repo_days:
        repo.ingest_batch(batch)
    return repo.sig_table(min_size)


class TestSigTableMemoization:
    def test_incremental_equals_fresh_rebuild(self):
        generator = ScopeWorkloadGenerator(rng=3)
        repo = WorkloadRepository()
        batches = []
        for day in range(4):
            batch = generator.day_batch(day)
            batches.append(batch)
            repo.ingest_batch(batch)
            table, slices = repo.sig_table(2)
            ref_table, ref_slices = fresh_table(batches, 2)
            assert slices == ref_slices
            assert table.dtype == ref_table.dtype
            assert np.array_equal(table, ref_table)

    def test_second_call_is_cached_object(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa", "bb"], [2, 3]))
        first, _ = repo.sig_table(2)
        second, _ = repo.sig_table(2)
        assert first is second

    def test_sig_column_is_sixteen_hex_bytes(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["ab"], [3]))
        repo.ingest_batch(tiny_batch(1, ["abcdefghijklmnop"], [3]))
        table, _ = repo.sig_table(2)
        assert table.dtype["sig"].itemsize == 16
        assert table["sig"].tolist() == [
            sig(label).encode()
            for label in ("ab", "ab", "abcdefghijklmnop", "abcdefghijklmnop")
        ]

    def test_min_size_filters_rows_but_not_days(self):
        batch = tiny_batch(0, ["s1", "s2", "s5"], [1, 2, 5], n_jobs=3)
        repo = WorkloadRepository()
        repo.ingest_batch(batch)
        table, slices = repo.sig_table(2)
        # sizes 2 and 5 survive, per each of the 3 jobs
        assert len(table) == 6
        assert set(table["sig"].tolist()) == {
            sig("s2").encode(), sig("s5").encode()
        }
        assert slices == [(0, 0, 6, 3)]

    def test_empty_day_under_min_size(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa"], [2]))
        table, slices = repo.sig_table(99)
        assert len(table) == 0
        assert slices == [(0, 0, 0, 2)]
        # a later day extends the empty block without disturbing slices
        repo.ingest_batch(tiny_batch(1, ["bb"], [99]))
        table, slices = repo.sig_table(99)
        assert len(table) == 2
        assert slices == [(0, 0, 0, 2), (1, 0, 2, 2)]
        ref_table, ref_slices = fresh_table(
            [tiny_batch(0, ["aa"], [2]), tiny_batch(1, ["bb"], [99])], 99
        )
        assert slices == ref_slices
        assert np.array_equal(table, ref_table)

    def test_same_day_reingest_invalidates(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa"], [2]))
        repo.sig_table(2)
        more = tiny_batch(0, ["aa"], [2], job_ids=["d0-extra0", "d0-extra1"])
        repo.ingest_batch(more)
        table, slices = repo.sig_table(2)
        assert slices == [(0, 0, 4, 4)]
        assert len(table) == 4

    def test_analyze_after_spill_never_reloads_cached_days(self, tmp_path):
        config = ScopeWorkloadConfig()
        generator = ScopeWorkloadGenerator(rng=5, config=config)
        repo = WorkloadRepository(
            memory_budget_bytes=1, spill_dir=str(tmp_path / "chunks")
        )
        for day in range(3):
            repo.ingest_batch(generator.day_batch(day))
        assert repo.chunk_stats()["spilled_chunks"] >= 1
        first = analyze(repo, workers=2)
        loads_after_first = repo.chunk_stats()["loads"]
        second = analyze(repo, workers=2)
        assert pickle.dumps(first) == pickle.dumps(second)
        # the memoized block answered without paging any chunk back in
        assert repo.chunk_stats()["loads"] == loads_after_first
        # a new day only ever gathers itself
        repo.ingest_batch(generator.day_batch(3))
        loads_before = repo.chunk_stats()["loads"]
        analyze(repo, workers=2)
        assert repo.chunk_stats()["loads"] <= loads_before + 1

    def test_workers_do_not_change_statistics(self):
        """workers=1 vs workers=2 stay byte-identical as days append."""
        generator = ScopeWorkloadGenerator(rng=3)
        repo = WorkloadRepository()
        for day in range(3):
            repo.ingest_batch(generator.day_batch(day))
            serial = analyze(repo, workers=1)
            parallel = analyze(repo, workers=2)
            assert pickle.dumps(serial) == pickle.dumps(parallel)

    def test_cache_not_pickled(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa"], [2]))
        table, slices = repo.sig_table(2)
        clone = pickle.loads(pickle.dumps(repo))
        assert clone._sig_table_cache == {}
        clone_table, clone_slices = clone.sig_table(2)
        assert clone_slices == slices
        assert np.array_equal(clone_table, table)


class TestGlobalJobIndex:
    def test_cross_day_duplicate_detected_via_merged_index(self):
        repo = WorkloadRepository()
        repo.ingest_batch(tiny_batch(0, ["aa"], [2]))
        duplicate = tiny_batch(1, ["bb"], [2], job_ids=["d0-j0", "d1-j1"])
        with pytest.raises(ValueError, match="already ingested"):
            repo.ingest_batch(duplicate)

    def test_find_after_many_days_and_restore(self):
        repo = WorkloadRepository()
        for day in range(5):
            repo.ingest_batch(tiny_batch(day, ["aa"], [2]))
        assert repo.job("d3-j1").job_id == "d3-j1"
        clone = pickle.loads(pickle.dumps(repo))
        assert clone._table._global_index is None
        assert clone.job("d3-j1").job_id == "d3-j1"
        with pytest.raises(KeyError):
            clone.job("d9-j0")
