"""Day chunks: lazily built plans, the flat signature CSR, honest sizes.

A fused day carries its ad-hoc plans as recipes and its signature codes
as one flat array plus per-plan offsets, from the generator through
``JobBatch`` and ``DayChunk`` to the spill file.  These tests pin what
that must not change: plans built on read equal the ones ``day_jobs``
stamps, a read never turns a recipe into a pickled tree, split and
reopened days read back like one batch, older chunk files still load,
and ``nbytes()`` tracks what a chunk really keeps resident.
"""

import dataclasses
import gc
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.peregrine import JobBatch, WorkloadRepository
from repro.core.peregrine.repository import DayChunk, PlanPool
from repro.engine import (
    Aggregate,
    DefaultCardinalityEstimator,
    DefaultCostModel,
    Expression,
    Filter,
    Join,
    Predicate,
    Project,
    Scan,
    compile_stages,
)
from repro.fabric import StreamingJobSource
from repro.workloads.scope import (
    AdhocRecipe,
    ScopeWorkloadConfig,
    ScopeWorkloadGenerator,
)


def _generator(seed: int = 5, jobs_per_day: int = 600):
    return ScopeWorkloadGenerator(
        rng=seed, config=ScopeWorkloadConfig.for_scale(jobs_per_day)
    )


def _fused_chunk(day: int = 1) -> DayChunk:
    chunk = DayChunk(day)
    chunk.append_batch(_generator().day_batch(day))
    return chunk


class TestRecipes:
    def test_built_plans_equal_stamped_plans(self):
        batch = _generator().day_batch(2)
        jobs = _generator().day_jobs(2)
        assert any(isinstance(item, AdhocRecipe) for item in batch.plans.items)
        plans = batch.plans
        assert [plans[int(c)] for c in batch.plan_codes] == [
            job.plan for job in jobs
        ]

    def test_readers_share_one_built_plan(self):
        source = StreamingJobSource(seed=4, days=2, jobs_per_day=600)
        first = source.pairs(64).get(0)
        second = source.pairs(64).get(0)
        assert [p for _, p in first] == [p for _, p in second]
        assert all(a is b for (_, a), (_, b) in zip(first, second))

    def test_read_chunk_still_pickles_recipes(self):
        unread = pickle.dumps(_fused_chunk(), protocol=4)
        chunk = _fused_chunk()
        records = chunk.records()
        assert chunk.plans._built
        blob = pickle.dumps(chunk, protocol=4)
        assert blob == unread
        clone = pickle.loads(blob)
        assert not clone.plans._built
        assert any(isinstance(item, AdhocRecipe) for item in clone.plans.items)
        assert clone.records() == records

    def test_self_join_keeps_two_scan_stages(self):
        gen = _generator()
        recipes = [
            item
            for item in gen.day_batch(1).plans.items
            if isinstance(item, AdhocRecipe) and item.join_table == item.table
        ]
        assert recipes
        cost = DefaultCostModel(
            gen.catalog, DefaultCardinalityEstimator(gen.catalog)
        )
        for recipe in recipes:
            plan = recipe.build()
            assert plan.child.left.child is not plan.child.right
            # The same tree from the dataclass constructors: fresh scans.
            filt = Filter(
                Scan(recipe.table),
                (Predicate(recipe.column, "<=", recipe.value),),
            )
            join = Join(filt, Scan(recipe.join_table), "key", "key")
            tree = (
                Aggregate(join, (recipe.column,))
                if recipe.aggregate
                else Project(join, (recipe.column, "key"))
            )
            assert plan == tree
            assert len(compile_stages(plan, cost)) == len(
                compile_stages(tree, cost)
            ) == 5

    def test_pool_extend_keeps_built_plans(self):
        recipe = AdhocRecipe("t", "c", 1.5, None, True)
        source = PlanPool([recipe])
        plan = source[0]
        pool = PlanPool([recipe])
        pool.extend(source)
        assert pool[1] is plan
        assert pool[0] == plan and pool[0] is not plan
        assert isinstance(plan, Expression)


def _one_batch_repo(day_jobs):
    repo = WorkloadRepository()
    repo.ingest_batch(JobBatch.from_jobs(day_jobs))
    return repo


class TestSplitDays:
    """A day ingested in pieces reads back exactly like one batch."""

    @pytest.fixture(scope="class")
    def days(self):
        generator = _generator(seed=8)
        return {day: generator.day_jobs(day) for day in range(2)}

    @staticmethod
    def _assert_same_day(repo, ref, day):
        got = repo._table.chunk(day)
        want = ref._table.chunk(day)
        for min_size in (1, 2, 3):
            for mine, theirs in zip(got.sig_rows(min_size), want.sig_rows(min_size)):
                assert np.array_equal(mine, theirs)
            assert repo.day_sharing_summary(day, min_size) == (
                ref.day_sharing_summary(day, min_size)
            )
        assert repo.by_day(day) == ref.by_day(day)

    def test_second_batch_same_day(self, days):
        jobs = days[0]
        ref = _one_batch_repo(jobs)
        repo = WorkloadRepository()
        repo.ingest_batch(JobBatch.from_jobs(jobs[:100]))
        repo.ingest_batch(JobBatch.from_jobs(jobs[100:]))
        self._assert_same_day(repo, ref, 0)

    @pytest.mark.parametrize("spill", [False, True])
    def test_reopened_day(self, days, spill, tmp_path):
        jobs = days[0]
        ref = _one_batch_repo(jobs)
        kwargs = (
            {"memory_budget_bytes": 1, "spill_dir": tmp_path} if spill else {}
        )
        repo = WorkloadRepository(**kwargs)
        repo.ingest_batch(JobBatch.from_jobs(jobs[:250]))
        repo.ingest_batch(JobBatch.from_jobs(days[1]))  # closes day 0
        repo.ingest_batch(JobBatch.from_jobs(jobs[250:]))  # reopens it
        if spill:
            assert repo.chunk_stats()["loads"] >= 1
        self._assert_same_day(repo, ref, 0)


def _old_layout(self: DayChunk) -> dict:
    """A chunk's pickle state as files written before the flat CSR."""
    codes = self.sig_codes.array()
    offsets = self.sig_offsets.array()
    return {
        "day": self.day,
        "job_ids": self.job_ids,
        "submit_hours": self.submit_hours.array(),
        "plan_codes": self.plan_codes.array(),
        "param_codes": self.param_codes.array(),
        "plans": list(self.plans),
        "plan_templates": self.plan_templates,
        "plan_stricts": self.plan_stricts,
        "plan_sig_codes": [
            codes[offsets[p]:offsets[p + 1]] for p in range(len(self.plans))
        ],
        "sig_names": self.sig_names,
        "sig_sizes": self.sig_sizes,
        "params_pool": self.params_pool,
        "deps_map": self.deps_map,
    }


class TestOldChunkFiles:
    def test_old_layout_is_flattened_on_load(self, tmp_path, monkeypatch):
        generator = _generator(seed=6)
        batches = [generator.day_batch(day) for day in range(3)]
        ref = WorkloadRepository()
        for batch in batches:
            ref.ingest_batch(batch)
        repo = WorkloadRepository(memory_budget_bytes=1, spill_dir=tmp_path)
        with monkeypatch.context() as patch:
            patch.setattr(DayChunk, "__getstate__", _old_layout)
            for batch in batches:
                repo.ingest_batch(batch)
        assert repo.chunk_stats()["spills"] >= 2
        loads = repo.chunk_stats()["loads"]
        for day in range(3):
            chunk = repo._table.chunk(day)
            assert chunk.sig_offsets.array().dtype == np.int64
            assert len(chunk.sig_offsets) == len(chunk.plans) + 1
            assert repo.day_sharing_summary(day) == ref.day_sharing_summary(day)
            assert repo.by_day(day) == ref.by_day(day)
        assert repo.chunk_stats()["loads"] > loads


class TestNbytes:
    def test_fused_chunk_nbytes_tracks_retained_size(self):
        generator = _generator(seed=3, jobs_per_day=5000)
        generator.day_batch(0)  # warm the generator's own caches
        gc.collect()
        tracemalloc.start()
        try:
            chunk = DayChunk(1)
            chunk.append_batch(generator.day_batch(1))
            gc.collect()
            with_chunk = tracemalloc.get_traced_memory()[0]
            estimate = chunk.nbytes()
            n_jobs = chunk.n
            del chunk
            gc.collect()
            retained = with_chunk - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n_jobs > 4000
        assert 0.7 * retained <= estimate <= 1.3 * retained, (
            f"nbytes {estimate:,} vs {retained:,} retained"
        )

    def test_nbytes_counts_built_plans_and_derived_caches(self):
        chunk = _fused_chunk()
        base = chunk.nbytes()
        chunk.sig_rows(2)
        chunk.sig_bytes()
        derived = chunk.nbytes()
        assert derived > base
        plans = chunk.plans
        row = next(
            row
            for row, code in enumerate(chunk.plan_codes.array())
            if isinstance(plans.items[code], AdhocRecipe)
        )
        chunk.record(row)
        assert chunk.nbytes() > derived


class TestDependencyInvolvement:
    def test_cross_day_dependency_matches_exact_union(self):
        day0 = _generator(seed=2).day_jobs(0)
        day1 = _generator(seed=2).day_jobs(1)
        day1[0] = dataclasses.replace(day1[0], depends_on=(day0[0].job_id,))
        repo = WorkloadRepository()
        repo.ingest_batch(day0)
        repo.ingest_batch(day1)
        repo.ingest_batch(_generator(seed=2).day_jobs(2))
        involved: set[str] = set()
        for job in day0 + day1:
            if job.depends_on:
                involved.add(job.job_id)
                involved.update(job.depends_on)
        for job in _generator(seed=2).day_jobs(2):
            if job.depends_on:
                involved.add(job.job_id)
                involved.update(job.depends_on)
        assert repo._dep_fallback
        assert repo.dependency_involved() == len(involved)
