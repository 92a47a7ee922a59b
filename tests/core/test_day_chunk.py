"""Day chunks: columnar pools, lazily built plans, honest sizes.

A fused day is arrays from the generator through ``JobBatch`` and
``DayChunk`` to the spill file: ad-hoc plans as recipe columns, job and
dependency ids as byte blobs, signatures as raw digests with one flat
code array plus per-plan offsets, and only non-empty parameter dicts.
These tests pin what that must not change: plans built on read equal
the ones ``day_jobs`` stamps, a read never turns a recipe into a
pickled tree, split and reopened days read back like one batch, a chunk
file that cannot be read names itself, ``nbytes()`` tracks what a chunk
really keeps resident, and a chunk holds no Python object per row.
"""

import dataclasses
import gc
import pickle
import tracemalloc
import types

import numpy as np
import pytest

from repro.core.peregrine import JobBatch, WorkloadRepository
from repro.core.peregrine.repository import _RECIPE, DayChunk, PlanPool
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
        plans = batch.plans
        assert any(plans.recipe(c) is not None for c in range(len(plans)))
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
        plans = clone.plans
        assert any(plans.recipe(c) is not None for c in range(len(plans)))
        assert clone.records() == records

    def test_self_join_keeps_two_scan_stages(self):
        gen = _generator()
        plans = gen.day_batch(1).plans
        recipes = [
            recipe
            for recipe in map(plans.recipe, range(len(plans)))
            if recipe is not None and recipe.join_table == recipe.table
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
        source = _recipe_pool(recipe)
        plan = source[0]
        pool = _recipe_pool(recipe)
        pool.extend(source)
        assert pool[1] is plan
        assert pool[0] == plan and pool[0] is not plan
        assert isinstance(plan, Expression)


def _recipe_pool(recipe: AdhocRecipe) -> PlanPool:
    """A one-entry pool holding ``recipe`` as a recipe row (no join)."""
    row = np.zeros(1, dtype=_RECIPE)
    row["column"], row["join"] = 1, -1
    row["value"], row["aggregate"] = recipe.value, recipe.aggregate
    return PlanPool.with_recipes(1, {}, [0], [recipe.table, recipe.column], row)


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


class TestUnreadableChunkFiles:
    """A spilled chunk that cannot be read raises one error naming it."""

    @pytest.mark.parametrize("damage", ["truncated", "old_layout"])
    def test_unreadable_chunk_names_its_file(self, tmp_path, monkeypatch, damage):
        generator = _generator(seed=6)
        repo = WorkloadRepository(memory_budget_bytes=1, spill_dir=tmp_path)
        for day in range(2):
            repo.ingest_batch(generator.day_batch(day))
        assert 0 not in repo._table.chunks
        path = tmp_path / repo._table.chunk_files[0]
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-9])
        else:
            # A chunk state from before the columnar layout.
            with monkeypatch.context() as patch:
                patch.setattr(
                    DayChunk, "__getstate__",
                    lambda self: {"day": 0, "job_ids": []},
                )
                path.write_bytes(pickle.dumps(DayChunk(0), protocol=4))
        with pytest.raises(ValueError, match=f"{path.name}: unreadable spill file"):
            repo.by_day(0)


def _reachable(root) -> int:
    """Objects reachable from ``root`` by ``gc.get_referents``; a plan
    tree, a type or a module counts as one object."""
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if not isinstance(obj, (Expression, type, types.ModuleType)):
            stack.extend(gc.get_referents(obj))
    return len(seen)


class TestNoPerRowObjects:
    @pytest.mark.parametrize("jobs_per_day", [1200, 5000])
    def test_state_objects_grow_with_plans_with_params(self, jobs_per_day):
        chunk = DayChunk(1)
        chunk.append_batch(_generator(seed=3, jobs_per_day=jobs_per_day).day_batch(1))
        with_params = len(chunk.params.dicts)
        objects = _reachable(chunk.__getstate__())
        assert chunk.n > 1000 and len(chunk.deps) > 0
        # A parameter dict with its keys and values, a plan tree and its
        # code: a few objects per recurring plan, none per row.
        assert objects <= 12 * with_params + 200, (objects, with_params)
        assert objects < chunk.n / 4


class TestNbytes:
    def test_fused_5k_chunk_fits_800_kib(self):
        chunk = DayChunk(1)
        chunk.append_batch(_generator(seed=3, jobs_per_day=5000).day_batch(1))
        assert chunk.n > 4000
        assert chunk.nbytes() <= 800 * 1024

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
            for row, code in enumerate(chunk.plan_codes.array().tolist())
            if plans.recipe(code) is not None
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
