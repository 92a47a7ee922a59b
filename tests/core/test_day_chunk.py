"""Day chunks: columnar pools, lazily built plans, honest sizes.

A fused day is arrays from the generator through ``JobBatch`` and
``DayChunk`` to the spill file: ad-hoc plans as recipe columns, job and
dependency ids as byte blobs, signatures as raw digests with one flat
code array plus per-plan offsets, and only non-empty parameter dicts.
These tests pin what that must not change: plans built on read equal
the ones ``day_jobs`` stamps, a read never turns a recipe into a
pickled tree, split and reopened days read back like one batch, older
chunk files still load, ``nbytes()`` tracks what a chunk really keeps
resident, and a chunk holds no Python object per row.
"""

import dataclasses
import gc
import pickle
import tracemalloc
import types

import numpy as np
import pytest

from repro.core.peregrine import JobBatch, WorkloadRepository
from repro.core.peregrine.repository import DayChunk, PlanPool, hex_names
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


def _list_pools(chunk: DayChunk) -> dict:
    """A chunk's pools as the lists files held before the columnar layout."""
    plans = chunk.plans
    return {
        "day": chunk.day,
        "job_ids": chunk.ids.tolist(),
        "submit_hours": chunk.submit_hours.array(),
        "plan_codes": chunk.plan_codes.array(),
        "param_codes": chunk.param_codes.array(),
        "plan_templates": hex_names(chunk.template_digests.array()),
        "plan_stricts": hex_names(chunk.strict_digests.array()),
        "sig_names": hex_names(chunk.sig_digests.array()),
        "sig_sizes": chunk.sig_sizes.array().tolist(),
        "params_pool": [dict(plans_params) for plans_params in map(
            chunk.params.__getitem__, range(len(chunk.params))
        )],
        "deps_map": dict(chunk.deps.items()),
        "items": [plans.recipe(c) or plans[c] for c in range(len(plans))],
    }


def _old_layout(self: DayChunk) -> dict:
    """A chunk's pickle state as files written before the flat CSR."""
    state = _list_pools(self)
    items = state.pop("items")
    codes = self.sig_codes.array()
    offsets = self.sig_offsets.array()
    state["plans"] = [
        item if isinstance(item, Expression) else item.build()
        for item in items
    ]
    state["plan_sig_codes"] = [
        codes[offsets[p]:offsets[p + 1]] for p in range(len(items))
    ]
    return state


class _ItemPool:
    """Pickles as the list-pool ``PlanPool(items)`` the parent wrote."""

    def __init__(self, items: list) -> None:
        self.items = items

    def __reduce__(self):
        return PlanPool, (self.items,)


def _parent_layout(self: DayChunk) -> dict:
    """A chunk's pickle state as files written before the columnar
    layout: the flat signature CSR, but ids, names, parameter dicts and
    dependencies as Python lists and a recipe-list plan pool."""
    state = _list_pools(self)
    state["plans"] = _ItemPool(state.pop("items"))
    state["sig_codes"] = self.sig_codes.array()
    state["sig_offsets"] = self.sig_offsets.array()
    return state


def _spill_each_day(tmp_path, batches, layout, monkeypatch):
    repo = WorkloadRepository(memory_budget_bytes=1, spill_dir=tmp_path)
    with monkeypatch.context() as patch:
        patch.setattr(DayChunk, "__getstate__", layout)
        for batch in batches:
            repo.ingest_batch(batch)
    assert repo.chunk_stats()["spills"] >= len(batches) - 1
    return repo


class TestOldChunkFiles:
    def test_old_layout_is_flattened_on_load(self, tmp_path, monkeypatch):
        generator = _generator(seed=6)
        batches = [generator.day_batch(day) for day in range(3)]
        ref = WorkloadRepository()
        for batch in batches:
            ref.ingest_batch(batch)
        repo = _spill_each_day(tmp_path, batches, _old_layout, monkeypatch)
        loads = repo.chunk_stats()["loads"]
        for day in range(3):
            chunk = repo._table.chunk(day)
            assert chunk.sig_offsets.array().dtype == np.int64
            assert len(chunk.sig_offsets) == len(chunk.plans) + 1
            assert repo.day_sharing_summary(day) == ref.day_sharing_summary(day)
            assert repo.by_day(day) == ref.by_day(day)
        assert repo.chunk_stats()["loads"] > loads

    def test_parent_layout_loads_to_identical_reads(self, tmp_path, monkeypatch):
        generator = _generator(seed=6, jobs_per_day=1200)
        batches = [generator.day_batch(day) for day in range(3)]
        ref = WorkloadRepository()
        for batch in batches:
            ref.ingest_batch(batch)
        repo = _spill_each_day(tmp_path, batches, _parent_layout, monkeypatch)
        loads = repo.chunk_stats()["loads"]
        for day in range(3):
            got, want = repo._table.chunk(day), ref._table.chunk(day)
            assert len(got.deps) > 0
            assert got.records() == want.records()
            for min_size in (1, 2, 3):
                for mine, theirs in zip(
                    got.sig_rows(min_size), want.sig_rows(min_size)
                ):
                    assert np.array_equal(mine, theirs)
                assert repo.day_sharing_summary(day, min_size) == (
                    ref.day_sharing_summary(day, min_size)
                )
        assert repo.chunk_stats()["loads"] > loads
        assert repo.dependency_involved() == ref.dependency_involved()
        # A loaded chunk is columnar again, with the fresh chunk's pools.
        got, want = repo._table.chunk(0), ref._table.chunk(0)
        for name in DayChunk._ARRAYS:
            mine, theirs = getattr(got, name).array(), getattr(want, name).array()
            assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
        assert got.ids.tolist() == want.ids.tolist()
        assert got.deps.items() == want.deps.items()
        assert got.params.dicts == want.params.dicts
        got_pool, want_pool = got.plans.__getstate__(), want.plans.__getstate__()
        assert got_pool["names"] == want_pool["names"]
        assert got_pool["objects"] == want_pool["objects"]
        assert np.array_equal(got_pool["recipes"], want_pool["recipes"])


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
