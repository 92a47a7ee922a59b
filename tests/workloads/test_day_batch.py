"""Pin: the fused columnar day path is bit-identical to the job list.

``ScopeWorkloadGenerator.day_batch`` must produce exactly what
``JobBatch.from_jobs(generator.day_jobs(day))`` produces — same job
order, pools, interning order, RNG advancement, and dependency rows —
across configurations, day-access patterns, and pickle round-trips.
This is the vectorized-generation twin of PR 7's stream-vs-eager gate:
any drift here silently forks the repository's view of the world.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.peregrine.repository import JobBatch
from repro.engine import Expression, Scan
from repro.engine.signatures import signatures
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


def assert_batches_identical(batch: JobBatch, ref: JobBatch) -> None:
    """Field-by-field structural equality (pools compared by value)."""
    assert batch.day == ref.day
    assert batch.ids.tolist() == ref.ids.tolist()
    assert np.array_equal(batch.submit_hours, ref.submit_hours)
    assert np.array_equal(batch.plan_codes, ref.plan_codes)
    assert np.array_equal(batch.param_codes, ref.param_codes)
    assert list(batch.plans) == list(ref.plans)
    for name in (
        "template_digests", "strict_digests", "sig_codes", "sig_offsets",
        "sig_digests", "sig_sizes",
    ):
        mine, theirs = getattr(batch, name), getattr(ref, name)
        assert np.array_equal(mine, theirs)
        assert mine.dtype == theirs.dtype
    assert len(batch.params) == len(ref.params)
    assert batch.params.dicts == ref.params.dicts
    assert batch.deps.items() == ref.deps.items()


CONFIGS = {
    "default": ScopeWorkloadConfig(),
    "instances4": ScopeWorkloadConfig(instances_per_template=4),
    "scale5000": ScopeWorkloadConfig.for_scale(5000),
}


class TestFusedDayBatch:
    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_bit_identical_to_from_jobs(self, name):
        config = CONFIGS[name]
        fused = ScopeWorkloadGenerator(rng=7, config=config)
        legacy = ScopeWorkloadGenerator(rng=7, config=config)
        for day in range(3):
            batch = fused.day_batch(day)
            ref = JobBatch.from_jobs(legacy.day_jobs(day))
            assert_batches_identical(batch, ref)

    def test_rng_states_advance_identically(self):
        fused = ScopeWorkloadGenerator(rng=7)
        legacy = ScopeWorkloadGenerator(rng=7)
        for day in range(3):
            fused.day_batch(day)
            legacy.day_jobs(day)
        assert fused._day_states.keys() == legacy._day_states.keys()
        for day, state in fused._day_states.items():
            assert state == legacy._day_states[day]

    def test_interleaves_with_day_jobs_and_random_access(self):
        config = ScopeWorkloadConfig()
        legacy = ScopeWorkloadGenerator(rng=11, config=config)
        refs = [
            JobBatch.from_jobs(legacy.day_jobs(day)) for day in range(4)
        ]
        mixed = ScopeWorkloadGenerator(rng=11, config=config)
        assert_batches_identical(mixed.day_batch(0), refs[0])
        assert [j.job_id for j in mixed.day_jobs(1)] == refs[1].ids.tolist()
        assert_batches_identical(mixed.day_batch(2), refs[2])
        # random access backwards replays from the cached day state
        assert_batches_identical(mixed.day_batch(1), refs[1])
        assert_batches_identical(mixed.day_batch(3), refs[3])

    def test_pickle_roundtrip_replays_identically(self):
        generator = ScopeWorkloadGenerator(rng=5)
        refs = [
            JobBatch.from_jobs(
                ScopeWorkloadGenerator(rng=5).day_jobs(day)
            )
            for day in range(2)
        ]
        generator.day_batch(0)
        clone = pickle.loads(pickle.dumps(generator))
        assert_batches_identical(clone.day_batch(1), refs[1])
        assert_batches_identical(clone.day_batch(0), refs[0])

    def test_pickle_drops_derived_caches(self):
        """Checkpoints stay manifest-sized: the per-template scaffolds,
        the day and draw layouts and the per-shape template digests are
        rebuilt after unpickling, never carried."""
        generator = ScopeWorkloadGenerator(
            rng=5, config=ScopeWorkloadConfig.for_scale(1200)
        )
        for day in range(5):
            generator.day_batch(day)
        names = ScopeWorkloadGenerator._LAZY_CACHES
        assert set(names) == {
            "_scaffolds", "_day_layout", "_draw_layout", "_adhoc_shapes",
        }
        assert all(getattr(generator, name) for name in names)
        blob = pickle.dumps(generator)
        clone = pickle.loads(blob)
        assert all(not getattr(clone, name) for name in names)
        # Warm or cold, a generator pickles to about the same size.
        cold = pickle.dumps(ScopeWorkloadGenerator(
            rng=5, config=ScopeWorkloadConfig.for_scale(1200)
        ))
        assert len(blob) < len(cold) + 4096
        ref = ScopeWorkloadGenerator(
            rng=5, config=ScopeWorkloadConfig.for_scale(1200)
        )
        assert_batches_identical(clone.day_batch(5), ref.day_batch(5))

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            ScopeWorkloadGenerator(rng=1).day_batch(-1)

    def test_ingest_batch_matches_record_path(self):
        from repro.core.peregrine.repository import WorkloadRepository

        fused_repo = WorkloadRepository()
        record_repo = WorkloadRepository()
        fused_gen = ScopeWorkloadGenerator(rng=9)
        record_gen = ScopeWorkloadGenerator(rng=9)
        for day in range(2):
            fused_repo.ingest_batch(fused_gen.day_batch(day))
            for job in record_gen.day_jobs(day):
                record_repo.ingest_batch([job])
        assert len(fused_repo) == len(record_repo)
        assert fused_repo.days() == record_repo.days()
        for day in range(2):
            assert (
                fused_repo.day_sharing_summary(day)
                == record_repo.day_sharing_summary(day)
            )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("jobs_per_day", [1, 8, 20, 45])
def test_head_equals_from_jobs_over_the_first_jobs(jobs_per_day, seed):
    """A world smaller than the minimum day keeps the day's head; every
    pool is numbered by first appearance, so the head is prefix slices."""
    config = ScopeWorkloadConfig.for_scale(jobs_per_day)
    fused = ScopeWorkloadGenerator(rng=seed, config=config)
    objects = ScopeWorkloadGenerator(rng=seed, config=config)
    for day in range(3):
        full = fused.day_batch(day)
        assert len(full) > jobs_per_day
        head = full.head(jobs_per_day)
        assert len(head) == jobs_per_day
        ref = JobBatch.from_jobs(objects.day_jobs(day)[:jobs_per_day])
        assert_batches_identical(head, ref)


def _rebuilt(node: Expression) -> Expression:
    """``node``'s tree built again by the dataclass constructors, with
    nothing memoized."""
    if isinstance(node, Scan):
        return Scan(node.table)
    return node.with_children(tuple(_rebuilt(c) for c in node.children))


@pytest.mark.parametrize("seed", range(8))
def test_stamped_plans_memoize_what_a_signature_walk_computes(seed):
    """Every node of every stamped recurring plan carries the signatures
    and size a fresh walk over a constructor-built copy computes."""
    generator = ScopeWorkloadGenerator(
        rng=seed, config=ScopeWorkloadConfig.for_scale(3000)
    )
    for template in generator.templates:
        plan = template.instantiate(
            seed, generator.config.drift_per_day, template.scaffold()
        ).plan
        fresh = _rebuilt(plan)
        assert plan == fresh
        for stamped, walked in zip(plan.walk(), fresh.walk(), strict=True):
            assert stamped.__dict__["_memo_signatures"] == signatures(walked)
            assert stamped.__dict__["_memo_size"] == walked.size

