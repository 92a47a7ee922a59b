"""Tests for CloudViews computation reuse."""

import pytest

from repro.core.cloudviews import CloudViews
from repro.engine import Scan


@pytest.fixture(scope="module")
def cloudviews(world):
    return CloudViews(world["catalog"], world["est_cost"])


@pytest.fixture(scope="module")
def day_jobs(world):
    return [(j.job_id, j.plan) for j in world["workload"].by_day(2)]


class TestCandidates:
    def test_candidates_shared_and_nontrivial(self, cloudviews, day_jobs):
        for candidate in cloudviews.candidates(day_jobs):
            assert candidate.occurrences >= 2
            assert candidate.expression.size >= 2
            assert candidate.utility > 0

    def test_occurrences_count_distinct_jobs(self, cloudviews, day_jobs):
        for candidate in cloudviews.candidates(day_jobs):
            assert candidate.occurrences == len(set(candidate.job_ids))


class TestSelection:
    def test_selection_respects_budget(self, world, day_jobs):
        tight = CloudViews(
            world["catalog"], world["est_cost"], budget_bytes=1e9
        )
        selected = tight.select(day_jobs)
        assert sum(c.estimated_bytes for c in selected) <= 1e9

    def test_selection_drops_nested_candidates(self, cloudviews, day_jobs):
        selected = cloudviews.select(day_jobs)
        for i, outer in enumerate(selected):
            for inner in selected[i + 1 :]:
                assert not cloudviews._contains(
                    outer.expression, inner.expression
                )

    def test_max_views_cap(self, world, day_jobs):
        capped = CloudViews(world["catalog"], world["est_cost"], max_views=1)
        assert len(capped.select(day_jobs)) <= 1

    def test_invalid_params(self, world):
        with pytest.raises(ValueError):
            CloudViews(world["catalog"], world["est_cost"], min_occurrences=1)
        with pytest.raises(ValueError):
            CloudViews(world["catalog"], world["est_cost"], min_size=1)
        with pytest.raises(ValueError):
            CloudViews(world["catalog"], world["est_cost"], max_views=0)


class TestRewrite:
    def test_rewrite_replaces_matched_subtrees(self, cloudviews, day_jobs):
        selected = cloudviews.select(day_jobs)
        assert selected
        candidate = selected[0]
        job_with_view = next(
            plan
            for job_id, plan in day_jobs
            if cloudviews._contains(plan, candidate.expression)
        )
        rewritten = cloudviews.rewrite(job_with_view, [candidate])
        assert Scan(candidate.view_table) in set(rewritten.walk())
        assert candidate.expression not in set(rewritten.walk())

    def test_rewrite_noop_without_matches(self, cloudviews, day_jobs):
        plan = Scan("t0")
        assert cloudviews.rewrite(plan, cloudviews.select(day_jobs)) == plan


class TestRunDay:
    def test_reuse_improves_latency_and_processing(self, cloudviews, day_jobs, world):
        report = cloudviews.run_day(day_jobs, world["truth"])
        assert report.n_views > 0
        assert report.latency_improvement > 0.0
        assert report.processing_reduction > 0.0

    def test_semantics_preserved_under_rewrite(self, cloudviews, day_jobs, world):
        # The view-aware truth must see identical cardinalities through
        # the rewrite (views return exactly their defining expression).
        from repro.core.cloudviews.reuse import _ViewAwareTruth

        selected = cloudviews.select(day_jobs)
        definitions = {c.view_table: c.expression for c in selected}
        aware = _ViewAwareTruth(world["truth"], definitions)
        for job_id, plan in day_jobs[:10]:
            rewritten = cloudviews.rewrite(plan, selected)
            assert aware.estimate(rewritten) == pytest.approx(
                world["truth"].estimate(plan)
            )

    def test_baseline_sums_every_job_cost_in_job_order(
        self, cloudviews, day_jobs, world
    ):
        # Repeated plans are costed once; the sum still runs per job.
        from repro.engine import DefaultCostModel

        jobs = day_jobs + [(f"{job_id}-again", plan) for job_id, plan in day_jobs]
        report = cloudviews.run_day(jobs, world["truth"])
        truth = DefaultCostModel(world["catalog"], world["truth"])
        assert report.baseline_latency == sum(
            truth.cost(plan).total for _, plan in jobs
        )

    def test_report_fields_consistent(self, cloudviews, day_jobs, world):
        report = cloudviews.run_day(day_jobs, world["truth"])
        assert report.n_jobs == len(day_jobs)
        assert report.reuse_latency <= report.baseline_latency
