"""Tests for the Peregrine workload analysis platform."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.peregrine import (
    WorkloadFeedback,
    WorkloadRepository,
    analyze,
    forecast_daily_volume,
)
from repro.core.peregrine.analysis import WorkloadStatistics, shared_jobs_on_day
from repro.core.peregrine.repository import JobBatch, SharingFold
from repro.core.peregrine.feedback import parameter_vector
from repro.core.peregrine.forecast import forecast_template_parameter
from repro.engine import Filter, Predicate, Scan
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator


@pytest.fixture(scope="module")
def repo(world):
    return WorkloadRepository().ingest(world["workload"])


class TestRepository:
    def test_ingests_every_job(self, repo, world):
        assert len(repo) == len(world["workload"])

    def test_duplicate_ingest_rejected(self, repo, world):
        with pytest.raises(ValueError, match="already"):
            repo.ingest_batch([world["workload"].jobs[0]])

    def test_job_lookup(self, repo, world):
        job = world["workload"].jobs[0]
        assert repo.job(job.job_id).job_id == job.job_id
        with pytest.raises(KeyError):
            repo.job("ghost")

    def test_recurring_jobs_grouped_into_one_template(self, repo, world):
        instances = world["workload"].by_template(0)
        record = repo.job(instances[0].job_id)
        grouped = repo.instances_of(record.template)
        assert {r.job_id for r in grouped} >= {j.job_id for j in instances}

    def test_days(self, repo):
        assert repo.days() == list(range(8))

    def test_dependency_graph_is_dag(self, repo):
        import networkx as nx

        graph = repo.dependency_graph()
        assert nx.is_directed_acyclic_graph(graph)
        assert graph.number_of_edges() > 0


class TestAnalysis:
    def test_reproduces_paper_statistics(self, repo):
        stats = analyze(repo)
        assert stats.recurring_job_fraction > 0.60
        assert 0.25 <= stats.shared_subexpression_fraction <= 0.60
        assert 0.60 <= stats.dependency_fraction <= 0.80

    def test_summary_rows_complete(self, repo):
        rows = dict(analyze(repo).summary_rows())
        assert set(rows) == {
            "jobs",
            "templates",
            "recurring_fraction",
            "shared_subexpr_fraction",
            "dependency_fraction",
        }

    def test_shared_jobs_exclude_trivial_scans(self, repo):
        sharing, shared_sigs = shared_jobs_on_day(repo, 1, min_size=2)
        for sig, jobs in shared_sigs.items():
            assert len(jobs) > 1

    def test_empty_repository_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            analyze(WorkloadRepository())

    def test_top_shared_signatures_sorted(self, repo):
        stats = analyze(repo)
        counts = [c for _, c in stats.top_shared_signatures]
        assert counts == sorted(counts, reverse=True)

    def test_running_fold_matches_a_fold_from_scratch(self):
        """Days arrive in two batches, so every other call re-folds a
        grown last day, and day 2's second half arrives last, reopening
        an earlier day; every call equals the one-shot definition, and
        so does a fresh fold after a pickle round trip."""
        generator = ScopeWorkloadGenerator(
            rng=4, config=ScopeWorkloadConfig.for_scale(400)
        )
        repo = WorkloadRepository()
        late = []
        for day in range(6):
            jobs = generator.day_jobs(day)
            parts = [jobs[: len(jobs) // 2], jobs[len(jobs) // 2:]]
            if day == 2:
                late = parts.pop()
            for part in parts:
                repo.ingest_batch(JobBatch.from_jobs(part, day=day))
                assert analyze(repo) == _statistics_from_scratch(repo)
        repo.ingest_batch(JobBatch.from_jobs(late, day=2))
        stats = analyze(repo)
        assert stats == _statistics_from_scratch(repo)
        assert analyze(pickle.loads(pickle.dumps(repo))) == stats


def _fold_from_scratch(summaries) -> tuple[list, dict, list]:
    fractions, best = [], {}
    for _day, n_jobs, n_sharing, shared in summaries:
        fractions.append(n_sharing / max(n_jobs, 1))
        for sig, count in shared.items():
            best[sig] = max(best.get(sig, 0), count)
    return fractions, best, sorted(best.items(), key=lambda kv: -kv[1])[:10]


def _statistics_from_scratch(repo) -> WorkloadStatistics:
    """``analyze``'s statistics, every pass redone over the whole repo."""
    templates = repo.template_stats()
    counts = [count for _days, count in templates.values()]
    fractions, _best, top = _fold_from_scratch(
        [repo.day_sharing_summary(day) for day in repo.days()]
    )
    return WorkloadStatistics(
        n_jobs=len(repo),
        n_templates=len(templates),
        recurring_job_fraction=sum(
            count for days, count in templates.values() if days > 1
        ) / len(repo),
        shared_subexpression_fraction=float(np.mean(fractions)),
        dependency_fraction=repo.dependency_involved() / len(repo),
        jobs_per_template_p50=float(np.median(counts)),
        top_shared_signatures=top,
    )


#: A day summary from a small signature alphabet, so counts tie often.
SUMMARY = st.tuples(
    st.integers(1, 50),
    st.integers(0, 50),
    st.dictionaries(st.sampled_from("abcdefghijklmnop"), st.integers(2, 5)),
)


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(
    st.tuples(st.sampled_from(("append", "grow", "change")), SUMMARY),
    max_size=12,
))
def test_sharing_fold_matches_scratch_fold(steps):
    """Appended days, a grown last day and a changed earlier day all
    leave the running fold equal to one folded from scratch, ties in
    first-sighting order included."""
    fold = SharingFold()
    summaries: list[tuple] = []
    for op, (n_jobs, n_sharing, shared) in steps:
        if op == "grow" and summaries:
            day, old_jobs = summaries[-1][:2]
            summaries[-1] = (day, old_jobs + n_jobs, n_sharing, shared)
        elif op == "change" and len(summaries) > 1:
            day, old_jobs = summaries[0][:2]
            summaries[0] = (day, old_jobs + n_jobs, n_sharing, shared)
        else:
            summaries.append((len(summaries), n_jobs, n_sharing, shared))
        fold.update(list(summaries))
        fractions, best, top = _fold_from_scratch(summaries)
        assert fold.fractions == fractions
        assert list(fold.best.items()) == list(best.items())
        assert fold.top == top


class TestFeedback:
    def test_parameter_vector_postorder(self):
        plan = Filter(Scan("t"), (Predicate("a", "<=", 3.0), Predicate("b", ">", 7.0)))
        np.testing.assert_array_equal(parameter_vector(plan), [3.0, 7.0])

    def test_observe_job_records_all_nodes(self, repo, world):
        feedback = WorkloadFeedback()
        record = repo.records[0]
        added = feedback.observe_job(record, world["truth"])
        assert added == record.plan.size
        assert len(feedback) == added

    def test_training_matrix_shapes(self, repo, world):
        feedback = WorkloadFeedback()
        for r in repo.records[:80]:
            feedback.observe_job(r, world["truth"])
        template = feedback.templates()[0]
        data = feedback.training_matrix(template)
        assert data is not None
        features, target = data
        assert features.shape[0] == target.shape[0]

    def test_unknown_template_returns_none(self):
        assert WorkloadFeedback().training_matrix("nope") is None

    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            WorkloadFeedback().record(Scan("t"), -1.0)


class TestForecast:
    def test_daily_volume_positive(self, repo):
        forecast = forecast_daily_volume(repo, horizon_days=3)
        assert forecast.shape == (3,)
        assert np.all(forecast >= 0)

    def test_volume_close_to_observed(self, repo):
        observed = len(repo.by_day(7))
        forecast = forecast_daily_volume(repo)[0]
        assert abs(forecast - observed) < 0.3 * observed

    def test_template_parameter_extrapolates_drift(self, repo, world):
        instances = world["workload"].by_template(0)
        record = repo.job(instances[0].job_id)
        forecast = forecast_template_parameter(repo, record.template)
        last = instances[-1].params["filter_value"]
        assert forecast[0] > last  # values drift upward

    def test_unknown_parameter_raises(self, repo, world):
        record = repo.records[0]
        with pytest.raises(KeyError):
            forecast_template_parameter(repo, record.template, "bogus")

    def test_invalid_horizon(self, repo):
        with pytest.raises(ValueError):
            forecast_daily_volume(repo, horizon_days=0)

    def test_empty_repo_rejected(self):
        with pytest.raises(ValueError):
            forecast_daily_volume(WorkloadRepository())


class TestDayIndex:
    def test_by_day_matches_full_scan_in_ingestion_order(self, repo):
        for day in repo.days():
            indexed = [r.job_id for r in repo.by_day(day)]
            scanned = [r.job_id for r in repo.records if r.day == day]
            assert indexed == scanned

    def test_unknown_day_is_empty(self, repo):
        assert repo.by_day(99) == []

    def test_by_day_returns_a_copy(self, repo):
        first = repo.by_day(0)
        first.clear()
        assert repo.by_day(0)
