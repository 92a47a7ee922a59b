"""Workload categorization and the headline statistics.

Produces the numbers the paper quotes for SCOPE: the fraction of
recurring jobs, the fraction of daily jobs sharing subexpressions with at
least one other job, and the fraction of jobs with inter-job
dependencies (experiment E4).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.core.peregrine.repository import SharingFold, WorkloadRepository
from repro.parallel import ShmArray, attach, pmap, resolve_workers


@dataclass
class WorkloadStatistics:
    """Aggregate workload structure statistics."""

    n_jobs: int
    n_templates: int
    recurring_job_fraction: float
    shared_subexpression_fraction: float  # mean over days
    dependency_fraction: float
    jobs_per_template_p50: float
    top_shared_signatures: list[tuple[str, int]]  # (strict sig, #jobs) per day peak

    def summary_rows(self) -> list[tuple[str, float]]:
        """Rows for the E4 bench printout (metric name, value)."""
        return [
            ("jobs", float(self.n_jobs)),
            ("templates", float(self.n_templates)),
            ("recurring_fraction", self.recurring_job_fraction),
            ("shared_subexpr_fraction", self.shared_subexpression_fraction),
            ("dependency_fraction", self.dependency_fraction),
        ]


def _recurring_fraction(repo: WorkloadRepository) -> tuple[float, int, float]:
    """Jobs whose template appears on more than one day are recurring.

    Read from the running totals the repository keeps per ingested
    template — no record scan, and no Python pass over the templates.
    """
    recurring_jobs, n_templates, counts = repo.template_totals()
    return (
        recurring_jobs / max(len(repo), 1),
        n_templates,
        float(np.median(counts)) if len(counts) else 0.0,
    )


def shared_jobs_on_day(
    repo: WorkloadRepository, day: int, min_size: int = 2
) -> tuple[set[str], dict[str, set[str]]]:
    """Jobs on ``day`` sharing a non-trivial strict subexpression.

    Returns (sharing job ids, signature -> job ids for shared signatures).
    ``min_size`` excludes bare table scans, which share trivially.
    """
    owners: dict[str, set[str]] = defaultdict(set)
    for record in repo.by_day(day):
        for sig, node in record.subexpression_strict.items():
            if node.size >= min_size:
                owners[sig].add(record.job_id)
    shared_sigs = {s: jobs for s, jobs in owners.items() if len(jobs) > 1}
    sharing_jobs: set[str] = set()
    for jobs in shared_sigs.values():
        sharing_jobs |= jobs
    return sharing_jobs, shared_sigs


def _day_table(
    repo: WorkloadRepository, min_size: int
) -> tuple[np.ndarray, list[tuple[int, int, int, int]]]:
    """The whole repository's (job, signature) rows as one numpy block.

    Delegates to :meth:`WorkloadRepository.sig_table`, which memoizes
    the block append-only across ``analyze()`` calls: each call gathers
    only days ingested since the last one, so re-analysis per fabric
    tick costs O(new day) instead of re-concatenating (and re-loading
    spilled chunks for) the whole history.  Job codes are the day's
    global row offset plus the local row: bijective with job ids, so
    per-day distinct counts match an interned-string scan.  Returns the
    table plus per-day ``(day, start_row, stop_row, n_jobs)`` slices.
    """
    return repo.sig_table(min_size)


def _day_sharing_worker_shm(
    payload: tuple[object, int, int, int, int],
) -> tuple[int, int, int, dict[str, int]]:
    """Worker: one day's sharing statistics from the shared-memory table.

    ``payload`` is ``(handle, day, start, stop, n_jobs)`` — a few dozen
    bytes; the actual rows are read zero-copy from the table published
    by :func:`analyze`.  Iterating rows in table order reproduces the
    exact first-sighting dict order of :func:`_day_sharing_worker`, so
    the output is bit-identical to the pickled-payload serial path.
    """
    handle, day, start, stop, n_jobs = payload
    rows = attach(handle)[start:stop]
    owners: dict[bytes, set[int]] = {}
    for code, sig in zip(rows["job"].tolist(), rows["sig"].tolist()):
        bucket = owners.get(sig)
        if bucket is None:
            owners[sig] = {code}
        else:
            bucket.add(code)
    shared = {
        sig.decode("ascii"): len(jobs)
        for sig, jobs in owners.items()
        if len(jobs) > 1
    }
    sharing_jobs: set[int] = set()
    for sig, jobs in owners.items():
        if len(jobs) > 1:
            sharing_jobs |= jobs
    return day, n_jobs, len(sharing_jobs), shared


def _dependency_fraction(repo: WorkloadRepository) -> float:
    return repo.dependency_involved() / max(len(repo), 1)


def analyze(
    repo: WorkloadRepository,
    min_subexpr_size: int = 2,
    workers: int = 1,
) -> WorkloadStatistics:
    """Compute the full statistics bundle over everything ingested.

    ``workers`` fans the per-day sharing analysis across the persistent
    process pool.  The parallel path publishes the repository's
    (job, signature) rows to shared memory **once** and sends workers
    only per-day row slices — no pickled object lists cross the pool
    boundary.  The serial path reads the repository's running fold of
    its cached per-day summaries (``WorkloadRepository.sharing_fold``)
    and the template totals it keeps, so re-analysis after each ingested
    day costs that day, not the whole history.  Serial or parallel, the
    statistics are byte-identical for every worker count.
    """
    if len(repo) == 0:
        raise ValueError("repository is empty")
    recurring, n_templates, p50 = _recurring_fraction(repo)
    if resolve_workers(workers) <= 1:
        fold = repo.sharing_fold(min_subexpr_size)
    else:
        table, slices = _day_table(repo, min_subexpr_size)
        with ShmArray(table) as publication:
            day_results = pmap(
                _day_sharing_worker_shm,
                [
                    (publication.handle, day, start, stop, n_jobs)
                    for day, start, stop, n_jobs in slices
                ],
                workers=workers,
            )
        fold = SharingFold()
        fold.update(day_results)
    return WorkloadStatistics(
        n_jobs=len(repo),
        n_templates=n_templates,
        recurring_job_fraction=recurring,
        shared_subexpression_fraction=float(np.mean(fold.fractions)),
        dependency_fraction=_dependency_fraction(repo),
        jobs_per_template_p50=p50,
        top_shared_signatures=list(fold.top),
    )
