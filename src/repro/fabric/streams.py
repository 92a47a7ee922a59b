"""The fleet's SCOPE workload feed: one seeded stream, one day at a time.

Peregrine's repository and the plan-facing services (steering,
CloudViews) see the same day of jobs.  :class:`StreamingJobSource` is
that feed: a day-addressable view over the seeded generator sized by
``ScopeWorkloadConfig.for_scale(jobs_per_day)``.  A tick generates its
day on demand, every driver on the plane shares the one-day cache, and
the previous day's data is garbage the moment the tick moves on, so a
million-job world never sits in RAM.

A day is the first ``jobs_per_day`` jobs the generator stamps for it,
as one :class:`~repro.core.peregrine.repository.JobBatch` built by the
fused columnar path (:meth:`ScopeWorkloadGenerator.day_batch`); it never
exists as a job list.  A world smaller than the generator's minimum day
keeps the day's head (:meth:`JobBatch.head`).

With ``overlap=True``, accessing day ``d`` also submits day ``d+1``'s
generation to the persistent :class:`~repro.parallel.WorkerPool`: the
worker process replays the generator from the exact per-day RNG state
the parent hands it, so the prefetched batch is bit-identical to a
local build, and the returned day-``d+2`` RNG state keeps the parent's
replay chain seamless.  Futures are process-local and never pickled —
a checkpoint restored mid-overlap simply regenerates locally.

:meth:`StreamingJobSource.pairs` wraps the feed as the head-limited
``(job_id, plan)`` view the plan-facing services sample (reading
straight off the batch columns).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.parallel import get_pool
from repro.workloads.scope import ScopeWorkloadConfig, ScopeWorkloadGenerator

if TYPE_CHECKING:
    from repro.core.peregrine.repository import JobBatch

#: Worker-process generator cache: one generator per world, keyed by
#: what the world is a function of, so catalog/template construction
#: and the per-day replay states are paid once per worker, not per day.
_PREFETCH_GENERATORS: dict[tuple[int, int], ScopeWorkloadGenerator] = {}


def _world(seed: int, jobs_per_day: int) -> ScopeWorkloadGenerator:
    return ScopeWorkloadGenerator(
        rng=seed, config=ScopeWorkloadConfig.for_scale(jobs_per_day)
    )


def _head_batch(
    generator: ScopeWorkloadGenerator, day: int, head: int
) -> "JobBatch":
    """The first ``head`` jobs of ``day`` as one batch."""
    return generator.day_batch(day).head(head)


def _prefetch_day(payload: tuple) -> tuple["JobBatch", object]:
    """Worker task: build one day's batch on the warm pool.

    ``payload`` is ``(seed, jobs_per_day, day, state)`` where ``state``
    is the parent's cached RNG state at the start of ``day`` (or
    ``None``, forcing a from-scratch replay).  Returns the batch plus
    the generator's RNG state at the start of ``day + 1`` so the parent
    can extend its own replay chain without regenerating.  Generation
    is pure given the seed/size/day, so the result is bit-identical to
    a parent-local :meth:`StreamingJobSource.day_batch` call.
    """
    seed, jobs_per_day, day, state = payload
    key = (seed, jobs_per_day)
    generator = _PREFETCH_GENERATORS.get(key)
    if generator is None:
        generator = _world(seed, jobs_per_day)
        _PREFETCH_GENERATORS[key] = generator
    if state is not None:
        generator._day_states.setdefault(day, state)
    batch = _head_batch(generator, day, jobs_per_day)
    return batch, generator._day_states[day + 1]


class StreamingJobSource:
    """Day-addressable job feed over the seeded streaming generator.

    Days are generated on first access and cached until a different day
    is requested (capacity-1 cache: every driver ticks the same day, so
    one generation serves the whole fleet).  Days outside ``[0, days)``
    are ``None``.  Pickles carry the generator (catalog + RNG day
    states, a few MB) but never the cached day or an in-flight prefetch
    future, so checkpoints stay manifest-sized and a resumed source
    replays deterministically.

    ``overlap=True`` prefetches day ``d+1`` on the shared worker pool
    while day ``d``'s services run.
    """

    def __init__(
        self, seed: int, days: int, jobs_per_day: int, overlap: bool = False
    ) -> None:
        if days < 1:
            raise ValueError("days must be >= 1")
        self.seed = seed
        self.days = days
        self.jobs_per_day = jobs_per_day
        self.overlap = overlap
        self._generator = _world(seed, jobs_per_day)
        self._batch_cache: tuple[int, "JobBatch"] | None = None
        self._pending: tuple[int, object] | None = None  # (day, Future)
        self.prefetch_hits = 0
        self.prefetch_misses = 0

    @property
    def catalog(self):
        """The catalog (fully built at construction, shared fleet-wide)."""
        return self._generator.catalog

    # -- overlap ------------------------------------------------------------
    def _prefetch(self, day: int) -> None:
        if not 0 <= day < self.days or self._pending is not None:
            return
        state = self._generator._day_states.get(day)
        payload = (self.seed, self.jobs_per_day, day, state)
        try:
            future = get_pool().submit(_prefetch_day, payload)
        except Exception:
            return  # pool unavailable: next access generates locally
        self._pending = (day, future)

    def _take_prefetched(self, day: int) -> "JobBatch | None":
        pending = self._pending
        if pending is None:
            return None
        self._pending = None
        pending_day, future = pending
        if pending_day != day:
            future.cancel()
            return None
        try:
            batch, next_state = future.result()
        except Exception:
            self.prefetch_misses += 1
            return None  # worker died / pool torn down: regenerate
        self._generator._day_states.setdefault(day + 1, next_state)
        self.prefetch_hits += 1
        return batch

    # -- access -------------------------------------------------------------
    def day_batch(self, day: int) -> "JobBatch | None":
        """The day's batch: its first ``jobs_per_day`` jobs (``None`` off-range).

        Serves the capacity-1 batch cache, then a finished prefetch,
        then a local build — and, with ``overlap``, queues day ``d+1``'s
        prefetch before returning, so generation overlaps the services
        consuming day ``d``.  All three paths are bit-identical.
        """
        if not 0 <= day < self.days:
            return None
        cached = self._batch_cache
        if cached is not None and cached[0] == day:
            return cached[1]
        batch = self._take_prefetched(day)
        if batch is None:
            batch = _head_batch(self._generator, day, self.jobs_per_day)
        self._batch_cache = (day, batch)
        if self.overlap:
            self._prefetch(day + 1)
        return batch

    def pairs(self, head: int | None = None) -> "JobPairsView":
        return JobPairsView(self, head)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_batch_cache"] = None
        state["_pending"] = None
        return state


class JobPairsView:
    """``(job_id, plan)`` pairs per day, optionally head-limited.

    The plan-facing services (steering, CloudViews) optimize every plan
    they see, so they sample the first ``head`` jobs of each day while
    the repository ingests the whole feed.  Pairs are read straight off
    the shared day batch's columns (the id blob plus the interned plan
    pool), so the plan-facing sample and the repository ingest share
    one generation per day.  Indexing the pool builds a recipe's plan
    on first read and caches it in the batch, so every service sampling
    the day gets the same plan object.
    """

    def __init__(self, source: StreamingJobSource, head: int | None) -> None:
        self.source = source
        self.head = head

    def get(self, day: int, default=None):
        batch = self.source.day_batch(day)
        if batch is None or not len(batch):
            return default
        n = len(batch) if self.head is None else min(self.head, len(batch))
        plans = batch.plans
        codes = batch.plan_codes[:n].tolist()
        return [
            (job_id, plans[code])
            for job_id, code in zip(batch.ids.tolist(n), codes)
        ]
