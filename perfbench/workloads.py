"""The benchmark's three workloads and the run state they fill in.

Every workload repeats *episodes* until the run's measuring window
closes.  An episode sets the system up from scratch (timed as one
``setup_s`` sample), then performs operations, each timed on its own:

- ``fleet_day`` and ``durable_day`` — one operation is one simulated
  day of the core fleet (steering, CloudViews, Peregrine, Moneyball,
  Seagull, Doppler, feedback) on a streaming SCOPE world of
  :data:`JOBS_PER_DAY` jobs, with Peregrine's repository spilling day
  chunks under :data:`REPO_BUDGET_MB`.  ``durable_day`` attaches a
  checkpoint store, so every service tick also appends a checkpoint
  frame, and each episode ends with a restore.
- ``serve_miss`` — one operation is one Doppler recommendation request
  through the async query plane, sent by :data:`SERVE_CLIENTS`
  closed-loop clients (each sends its next request when the previous
  one returns) against a warmed fleet.  The customers outnumber the
  recommendation cache, so every request misses and goes through
  micro-batching to the model.

Correctness is checked on every episode: fleet reports must repeat
byte for byte across episodes of one seed, a restored fleet must report
exactly what the live one does, and every served response must equal
the service's direct, uncached answer.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import json
import shutil
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.peregrine import WorkloadRepository
from repro.core.peregrine.repository import JobTable
from repro.core.service import ServeRequest
from repro.fabric import (
    CheckpointStore,
    ControlPlane,
    FleetConfig,
    StreamingJobSource,
    build_fleet,
)
from repro.serve import QueryPlane
from repro.workloads import generate_customers

from layers import LayerTrace

#: Jobs per simulated day on the day workloads.  Big enough that
#: generation, ingest and analysis are a real share of a day, small
#: enough for ~200 days in a 40-second run.
JOBS_PER_DAY = 5000
#: Simulated days per episode; day 0 is part of set-up (it fits the
#: one-time models), the rest are measured.
EPISODE_DAYS = 21
#: Repository memory budget: a few days stay hot, older chunks spill.
REPO_BUDGET_MB = 16
#: Closed-loop query clients.  Twice the micro-batcher's batch size,
#: so cache misses fill whole batches.
SERVE_CLIENTS = 32
#: Fleet days ticked before serving, as ``repro serve`` does.
SERVE_WARM_DAYS = 2
#: Serving time per episode (each episode starts with a cold cache).
SERVE_EPISODE_SECONDS = 4.0
#: Distinct customers on ``serve_miss``: twice the query plane's
#: default cache capacity, so cycling through them never hits.
MISS_CUSTOMERS = 8192


@dataclass
class Run:
    """Everything one workload run measured."""

    seed: int
    workdir: Path
    trace: LayerTrace | None = None
    deadline: float = 0.0
    #: wall seconds of every measured operation
    op_seconds: list[float] = field(default_factory=list)
    #: wall seconds the serving loops ran (the query plane's time base)
    serve_seconds: float = 0.0
    setup_seconds: list[float] = field(default_factory=list)
    restore_seconds: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)

    def time_left(self) -> bool:
        return time.perf_counter() < self.deadline


# ---------------------------------------------------------------------------
# fleet days
# ---------------------------------------------------------------------------


def _stage_trouble(plane: ControlPlane) -> int:
    return plane.health.total("retried") + plane.health.total("degraded")


def _op_span(run: Run):
    if run.trace is None:
        return nullcontext()
    return run.trace.span("bench.op", layer="bench")


def _trace_day_layers(trace: LayerTrace) -> None:
    trace.wrap(StreamingJobSource, "day_batch", "bench.generate")
    trace.wrap(WorkloadRepository, "ingest_batch", "bench.ingest")
    trace.wrap(JobTable, "_spill_chunk", "bench.spill")
    trace.wrap(CheckpointStore, "save", "bench.checkpoint.save")


def run_days(run: Run, durable: bool) -> None:
    """Episodes of simulated fleet days, optionally checkpointed."""
    if run.trace is not None:
        _trace_day_layers(run.trace)
    #: simulated days -> report digest of the first episode that long
    reference: dict[int, str] = {}
    for episode in itertools.count():
        if not run.time_left():
            break
        root = run.workdir / f"episode-{episode}"
        try:
            _day_episode(run, durable, root, reference)
        finally:
            shutil.rmtree(root, ignore_errors=True)
            gc.collect()


def _day_episode(
    run: Run, durable: bool, root: Path, reference: dict[int, str]
) -> None:
    obs = run.trace.obs if run.trace is not None else None
    config = FleetConfig(
        seed=run.seed,
        days=EPISODE_DAYS,
        jobs_per_day=JOBS_PER_DAY,
        repo_memory_budget_mb=REPO_BUDGET_MB,
        repo_spill_dir=str(root / "chunks"),
        # Next-day prefetch on the worker pool is pinned off: on a
        # two-core box it slowed days by a quarter and doubled the
        # run-to-run spread of the tail.
        overlap_prefetch=False,
    )
    start = time.perf_counter()
    plane = ControlPlane(obs=obs)
    try:
        store = None
        if durable:
            store = CheckpointStore(root / "store")
            plane.attach_store(store)
        build_fleet(plane, config)
        plane.run_days(1)
        run.setup_seconds.append(time.perf_counter() - start)
        if run.trace is not None:
            run.trace.discard()
        driver = plane._binding_for("peregrine").driver
        before = driver.repo.chunk_stats()
        chain_bytes = store.path.stat().st_size if store else 0
        days = 0
        while days + 1 < EPISODE_DAYS and run.time_left():
            trouble = _stage_trouble(plane)
            with _op_span(run):
                begin = time.perf_counter()
                plane.run_days(1)
                elapsed = time.perf_counter() - begin
            run.op_seconds.append(elapsed)
            days += 1
            if run.trace is not None:
                run.trace.collect()
            if _stage_trouble(plane) != trouble:
                run.failed += 1
        after = driver.repo.chunk_stats()
        run.counts["spills"] += after["spills"] - before["spills"]
        run.counts["chunk_loads"] += after["loads"] - before["loads"]
        if store is not None:
            run.counts["checkpoint_bytes"] += (
                store.path.stat().st_size - chain_bytes
            )
        _check_days(run, plane, reference)
        if store is not None:
            _check_restore(run, plane, store)
    finally:
        plane.close()


def _check_days(
    run: Run, plane: ControlPlane, reference: dict[int, str]
) -> None:
    """Same seed, same days: the fleet report repeats byte for byte."""
    digest = hashlib.blake2b(
        plane.report_bytes(), digest_size=16
    ).hexdigest()
    if reference.setdefault(plane.day, digest) != digest:
        run.problems.append(f"fleet report diverged by day {plane.day}")
    for binding in plane.bindings:
        if binding.ticks != plane.day:
            run.problems.append(
                f"{binding.name} ticked {binding.ticks} of {plane.day} days"
            )


def _fleet_state(plane: ControlPlane) -> str:
    """The report without its day counter.

    The chain's last frame is written by the day's last tick, before
    ``run_days`` advances ``plane.day``; everything the services computed
    is in that frame.
    """
    report = plane.final_report()
    del report["days"]
    return json.dumps(report, sort_keys=True)


def _check_restore(
    run: Run, plane: ControlPlane, store: CheckpointStore
) -> None:
    """A fleet restored from the chain reports what the live one does."""
    begin = time.perf_counter()
    restored = CheckpointStore.load(store.path)
    run.restore_seconds.append(time.perf_counter() - begin)
    try:
        if _fleet_state(restored) != _fleet_state(plane):
            run.problems.append(
                f"restored fleet diverged at day {plane.day}"
            )
    finally:
        restored.close()


# ---------------------------------------------------------------------------
# served queries
# ---------------------------------------------------------------------------


def _same(a, b) -> bool:
    return a == b or repr(a) == repr(b)


class ResponseCheck:
    """Every served response must equal the service's direct answer."""

    def __init__(self, driver) -> None:
        self.driver = driver
        #: subject id -> (request, {response id: response})
        self.seen: dict[int, tuple[ServeRequest, dict]] = {}
        self.failed = 0

    def note(self, request: ServeRequest, response) -> None:
        if response.status != 200:
            self.failed += 1
            return
        entry = self.seen.get(id(request.subject))
        if entry is None:
            entry = self.seen[id(request.subject)] = (request, {})
        entry[1][id(response)] = response

    def problems(self) -> list[str]:
        found = []
        for request, responses in self.seen.values():
            direct = self.driver.serve(request)
            for response in responses.values():
                if not _same(response.result, direct.result):
                    found.append(
                        f"served {response.result!r},"
                        f" direct call gives {direct.result!r}"
                    )
                    break
        return found


def run_serve(run: Run) -> None:
    """Episodes of closed-loop Doppler queries against a warmed fleet."""
    requests = [
        ServeRequest(op="recommend", subject=customer, tenant="contoso")
        for customer in generate_customers(MISS_CUSTOMERS, rng=run.seed)
    ]
    while run.time_left():
        start = time.perf_counter()
        fabric = ControlPlane()
        try:
            build_fleet(
                fabric, FleetConfig(seed=run.seed, days=SERVE_WARM_DAYS + 1)
            )
            fabric.run_days(SERVE_WARM_DAYS)
            plane = QueryPlane(
                fabric,
                # Nothing is shed or throttled: every request is served,
                # so latency is the query path's, not admission's.
                rate_per_tenant=1e9,
                burst=1e9,
                max_queue_depth=10**9,
            )
            run.setup_seconds.append(time.perf_counter() - start)
            _serve_episode(run, fabric, plane, itertools.cycle(requests))
        finally:
            fabric.close()
            gc.collect()


def _serve_episode(run: Run, fabric: ControlPlane, plane: QueryPlane, stream):
    driver = fabric._binding_for("doppler").driver
    trace = run.trace
    if trace is not None:
        trace.wrap(driver, "serve_many", "bench.model")
    check = ResponseCheck(driver)
    latencies = run.op_seconds
    clock = time.perf_counter
    stop = min(run.deadline, clock() + SERVE_EPISODE_SECONDS)

    async def client() -> None:
        while clock() < stop:
            request = next(stream)
            begin = clock()
            response = await plane.handle("doppler", request)
            latencies.append(clock() - begin)
            check.note(request, response)

    async def serve() -> None:
        await asyncio.gather(*(client() for _ in range(SERVE_CLIENTS)))
        plane.drain()

    begin = clock()
    asyncio.run(serve())
    run.serve_seconds += clock() - begin
    if trace is not None:
        trace.collect()
        trace.close()
    run.failed += check.failed
    run.problems.extend(check.problems())
    run.counts["requests"] += plane.requests
    run.counts["batches"] += plane.batcher.batches


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS = {
    "fleet_day": lambda run: run_days(run, durable=False),
    "durable_day": lambda run: run_days(run, durable=True),
    "serve_miss": run_serve,
}
