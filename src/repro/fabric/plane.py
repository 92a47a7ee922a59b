"""The control plane: every autonomous service on one shared fabric.

:class:`ControlPlane` hosts :class:`~repro.fabric.pipeline.PipelineDriver`
instances as scheduled feedback pipelines:

- **one scheduler** — ticks run on the DES
  :class:`~repro.infra.des.EventQueue` at per-service cadences
  (simulated days), so multi-service scenarios interleave exactly as a
  shared production fleet would.  The heap is only a *cache*: every
  binding's durable :class:`~repro.fabric.store.ScheduleRecord`
  (next-due time, tick count, paused flag, pending retry) is the
  source of truth, and :meth:`ControlPlane.rebuild_schedule` re-derives
  the heap from the records — which is what lets a killed process
  resume exactly, mid-backoff retries included;
- **one model path** — learned models flow through the plane's
  :class:`~repro.fabric.lifecycle.ModelLifecycle` (one
  :class:`~repro.ml.registry.ModelRegistry`, guardrail-gated
  shadow/flight/promote/rollback);
- **one failure story** — every stage execution is wrapped in
  retry-with-backoff and a degrade-to-default fallback
  (:mod:`repro.fabric.faults`).  Retry backoffs are *scheduled*: a
  failing stage suspends its tick, persists a
  :class:`~repro.fabric.store.RetryState` on the schedule record, and
  resumes as a real DES event ``backoff`` days later — so a crash
  during a backoff window restarts at the pending attempt, never at
  attempt one;
- **one telemetry substrate** — stage spans, health events, and
  lifecycle transitions all land in the bound
  :class:`~repro.obs.runtime.ObservabilityRuntime`.

State between ticks is fully picklable, which is what makes
:mod:`repro.fabric.store` possible: snapshot at any tick boundary,
restore in a fresh process, and the remaining days replay
byte-identically.  Attach a :class:`~repro.fabric.store.CheckpointStore`
with :meth:`ControlPlane.attach_store` and the plane persists a delta
frame after every tick — the durability mode the ``repro chaos``
harness kills and resumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.guardrails import RegressionGuardrail
from repro.fabric.faults import FaultInjector, RetryPolicy
from repro.fabric.lifecycle import ModelLifecycle
from repro.fabric.pipeline import PipelineDriver, StageOutcome, TickContext
from repro.fabric.store import RetryState, ScheduleRecord
from repro.infra.des import EventQueue
from repro.ml.registry import ModelRegistry
from repro.parallel import get_pool

if TYPE_CHECKING:
    from repro.fabric.store import CheckpointStore
    from repro.obs.runtime import ObservabilityRuntime

#: One simulated day in DES clock units.
DAY = 1.0
#: Per-service scheduling offset: keeps concurrent ticks at distinct
#: timestamps (registration order), so resumed runs re-arm into exactly
#: the original execution order without relying on heap tie-breaking.
TICK_EPS = 1e-6
#: Margin keeping next-day ticks out of the current run window.
_RUN_MARGIN = 1e-9


@dataclass
class ServiceBinding:
    """One hosted pipeline: the driver plus its durable schedule record.

    Scheduling state lives entirely on :attr:`record` (a
    :class:`~repro.fabric.store.ScheduleRecord`); the read-only
    properties below are views onto it, so checkpoints that persist the
    record persist everything the scheduler knows.
    """

    driver: PipelineDriver
    record: ScheduleRecord

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def index(self) -> int:
        return self.record.index

    @property
    def cadence_days(self) -> float:
        return self.record.cadence_days

    @property
    def next_due(self) -> float:
        return self.record.next_due

    @property
    def ticks(self) -> int:
        return self.record.ticks

    @property
    def paused(self) -> bool:
        return self.record.paused

    def due_day(self) -> int:
        return int(self.record.next_due)


@dataclass
class FabricHealth:
    """Per-(service, stage) stage-execution counters."""

    counters: dict[tuple[str, str], dict[str, int]] = field(default_factory=dict)

    def record(self, outcome: StageOutcome) -> None:
        bucket = self.counters.setdefault(
            (outcome.service, outcome.stage),
            {"ok": 0, "retried": 0, "degraded": 0, "attempts": 0},
        )
        bucket[outcome.status] += 1
        bucket["attempts"] += outcome.attempts

    def total(self, status: str) -> int:
        return sum(bucket[status] for bucket in self.counters.values())

    def summary(self) -> dict:
        """JSON-able rollup keyed ``service.stage`` (sorted)."""
        return {
            "stages": {
                f"{service}.{stage}": dict(bucket)
                for (service, stage), bucket in sorted(self.counters.items())
            },
            "ok": self.total("ok"),
            "retried": self.total("retried"),
            "degraded": self.total("degraded"),
        }


class ControlPlane:
    """Host, schedule, guard, and checkpoint a fleet of pipelines."""

    def __init__(
        self,
        registry: ModelRegistry | None = None,
        guardrail: RegressionGuardrail | None = None,
        retry: RetryPolicy | None = None,
        injector: FaultInjector | None = None,
        obs: "ObservabilityRuntime | None" = None,
    ) -> None:
        self.registry = registry if registry is not None else ModelRegistry(rng=0)
        self.lifecycle = ModelLifecycle(self.registry, guardrail)
        self.retry = retry or RetryPolicy()
        self.injector = injector or FaultInjector()
        self.health = FabricHealth()
        self.bindings: list[ServiceBinding] = []
        self.queue = EventQueue()
        self.day = 0
        #: Completed ticks across every service — the deterministic
        #: global counter the chaos harness keys its kill point on.
        self.total_ticks = 0
        #: Called after every completed tick as ``hook(plane, binding,
        #: ctx)``.  Process-local (never checkpointed); the chaos
        #: harness installs its SIGKILL trigger here.
        self.tick_hook: Callable[["ControlPlane", ServiceBinding, TickContext], None] | None = None
        # The fabric owns the persistent worker pool's lifecycle: the
        # handle is cheap (workers start lazily on the first parallel
        # dispatch), is reused across every tick and simulated day,
        # is never checkpointed (see fabric.store — restore gets a
        # fresh handle here, re-armed on next use), and is shut down by
        # ``close()``.
        self.pool = get_pool()
        self._obs: "ObservabilityRuntime | None" = None
        self._store: "CheckpointStore | None" = None
        self._lifecycle_mirrored = 0
        if obs is not None:
            self.bind(obs)

    # -- observability ---------------------------------------------------------
    def bind(self, obs: "ObservabilityRuntime | None") -> "ControlPlane":
        """Attach (or detach, with ``None``) the observability runtime."""
        self._obs = obs
        self.queue.bind(obs)
        self.pool.bind(obs)
        for binding in self.bindings:
            binding.driver.bind_obs(obs)
        return self

    def _span(self, name: str, **attributes: object):
        if self._obs is None:
            from contextlib import nullcontext

            return nullcontext()
        return self._obs.span(name, layer="fabric", **attributes)

    def _emit(self, kind: str, value: float = 1.0, **attributes: object) -> None:
        if self._obs is not None:
            self._obs.emit(
                "fabric",
                "fabric",
                kind,
                value=value,
                timestamp=self.queue.now,
                **attributes,
            )

    def _mirror_lifecycle(self) -> None:
        """Replay lifecycle transitions recorded since the last tick."""
        fresh = self.lifecycle.actions[self._lifecycle_mirrored :]
        self._lifecycle_mirrored = len(self.lifecycle.actions)
        if fresh and self._obs is not None:
            self._obs.replay(fresh)

    # -- registration ----------------------------------------------------------
    def register(
        self,
        driver: PipelineDriver,
        cadence_days: float = 1.0,
        start_day: int = 0,
    ) -> ServiceBinding:
        """Host ``driver`` as a pipeline ticking every ``cadence_days``."""
        if cadence_days <= 0:
            raise ValueError("cadence_days must be positive")
        if start_day < self.day:
            raise ValueError(
                f"start_day {start_day} is before fabric day {self.day}"
            )
        if any(b.name == driver.name for b in self.bindings):
            raise ValueError(f"service {driver.name!r} already registered")
        driver.stages()  # validates the driver declares at least one stage
        index = len(self.bindings)
        record = ScheduleRecord(
            name=driver.name,
            index=index,
            cadence_days=float(cadence_days),
            next_due=start_day * DAY + index * TICK_EPS,
            max_attempts=self.retry.max_attempts,
        )
        binding = ServiceBinding(driver=driver, record=record)
        self.bindings.append(binding)
        driver.bind_obs(self._obs)
        self._arm(binding)
        return binding

    def service_names(self) -> list[str]:
        return [b.name for b in self.bindings]

    def _binding_for(self, name: str) -> ServiceBinding:
        for binding in self.bindings:
            if binding.name == name:
                return binding
        raise KeyError(f"no service {name!r} on the fabric")

    # -- pause / resume ----------------------------------------------------------
    def pause(self, name: str) -> None:
        """Stop ``name`` ticking: schedule slots pass without stages.

        The paused flag lives on the durable schedule record, so a
        fleet checkpointed (or killed) while paused resumes paused.  A
        pending retry is abandoned — the suspended tick never completes.
        """
        self._binding_for(name).record.paused = True
        self._emit("service_paused", service=name)

    def unpause(self, name: str) -> None:
        """Let ``name`` tick again from its next schedule slot."""
        self._binding_for(name).record.paused = False
        self._emit("service_unpaused", service=name)

    # -- scheduling ------------------------------------------------------------
    def _arm(self, binding: ServiceBinding) -> None:
        self.queue.schedule(
            binding.record.next_due,
            lambda: self._tick(binding),
            label=f"fabric.{binding.name}.tick",
        )

    def _arm_retry(self, binding: ServiceBinding) -> None:
        self.queue.schedule(
            binding.record.retry.resume_at,
            lambda: self._tick(binding),
            label=f"fabric.{binding.name}.retry",
        )

    def rebuild_schedule(self) -> int:
        """Re-derive the DES heap from the durable schedule records.

        The heap is a cache; this is its miss path.  Every binding is
        re-armed at its record's ``next_due`` — or, when a retry was
        pending, at the retry's ``resume_at`` — in registration order,
        reproducing the original execution order exactly.  Returns the
        number of stale events dropped.
        """
        dropped = self.queue.clear()
        for binding in self.bindings:
            if binding.record.retry is not None:
                self._arm_retry(binding)
            else:
                self._arm(binding)
        return dropped

    def _advance(self, record: ScheduleRecord) -> None:
        """Move ``next_due`` to the next cadence slot after ``now``.

        When a long backoff pushed a tick's completion past one or more
        cadence slots, the missed slots are skipped (the Pipelit rule:
        reschedule relative to *now*, never replay a backlog).
        """
        record.next_due += record.cadence_days * DAY
        while record.next_due < self.queue.now:
            record.next_due += record.cadence_days * DAY

    def _tick(self, binding: ServiceBinding) -> None:
        record = binding.record
        if record.paused:
            record.retry = None
            self._emit(
                "tick_skipped", service=binding.name, day=int(self.queue.now)
            )
            self._advance(record)
            self._arm(binding)
            self._persist()
            return
        retry = record.retry
        if retry is None:
            ctx = TickContext(
                day=int(self.queue.now),
                tick=record.ticks,
                now=self.queue.now,
                lifecycle=self.lifecycle,
            )
            start_index, attempt = 0, 1
        else:
            # Resuming a suspended tick: the context is pinned to the
            # tick's original day/tick so stage behaviour (and reports)
            # match the uninterrupted execution.
            ctx = TickContext(
                day=retry.day,
                tick=retry.tick,
                now=self.queue.now,
                lifecycle=self.lifecycle,
                degraded=retry.degraded,
            )
            start_index, attempt = retry.stage_index, retry.attempt
        stages = binding.driver.stages()
        suspended = False
        with self._span(
            f"fabric.{binding.name}.tick", day=ctx.day, tick=ctx.tick
        ):
            for index in range(start_index, len(stages)):
                stage, fn = stages[index]
                first_attempt = attempt if index == start_index else 1
                if not self._run_stage(
                    binding, stage, index, fn, ctx, first_attempt
                ):
                    suspended = True
                    break
        self._mirror_lifecycle()
        if suspended:
            self._persist()
            return
        record.ticks += 1
        self.total_ticks += 1
        self._advance(record)
        self._arm(binding)
        self._persist()
        if self.tick_hook is not None:
            self.tick_hook(self, binding, ctx)

    def _run_stage(self, binding, stage, stage_index, fn, ctx, attempt) -> bool:
        """Run one attempt of ``stage``; False means the tick suspended.

        A failure below ``max_attempts`` persists a
        :class:`~repro.fabric.store.RetryState` on the schedule record
        and arms a resume event ``backoff(attempt)`` days out — the
        retry survives checkpoints and crashes.  Exhaustion degrades the
        stage (driver fallback) and the tick continues.
        """
        record = binding.record
        error: Exception | None = None
        try:
            with self._span(
                f"fabric.{binding.name}.{stage}", day=ctx.day, attempt=attempt
            ):
                self.injector.check(binding.name, stage, ctx.day)
                fn(ctx)
        except Exception as exc:  # noqa: BLE001 — fault boundary
            error = exc
        if error is None:
            record.retry = None
            status = "ok" if attempt == 1 else "retried"
            if status == "ok":
                self._emit("stage_ok", service=binding.name, stage=stage)
            else:
                self._emit(
                    "stage_recovered",
                    value=float(attempt),
                    service=binding.name,
                    stage=stage,
                )
            self.health.record(
                StageOutcome(
                    service=binding.name,
                    stage=stage,
                    day=ctx.day,
                    attempts=attempt,
                    status=status,
                )
            )
            return True
        # The stage body may have partially executed before raising, so
        # the driver's next delta must include it regardless of flags.
        binding.driver.mark_dirty()
        if attempt < self.retry.max_attempts:
            backoff = self.retry.backoff(attempt)
            self._emit(
                "stage_retry",
                value=backoff,
                service=binding.name,
                stage=stage,
                attempt=attempt,
            )
            record.retry = RetryState(
                stage=stage,
                stage_index=stage_index,
                attempt=attempt + 1,
                resume_at=self.queue.now + backoff,
                day=ctx.day,
                tick=ctx.tick,
                degraded=ctx.degraded,
            )
            self._arm_retry(binding)
            return False
        record.retry = None
        ctx.degraded = True
        binding.driver.degrade(stage, ctx)
        self._emit(
            "stage_degraded",
            service=binding.name,
            stage=stage,
            error=type(error).__name__,
        )
        self.health.record(
            StageOutcome(
                service=binding.name,
                stage=stage,
                day=ctx.day,
                attempts=attempt,
                status="degraded",
                error=str(error),
            )
        )
        return True

    def run_days(self, n_days: int) -> "ControlPlane":
        """Advance the fabric ``n_days`` simulated days."""
        if n_days < 1:
            raise ValueError("n_days must be >= 1")
        return self.run_until(self.day + n_days)

    def run_until(self, day: int) -> "ControlPlane":
        """Run every tick due before simulated day ``day`` begins.

        ``self.day`` is set to ``day`` first, so every frame an attached
        store writes during the run records the day the run ends at.  A
        plane restored from a frame written mid-run therefore finishes
        that run with ``run_until(plane.day)``.
        """
        if day < self.day:
            raise ValueError(f"day {day} is before fabric day {self.day}")
        start, self.day = self.day, day
        with self._span("fabric.run", from_day=start, to_day=day):
            self.queue.run(until=day * DAY - _RUN_MARGIN)
        self._emit("run_complete", value=float(day - start))
        return self

    # -- resources -------------------------------------------------------------
    def close(self) -> None:
        """Release fabric-owned resources: shut the worker pool down.

        Safe at any point — a later ``run_days`` simply re-arms a fresh
        pool on its first parallel dispatch.  Also runs on ``with``
        exit.
        """
        self.pool.shutdown()

    def __enter__(self) -> "ControlPlane":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- checkpoint ------------------------------------------------------------
    def attach_store(self, store: "CheckpointStore | None") -> "ControlPlane":
        """Persist a checkpoint frame after every tick (durability mode).

        The attached store is process-local state (never pickled);
        re-attach after a restore to keep appending to the same chain.
        """
        self._store = store
        return self

    def _persist(self) -> None:
        if self._store is not None:
            self._store.save(self)

    def checkpoint(self, path) -> None:
        """Snapshot fabric state to ``path`` (see :mod:`repro.fabric.store`)."""
        from repro.fabric.store import CheckpointStore

        CheckpointStore(path).save(self)

    @classmethod
    def restore(cls, path, obs: "ObservabilityRuntime | None" = None) -> "ControlPlane":
        """Rebuild a plane from a checkpoint and re-arm its schedule."""
        from repro.fabric.store import CheckpointStore

        return CheckpointStore.load(path, obs=obs)

    # -- reporting -------------------------------------------------------------
    def final_report(self) -> dict:
        """Deterministic whole-run summary (services + lifecycle + health)."""
        return {
            "days": self.day,
            "services": {
                b.name: {
                    "ticks": b.ticks,
                    "cadence_days": b.cadence_days,
                    "report": b.driver.final_report(),
                }
                for b in self.bindings
            },
            "lifecycle": self.lifecycle.summary(),
            "health": self.health.summary(),
        }

    def report_bytes(self) -> bytes:
        """The final report as canonical JSON bytes (equivalence gates)."""
        return json.dumps(
            self.final_report(), sort_keys=True, separators=(",", ":")
        ).encode()

    def render_health(self) -> str:
        """Printable health table (the CLI's fabric view)."""
        lines = [
            f"{'service.stage':<34} {'ok':>5} {'retried':>8} {'degraded':>9}"
        ]
        summary = self.health.summary()
        for key, bucket in summary["stages"].items():
            lines.append(
                f"{key:<34} {bucket['ok']:>5d} {bucket['retried']:>8d}"
                f" {bucket['degraded']:>9d}"
            )
        lines.append(
            f"{'total':<34} {summary['ok']:>5d} {summary['retried']:>8d}"
            f" {summary['degraded']:>9d}"
        )
        return "\n".join(lines)
