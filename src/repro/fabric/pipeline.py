"""Feedback pipelines: the one shape every fabric-hosted service runs as.

The paper's Section 5 argument is that autonomy stays affordable only
when every service runs the *same* feedback loop on shared
infrastructure.  A :class:`PipelineDriver` declares that loop as up to
five named stages::

    observe -> learn -> recommend -> act -> validate

Each stage is an ordinary method taking a :class:`TickContext`; a driver
defines only the stages its service needs (a pure monitoring pipeline
may declare just ``observe``/``validate``).  The
:class:`~repro.fabric.plane.ControlPlane` executes the declared stages
in canonical order on every tick, wraps each in retry/degrade fault
handling, and emits one span plus health events per stage.

Drivers must be **picklable**: the fabric checkpoints full state (driver
objects included) between ticks, so stage methods are bound methods of
the driver — never closures — and any callables a driver holds (cost
functions, retrainers) are module-level classes or functions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.core.service import ServeRequest, ServeResponse

if TYPE_CHECKING:
    from repro.core.service import AutonomousService
    from repro.fabric.lifecycle import ModelLifecycle

#: Canonical stage order; drivers implement any subset.
STAGES = ("observe", "learn", "recommend", "act", "validate")


@dataclass
class TickContext:
    """What one pipeline tick knows about its place in the run.

    ``day`` is the simulated day the tick fires on, ``tick`` the
    per-service tick counter, ``now`` the DES clock in days.
    ``lifecycle`` is the fabric's single model-deployment path — any
    stage that produces a learned model publishes it here rather than
    owning its own rollout logic.  ``degraded`` flips to True once any
    stage of the current tick exhausted its retries, so later stages can
    choose conservative behaviour.
    """

    day: int
    tick: int
    now: float
    lifecycle: "ModelLifecycle"
    degraded: bool = False


@dataclass
class StageOutcome:
    """How one stage execution went (the fabric's health unit)."""

    service: str
    stage: str
    day: int
    attempts: int
    status: str  # "ok" | "retried" | "degraded"
    error: str = ""

    @property
    def succeeded(self) -> bool:
        return self.status != "degraded"


class PipelineDriver:
    """Base adapter turning one service into a declared feedback pipeline.

    Subclasses set :attr:`name` and implement any of the
    :data:`STAGES` as methods ``def observe(self, ctx): ...``.  The
    plane discovers stages by name, so there is no registration
    boilerplate; :meth:`stages` returns them in canonical order.
    """

    #: Unique service name on the fabric (span prefix, event source).
    name: str = "driver"
    #: Architectural layer for span/event tagging.
    layer: str = "service"
    #: Set True on subclasses that call :meth:`mark_dirty` at every
    #: state-mutation point.  The checkpoint store then trusts the mark
    #: when deciding whether a delta frame must re-serialize this
    #: driver; drivers that leave it False get a content-hash fallback
    #: (always correct, costs one serialization per save).
    dirty_aware: bool = False
    #: Attribute paths (``"historical"``, ``"service.skus"``) whose
    #: values are immutable once the driver is registered (input
    #: worlds: trace lists, arrival schedules, observation streams).
    #: Delta checkpoint blobs name every object these values reach by
    #: its index in the blob's prelude, resolved against the service's
    #: last whole blob on load — wherever the object is referenced from,
    #: including through the wrapped service — so a long-running
    #: service's delta carries only genuinely mutable state.  Honored
    #: only on ``dirty_aware`` drivers; the values (and their contents)
    #: must never be mutated after registration, or restores silently
    #: revert them to their base-frame state.
    frozen_attrs: tuple[str, ...] = ()
    #: Attribute paths of lists that only grow (service histories such
    #: as ``"service._outcomes"``).  A delta checkpoint frame carries
    #: only the rows appended since the previous frame, and restore
    #: rebuilds each list as the base frame's copy plus every later
    #: tail, in order.  Honored only on ``dirty_aware`` drivers.  Rows
    #: must not change once a frame has carried them; a list that
    #: shrinks or is replaced makes the next save raise ``ValueError``.
    append_attrs: tuple[str, ...] = ()
    #: ``(dict path, stamps path)`` pairs for dicts whose entries are
    #: never removed and change only under keys the service stamps: the
    #: stamps dict maps such a key to a positive count that only goes up
    #: across the service's life, pickles included (e.g.
    #: ``("service._states", "service._touched")``).  A delta checkpoint
    #: frame carries only the entries stamped after the newest stamp of
    #: the store's previous frame of the service; each store keeps its
    #: own mark and nothing is ever cleared, so stores saving the same
    #: plane never affect each other.  Honored only on ``dirty_aware``
    #: drivers.
    keyed_attrs: tuple[tuple[str, str], ...] = ()

    def mark_dirty(self) -> None:
        """Record that checkpoint-relevant state changed.

        Each call leaves a fresh :attr:`dirty_token`.
        """
        self._fabric_dirty = object()

    @property
    def dirty_token(self) -> object | None:
        """The token of the newest :meth:`mark_dirty` (None before one).

        A checkpoint store re-serializes the driver when the token is
        not the one it last wrote, so every store keeps its own view of
        what changed and saving to one never hides a change from
        another.  The token is transient bookkeeping: the store strips
        it from serialized driver state, so it never affects checkpoint
        bytes or content hashes.
        """
        return self.__dict__.get("_fabric_dirty")

    def stages(self) -> list[tuple[str, Callable[[TickContext], object]]]:
        """The declared stages, in canonical pipeline order."""
        found = []
        for stage in STAGES:
            fn = getattr(self, stage, None)
            if callable(fn):
                found.append((stage, fn))
        if not found:
            raise TypeError(
                f"{type(self).__name__} declares no pipeline stages "
                f"(implement one of {', '.join(STAGES)})"
            )
        return found

    def services(self) -> "list[AutonomousService]":
        """The AutonomousService instances this driver wraps.

        The plane binds/unbinds the observability runtime through this
        list, so a checkpoint never pickles a live runtime.
        """
        return []

    def bind_obs(self, obs) -> None:
        """Attach (or with ``None`` detach) an observability runtime."""
        for service in self.services():
            service.bind(obs)

    def serve(self, request: ServeRequest) -> ServeResponse:
        """Route ``request`` to the wrapped service that declares the op.

        This is the driver half of the serve contract: the fabric's
        ticked stages and the query plane's endpoints both enter the
        service through here, so there is exactly one implementation of
        every recommend/observe path.  Drivers whose queryable state
        lives outside an :class:`~repro.core.service.AutonomousService`
        (e.g. the workload repository) override this and answer
        directly.
        """
        for service in self.services():
            if callable(getattr(service, f"serve_{request.op}", None)):
                return service.serve(request)
        return ServeResponse(
            status=404,
            error=f"{self.name} has no op {request.op!r}",
            served_by=self.name,
            op=request.op,
        )

    def serve_many(self, requests: "list[ServeRequest]") -> "list[ServeResponse]":
        """Batch counterpart of :meth:`serve` (one service, one batch).

        When every request resolves to the same wrapped service the
        whole batch is handed to that service's ``serve_many`` (which
        may vectorize); otherwise requests are served one by one.
        """
        services = self.services()
        if len(services) == 1 and requests:
            return services[0].serve_many(list(requests))
        return [self.serve(request) for request in requests]

    def degrade(self, stage: str, ctx: TickContext) -> None:
        """Fallback when ``stage`` exhausted its retries this tick.

        The default policy is "hold position": skip the stage's effect
        and keep serving yesterday's decisions — the paper's
        degrade-to-default behaviour.  Drivers override this to install
        an explicit heuristic fallback.
        """

    def final_report(self) -> dict:
        """Deterministic, JSON-serializable summary of the whole run.

        Must depend only on simulated state (never wall clocks), so an
        interrupted-and-resumed run reports byte-identically to an
        uninterrupted one.
        """
        return {}


@dataclass
class RecordingDriver(PipelineDriver):
    """Minimal driver for tests: records every stage call it receives."""

    name: str = "recorder"
    calls: list[tuple[str, int]] = field(default_factory=list)
    fail_stage: str = ""
    fail_times: int = 0

    def _touch(self, stage: str, ctx: TickContext) -> None:
        if stage == self.fail_stage and self.fail_times > 0:
            self.fail_times -= 1
            raise RuntimeError(f"synthetic {stage} failure")
        self.calls.append((stage, ctx.day))

    def observe(self, ctx: TickContext) -> None:
        self._touch("observe", ctx)

    def recommend(self, ctx: TickContext) -> None:
        self._touch("recommend", ctx)

    def validate(self, ctx: TickContext) -> None:
        self._touch("validate", ctx)

    def final_report(self) -> dict:
        return {"calls": len(self.calls)}
