"""The common ``AutonomousService`` API every core service speaks.

The paper's services grew up with ad-hoc entry points (``process``,
``fit``, ``choose``, ...).  This module defines the one shape they all
share now:

- :meth:`AutonomousService.observe` — ingest production signals
  (telemetry, traces, job outcomes) and update internal state,
- :meth:`AutonomousService.recommend` — produce a decision for one
  subject (a policy, a config, a SKU, a window),
- :meth:`AutonomousService.report` — return the accumulated report;
  every report exposes ``to_events()`` so it replays into the shared
  :class:`~repro.obs.events.EventLog`.

On top of the method protocol sits the **serve contract**: one typed
request/response envelope every entry point is reachable through.
:meth:`AutonomousService.serve` dispatches a :class:`ServeRequest` to a
``serve_<op>`` handler (``serve_recommend``, ``serve_observe``, ...)
and always returns a :class:`ServeResponse` — unknown ops come back
404-style, handler exceptions 500-style with the original exception
preserved so fault-handling callers (the fabric's retry path) can
re-raise it via :meth:`ServeResponse.unwrap`.  The pipeline drivers and
the :mod:`repro.serve` query plane both go through this one route, so
ticked and queried flows cannot drift apart.

Services bind to an :class:`~repro.obs.runtime.ObservabilityRuntime`
with :meth:`AutonomousService.bind`; unbound services run with zero
instrumentation overhead.
"""

from __future__ import annotations

import abc
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.obs.runtime import ObservabilityRuntime


class ServiceError(Exception):
    """An error :class:`ServeResponse` re-raised by :meth:`~ServeResponse.unwrap`."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass(frozen=True)
class ServeRequest:
    """One typed request against a service endpoint.

    ``op`` names the entry point (``recommend``, ``observe``, ``stats``,
    ...), ``subject`` is the one positional subject the op acts on (a
    plan, a trace, a customer, a template name), and ``params`` carries
    the op's keyword arguments.  ``tenant`` identifies the requester for
    sessions/admission and ``deadline`` (event-loop seconds, absolute)
    propagates end-to-end so downstream stages can refuse work that
    cannot finish in time.  The fabric's ticked flow leaves ``tenant``
    and ``deadline`` at their defaults — the envelope is the same either
    way.
    """

    op: str
    subject: Any = None
    params: Mapping[str, Any] = field(default_factory=dict)
    tenant: str = ""
    deadline: float | None = None


@dataclass
class ServeResponse:
    """What one :meth:`AutonomousService.serve` call produced.

    ``status`` follows HTTP conventions (200 ok, 404 unknown op, 500
    handler error; the query plane adds 429/503/504 at admission).  On
    error, ``exception`` holds the original handler exception so
    :meth:`unwrap` re-raises *it* — fabric retry/degrade semantics stay
    exactly what they were when drivers called methods directly.
    """

    status: int
    result: Any = None
    error: str = ""
    served_by: str = ""
    op: str = ""
    exception: BaseException | None = None

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def unwrap(self) -> Any:
        """The result, or the original exception re-raised on error."""
        if self.ok:
            return self.result
        if self.exception is not None:
            raise self.exception
        raise ServiceError(self.status, self.error or f"serve failed ({self.status})")


class AutonomousService(abc.ABC):
    """observe() / recommend() / report(), with optional observability.

    Subclasses set ``service_name`` (the ``source`` tag on emitted
    events and the span-name prefix) and ``layer`` (defaults to
    ``"service"`` — the paper's service layer).
    """

    #: Component tag used in span names and event sources.
    service_name: str = "service"
    #: Architectural layer the service reports under.
    layer: str = "service"

    _obs: "ObservabilityRuntime | None" = None

    def bind(self, obs: "ObservabilityRuntime | None") -> "AutonomousService":
        """Attach (or detach, with ``None``) an observability runtime."""
        self._obs = obs
        return self

    @property
    def obs(self) -> "ObservabilityRuntime | None":
        return self._obs

    # -- instrumentation helpers ----------------------------------------------
    def _span(self, name: str, **attributes: object):
        """Span context manager, or a no-op when the service is unbound."""
        if self._obs is None:
            return nullcontext()
        return self._obs.span(
            f"{self.service_name}.{name}", layer=self.layer, **attributes
        )

    def _emit(self, kind: str, value: float = 1.0, **attributes: object) -> None:
        if self._obs is not None:
            self._obs.emit(
                self.layer, self.service_name, kind, value=value, **attributes
            )

    # -- the serve contract ---------------------------------------------------
    def serve(self, request: ServeRequest) -> ServeResponse:
        """Dispatch ``request`` to this service's ``serve_<op>`` handler.

        Never raises: unknown ops return a 404-style response and
        handler exceptions a 500-style response carrying the original
        exception (callers that need fault semantics call
        :meth:`ServeResponse.unwrap`).
        """
        handler = getattr(self, f"serve_{request.op}", None)
        if handler is None or not callable(handler):
            return ServeResponse(
                status=404,
                error=f"{self.service_name} has no op {request.op!r}",
                served_by=self.service_name,
                op=request.op,
            )
        try:
            result = handler(request)
        except Exception as exc:  # noqa: BLE001 — the serve fault boundary
            return ServeResponse(
                status=500,
                error=f"{type(exc).__name__}: {exc}",
                served_by=self.service_name,
                op=request.op,
                exception=exc,
            )
        return ServeResponse(
            status=200,
            result=result,
            served_by=self.service_name,
            op=request.op,
        )

    def serve_many(self, requests: "list[ServeRequest]") -> "list[ServeResponse]":
        """Serve a batch; order-preserving, one response per request.

        The default is the serial loop.  Services with a vectorizable
        model call override this with a single stacked call that is
        bit-identical per row (the micro-batching dispatcher relies on
        that contract).
        """
        return [self.serve(request) for request in requests]

    # -- standard handlers ----------------------------------------------------
    def serve_recommend(self, request: ServeRequest):
        """Default ``recommend`` op: subject + params, positionally."""
        return self.recommend(request.subject, **dict(request.params))

    def serve_observe(self, request: ServeRequest):
        """Default ``observe`` op: subject + params, positionally."""
        return self.observe(request.subject, **dict(request.params))

    def serve_report(self, request: ServeRequest):
        """Default ``report`` op: the accumulated report object."""
        return self.report()

    # -- the protocol ---------------------------------------------------------
    @abc.abstractmethod
    def observe(self, *args, **kwargs):
        """Ingest one production signal; returns a service-specific value."""

    @abc.abstractmethod
    def recommend(self, *args, **kwargs):
        """Produce a decision for one subject."""

    @abc.abstractmethod
    def report(self):
        """Return the accumulated report (``to_events()``-bearing)."""
