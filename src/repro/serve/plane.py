"""The async query plane: every fabric service as a served endpoint.

:class:`QueryPlane` fronts a live (or checkpoint-restored)
:class:`~repro.fabric.plane.ControlPlane` with an asyncio request path.
Each fabric binding becomes an endpoint named after its service;
requests enter through :meth:`handle` and flow through the same
``serve()`` contract the ticked pipelines use — there is exactly one
implementation of every recommend/observe path, queried or ticked.

Per request, in order:

1. **Session** — the tenant's session is found-or-created and metered.
2. **Admission** — deadline, per-tenant token bucket, queue-depth shed
   (:mod:`repro.serve.admission`); rejections return 429/503/504
   responses without touching the service.
3. **Cache** — recommend-style ops consult the signature-keyed
   :class:`~repro.serve.cache.RecommendationCache`; a hit returns the
   cached response object itself, so cached and uncached results are
   byte-identical by construction.  Lifecycle promote/rollback evicts.
4. **Dispatch** — batchable ops coalesce through the
   :class:`~repro.serve.batching.MicroBatcher`; everything else calls
   the driver inline.

Every request emits a ``serve.<endpoint>.<op>`` span (layer ``serve``)
and ``serve.*`` metrics — latency, throughput, queue depth, active
sessions — into the bound runtime's TelemetryStore via registered
metric aliases.

Background ticking is **cooperative**: :meth:`tick_background` runs
``fabric.run_days(1)`` directly on the event loop between awaits, so a
tick is atomic with respect to queries (no threads, no locks) and the
cache's epoch key — the binding's tick count — makes any state change
visible immediately.
"""

from __future__ import annotations

import asyncio
from contextlib import nullcontext
from typing import TYPE_CHECKING

from repro.core.service import ServeRequest, ServeResponse
from repro.serve.admission import AdmissionController
from repro.serve.batching import MicroBatcher
from repro.serve.cache import RecommendationCache
from repro.serve.session import SessionManager
from repro.telemetry.schema import Metric

if TYPE_CHECKING:
    from repro.fabric.plane import ControlPlane, ServiceBinding
    from repro.obs.runtime import ObservabilityRuntime

#: Raw metric names the plane registers as store aliases.
SERVE_ALIASES = {
    "serve.latency.seconds": Metric.REQUEST_LATENCY_SECONDS,
    "serve.requests": Metric.THROUGHPUT_OPS,
    "serve.queue.depth": Metric.QUEUE_LENGTH,
    "serve.sessions.active": Metric.ACTIVE_SESSIONS,
}

#: Ops whose responses are pure functions of (model state, subject) —
#: safe to cache and to coalesce into batches.
DEFAULT_CACHEABLE_OPS = frozenset({"recommend"})
DEFAULT_BATCHABLE_OPS = frozenset({"recommend"})


class QueryPlane:
    """Sessions + admission + cache + batching around a fabric's services."""

    def __init__(
        self,
        fabric: "ControlPlane",
        obs: "ObservabilityRuntime | None" = None,
        rate_per_tenant: float = 500.0,
        burst: float = 100.0,
        max_queue_depth: int = 64,
        max_batch: int = 16,
        max_batch_delay: float = 0.002,
        cache_entries: int = 4096,
        cacheable_ops: frozenset[str] = DEFAULT_CACHEABLE_OPS,
        batchable_ops: frozenset[str] = DEFAULT_BATCHABLE_OPS,
    ) -> None:
        self.fabric = fabric
        self.obs = obs
        self.sessions = SessionManager()
        self.cache = RecommendationCache(
            lifecycle=fabric.lifecycle, max_entries=cache_entries
        )
        self.admission = AdmissionController(
            rate_per_tenant=rate_per_tenant,
            burst=burst,
            max_queue_depth=max_queue_depth,
        )
        self.batcher = MicroBatcher(
            max_batch=max_batch, max_delay=max_batch_delay, clock=self.now
        )
        self.cacheable_ops = frozenset(cacheable_ops)
        self.batchable_ops = frozenset(batchable_ops)
        self.requests = 0
        self.responses_by_status: dict[int, int] = {}
        self.latencies: list[float] = []
        self.ticked_days = 0
        self._inflight = 0
        self._clock_origin: float | None = None
        #: endpoint -> binding; the fabric only appends uniquely named
        #: bindings, so a binding once found stays the endpoint's.
        self._bindings: "dict[str, ServiceBinding]" = {}
        if obs is not None:
            for raw, metric in SERVE_ALIASES.items():
                obs.store.aliases.add_alias(raw, metric)

    # -- clock -----------------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since the plane first looked at the clock.

        Admission buckets and deadlines all run on this one clock; it is
        the loop's monotonic time (never the wall clock), rebased so the
        first request lands at ~0.
        """
        try:
            raw = asyncio.get_running_loop().time()
        except RuntimeError:
            import time

            raw = time.monotonic()
        if self._clock_origin is None:
            self._clock_origin = raw
        return raw - self._clock_origin

    # -- endpoints -------------------------------------------------------------
    def endpoints(self) -> list[str]:
        return self.fabric.service_names()

    def binding(self, endpoint: str) -> "ServiceBinding":
        binding = self._bindings.get(endpoint)
        if binding is not None:
            return binding
        for candidate in self.fabric.bindings:
            if candidate.name == endpoint:
                self._bindings[endpoint] = candidate
                return candidate
        raise KeyError(f"no endpoint {endpoint!r}")

    def model_for(self, endpoint: str) -> str:
        """The lifecycle model name an endpoint serves from ('' if none)."""
        driver = self.binding(endpoint).driver
        return str(
            getattr(driver, "model_name", "")
            or getattr(driver, "MODEL_NAME", "")
        )

    # -- request path ----------------------------------------------------------
    async def handle(self, endpoint: str, request: ServeRequest) -> ServeResponse:
        """Serve one request through admission, cache, and dispatch."""
        now = self.now()
        self.requests += 1
        session = self.sessions.get(request.tenant or "anonymous", now)
        session.note(request.op, now)
        try:
            binding = self.binding(endpoint)
        except KeyError:
            response = ServeResponse(
                status=404, error=f"no endpoint {endpoint!r}", op=request.op
            )
            return self._finish(endpoint, request, session, response, now)
        decision = self.admission.admit(
            session.tenant,
            now,
            queue_depth=self.batcher.depth + self._inflight,
            deadline=request.deadline,
        )
        if not decision.admitted:
            session.rejected += 1
            response = ServeResponse(
                status=decision.status,
                error=decision.reason,
                served_by=endpoint,
                op=request.op,
            )
            return self._finish(endpoint, request, session, response, now)
        cache_key = None
        if request.op in self.cacheable_ops:
            model = self.model_for(endpoint)
            cache_key = self.cache.key(
                session.tenant,
                endpoint,
                request.op,
                request.subject,
                params=request.params,
                model_version=self.cache.model_version(model),
                epoch=binding.record.ticks,
            )
            cached = self.cache.get(cache_key)
            if cached is not None:
                session.cache_hits += 1
                session.ok += 1
                return self._finish(
                    endpoint, request, session, cached, now, cached_hit=True
                )
        self._inflight += 1
        try:
            with self._span(endpoint, request):
                if request.op in self.batchable_ops:
                    response = await self.batcher.submit(
                        endpoint, binding.driver, request
                    )
                else:
                    response = binding.driver.serve(request)
        finally:
            self._inflight -= 1
        if response.ok:
            session.ok += 1
            if cache_key is not None:
                self.cache.put(cache_key, response, model=model)
        else:
            session.errors += 1
        return self._finish(endpoint, request, session, response, now)

    async def handle_many(
        self, endpoint: str, requests: "list[ServeRequest]"
    ) -> "list[ServeResponse]":
        """Serve a burst concurrently (what a load balancer fan-in does)."""
        return list(
            await asyncio.gather(
                *(self.handle(endpoint, request) for request in requests)
            )
        )

    def _span(self, endpoint: str, request: ServeRequest):
        if self.obs is None:
            return nullcontext()
        return self.obs.span(
            f"serve.{endpoint}.{request.op}",
            layer="serve",
            tenant=request.tenant,
        )

    def _finish(
        self,
        endpoint: str,
        request: ServeRequest,
        session,
        response: ServeResponse,
        started: float,
        cached_hit: bool = False,
    ) -> ServeResponse:
        latency = max(0.0, self.now() - started)
        self.latencies.append(latency)
        self.responses_by_status[response.status] = (
            self.responses_by_status.get(response.status, 0) + 1
        )
        if self.obs is not None:
            now = self.now()
            dimensions = {
                "endpoint": endpoint,
                "op": request.op,
                "status": str(response.status),
                "cached": "1" if cached_hit else "0",
            }
            store = self.obs.store
            store.record("serve.latency.seconds", now, latency, dimensions)
            store.record("serve.requests", now, 1.0, dimensions)
            store.record(
                "serve.queue.depth",
                now,
                float(self.batcher.depth + self._inflight),
                {"endpoint": endpoint},
            )
            store.record(
                "serve.sessions.active", now, float(self.sessions.active), {}
            )
            self.obs.emit(
                "serve",
                endpoint,
                "request",
                value=latency,
                op=request.op,
                status=response.status,
                cached=cached_hit,
            )
        return response

    # -- background ticking ----------------------------------------------------
    async def tick_background(self, days: int, pause: float = 0.0) -> None:
        """Advance the fabric ``days`` days, yielding between each.

        Runs directly on the event loop: each ``run_days(1)`` is atomic
        with respect to in-flight queries, and the awaited pause lets
        queued requests drain between days.
        """
        for _ in range(days):
            with self._tick_span():
                self.fabric.run_days(1)
            self.ticked_days += 1
            await asyncio.sleep(pause)

    def _tick_span(self):
        if self.obs is None:
            return nullcontext()
        return self.obs.span(
            "serve.background_tick", layer="serve", day=self.fabric.day
        )

    # -- shutdown / stats ------------------------------------------------------
    def drain(self) -> None:
        """Flush pending batches (call before the loop shuts down)."""
        self.batcher.drain()

    @staticmethod
    def _percentile(values: "list[float]", q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def stats(self) -> dict:
        """JSON-able rollup of everything the plane did."""
        return {
            "requests": self.requests,
            "by_status": {
                str(status): count
                for status, count in sorted(self.responses_by_status.items())
            },
            "latency": {
                "p50": self._percentile(self.latencies, 0.50),
                "p99": self._percentile(self.latencies, 0.99),
                "max": max(self.latencies) if self.latencies else 0.0,
            },
            "ticked_days": self.ticked_days,
            "sessions": self.sessions.summary(),
            "cache": self.cache.summary(),
            "admission": self.admission.summary(),
            "batching": self.batcher.summary(),
        }
