"""Per-layer accounting for traced benchmark runs.

A traced run binds an :class:`~repro.obs.runtime.ObservabilityRuntime`
to the fabric, so the program's own spans (``fabric.run``,
``fabric.<service>.<stage>``, ``infra.des.run`` and service-internal
spans) land in one tracer.  The benchmark adds ``bench.*`` spans around
the calls into layers the program does not span on its own: day
generation, repository ingest, chunk spill, checkpoint save, and the
service model calls behind the query plane.

:meth:`LayerTrace.collect` folds finished spans into *self* time per
layer (a span's duration minus the time its child spans cover), so the
layers of one operation sum to the operation's wall time.  A span with
no layer of its own is charged to the service whose stage encloses it,
else to the fabric's control plane.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict

#: Benchmark span name -> layer metric it is charged to.
BENCH_SPANS = {
    "bench.op": "unattributed_ms",
    "bench.generate": "generate_ms",
    "bench.ingest": "ingest_ms",
    "bench.spill": "spill_ms",
    "bench.checkpoint.save": "checkpoint_save_ms",
    "bench.model": "model_ms",
}

#: Fabric services -> layer metric for their stage self time.
SERVICE_LAYERS = {
    "steering": "steering_ms",
    "cloudviews": "cloudviews_ms",
    "peregrine": "ingest_ms",
    "seagull": "seagull_ms",
    "moneyball": "other_services_ms",
    "doppler": "other_services_ms",
    "feedback": "other_services_ms",
}


def _stage_layer(name: str) -> str | None:
    """The layer of a ``fabric.<service>.<stage>`` span, else None."""
    parts = name.split(".")
    if len(parts) != 3 or parts[0] != "fabric" or parts[2] == "tick":
        return None
    if parts[1:] == ["peregrine", "learn"]:
        return "analyze_ms"
    return SERVICE_LAYERS.get(parts[1])


class LayerTrace:
    """Benchmark spans around layer entry points, rolled up per layer."""

    def __init__(self, obs) -> None:
        self.obs = obs
        self.span = obs.span
        #: layer metric -> accumulated self seconds
        self.seconds: Counter[str] = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str, span_name: str) -> None:
        """Open ``span_name`` around every call of ``owner.attr``.

        ``owner`` is a class (patching every instance) or one object;
        :meth:`close` puts the original back.
        """
        call = getattr(owner, attr)
        span = self.span

        @functools.wraps(call)
        def traced(*args, **kwargs):
            with span(span_name, layer="bench"):
                return call(*args, **kwargs)

        # A class keeps its raw attribute (a classmethod stays one) for
        # restore; an instance just drops the shadowing attribute.
        saved = owner.__dict__[attr] if isinstance(owner, type) else None
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, saved))

    def close(self) -> None:
        for owner, attr, saved in reversed(self._patches):
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._patches.clear()

    def discard(self) -> None:
        """Forget finished spans that belong to no measured operation."""
        self.obs.tracer.spans.clear()

    def collect(self) -> None:
        """Charge every finished span's self time to its layer.

        Call only between operations, when no span is open, so every
        child's parent is in the same batch.  The spans are dropped
        afterwards to keep the tracer's memory bounded.
        """
        spans = self.obs.tracer.spans
        by_id = {span.span_id: span for span in spans}
        covered: defaultdict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.wall_seconds
        for span in spans:
            own = span.wall_seconds - covered[span.span_id]
            self.seconds[self._layer_of(span, by_id)] += own
        spans.clear()

    @staticmethod
    def _layer_of(span, by_id) -> str:
        if span.name in BENCH_SPANS:
            return BENCH_SPANS[span.name]
        node = span
        while node is not None:
            layer = _stage_layer(node.name)
            if layer is not None:
                return layer
            node = by_id.get(node.parent_id)
        return "fabric_ms"
