"""Provenance tracking for ML-for-Systems pipelines (Vamsa [34]).

"In a production environment, when encountering regression, a complex
data lineage across a multitude of systems and language is needed for a
close investigation from data ingestion to model (deployed) inference.
Debuggability needs to be well-supported with tracking/versioning
through MLOps."

The tracker records a DAG of artifacts (datasets, feature sets, models,
deployments) and the operations that produced them, so an on-call
engineer can answer the two incident questions in one call each:
*upstream* — everything a bad model was derived from — and *downstream*
— everything a bad dataset contaminated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable

VALID_KINDS = ("dataset", "featureset", "model", "deployment", "metric")


@dataclass(frozen=True)
class Artifact:
    """One node in the provenance DAG."""

    artifact_id: str
    kind: str
    name: str
    metadata: tuple[tuple[str, Any], ...] = ()

    def meta(self, key: str, default: Any = None) -> Any:
        for k, v in self.metadata:
            if k == key:
                return v
        return default


class LineageTracker:
    """Append-only provenance DAG with upstream/downstream queries."""

    def __init__(self) -> None:
        import networkx as nx

        self._graph = nx.DiGraph()
        self._ids = itertools.count(1)
        self._artifacts: dict[str, Artifact] = {}

    def __len__(self) -> int:
        return len(self._artifacts)

    # -- recording --------------------------------------------------------------
    def record(
        self,
        kind: str,
        name: str,
        inputs: Iterable[Artifact | str] = (),
        operation: str = "",
        **metadata: Any,
    ) -> Artifact:
        """Record a new artifact derived from ``inputs`` via ``operation``."""
        if kind not in VALID_KINDS:
            raise ValueError(
                f"unknown artifact kind {kind!r}; expected one of {VALID_KINDS}"
            )
        if not name:
            raise ValueError("artifact name must be non-empty")
        artifact = Artifact(
            artifact_id=f"{kind}-{next(self._ids):05d}",
            kind=kind,
            name=name,
            metadata=tuple(sorted(metadata.items())),
        )
        self._artifacts[artifact.artifact_id] = artifact
        self._graph.add_node(artifact.artifact_id)
        for parent in inputs:
            parent_id = (
                parent.artifact_id if isinstance(parent, Artifact) else parent
            )
            if parent_id not in self._artifacts:
                raise KeyError(f"unknown input artifact {parent_id!r}")
            self._graph.add_edge(parent_id, artifact.artifact_id, op=operation)
        return artifact

    def get(self, artifact_id: str) -> Artifact:
        try:
            return self._artifacts[artifact_id]
        except KeyError:
            raise KeyError(f"unknown artifact {artifact_id!r}") from None

    # -- incident queries ---------------------------------------------------------
    def upstream(self, artifact: Artifact | str) -> list[Artifact]:
        """Everything this artifact was derived from (the Vamsa question:
        where did the bad model's behaviour come from?)."""
        import networkx as nx

        node = artifact.artifact_id if isinstance(artifact, Artifact) else artifact
        self.get(node)
        return sorted(
            (self._artifacts[a] for a in nx.ancestors(self._graph, node)),
            key=lambda a: a.artifact_id,
        )

    def downstream(self, artifact: Artifact | str) -> list[Artifact]:
        """Everything derived from this artifact (contamination blast radius)."""
        import networkx as nx

        node = artifact.artifact_id if isinstance(artifact, Artifact) else artifact
        self.get(node)
        return sorted(
            (self._artifacts[a] for a in nx.descendants(self._graph, node)),
            key=lambda a: a.artifact_id,
        )

    def path_between(
        self, source: Artifact | str, target: Artifact | str
    ) -> list[tuple[Artifact, str]]:
        """One derivation chain source -> target as (artifact, operation).

        Raises :class:`networkx.NetworkXNoPath` when unconnected.
        """
        src = source.artifact_id if isinstance(source, Artifact) else source
        import networkx as nx

        dst = target.artifact_id if isinstance(target, Artifact) else target
        nodes = nx.shortest_path(self._graph, src, dst)
        out = [(self._artifacts[nodes[0]], "")]
        for a, b in zip(nodes, nodes[1:]):
            out.append(
                (self._artifacts[b], self._graph.edges[a, b].get("op", ""))
            )
        return out

    def by_kind(self, kind: str) -> list[Artifact]:
        if kind not in VALID_KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        return sorted(
            (a for a in self._artifacts.values() if a.kind == kind),
            key=lambda a: a.artifact_id,
        )

    # -- reporting ---------------------------------------------------------------
    def incident_report(self, artifact: Artifact | str) -> str:
        """Markdown incident sheet: the artifact, its inputs, its victims."""
        node = artifact if isinstance(artifact, Artifact) else self.get(artifact)
        upstream = self.upstream(node)
        downstream = self.downstream(node)
        lines = [
            f"# Lineage incident report: {node.name}",
            f"- id: `{node.artifact_id}`  kind: {node.kind}",
            "",
            f"## Derived from ({len(upstream)})",
        ]
        lines += [f"- `{a.artifact_id}` {a.kind}: {a.name}" for a in upstream] or ["- (nothing)"]
        lines += ["", f"## Contaminates ({len(downstream)})"]
        lines += [f"- `{a.artifact_id}` {a.kind}: {a.name}" for a in downstream] or ["- (nothing)"]
        return "\n".join(lines)
