"""Stage-DAG compilation: from a logical plan to executable stages.

Big-data engines like SCOPE and Spark compile a job into a DAG of stages
executed in parallel (Section 4.2, Query Execution).  Each plan node
becomes one stage; stage sizing (task count, work, output bytes) comes
from a cardinality/cost model, which is deliberately pluggable: the
*executor* sizes stages with the true model, while Phoebe's checkpoint
optimizer sizes them with its learned predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.engine.cost import DefaultCostModel
from repro.engine.expr import Expression

if TYPE_CHECKING:
    import networkx as nx

#: Abstract cost units one task can process per second.
TASK_RATE = 2_000_000.0
#: Rows of output that justify one additional task.
ROWS_PER_TASK = 1_000_000.0
#: Fixed scheduling overhead per stage, in seconds.
STAGE_OVERHEAD_S = 0.5
MAX_TASKS = 64


@dataclass
class Stage:
    """One executable stage of a compiled job.

    ``work``/``output_*`` are the *estimated* sizes the optimizer and the
    checkpoint service see.  ``actual_work``/``actual_bytes``, when set by
    :func:`compile_stages` with a ground-truth model, are what execution
    really costs — the executor uses them, learned services must not.
    """

    stage_id: int
    operator: str
    depends_on: tuple[int, ...]
    work: float            # abstract cost units (drives duration)
    output_rows: float
    output_bytes: float
    n_tasks: int
    actual_work: float | None = None
    actual_bytes: float | None = None

    def duration(self) -> float:
        """Estimated wall-clock seconds for this stage."""
        return STAGE_OVERHEAD_S + self.work / (TASK_RATE * self.n_tasks)

    def true_duration(self) -> float:
        """Wall-clock seconds execution actually takes (before noise)."""
        work = self.work if self.actual_work is None else self.actual_work
        return STAGE_OVERHEAD_S + work / (TASK_RATE * self.n_tasks)

    def true_bytes(self) -> float:
        return self.output_bytes if self.actual_bytes is None else self.actual_bytes


@dataclass
class StageGraph:
    """A DAG of stages; ``stages[i].stage_id == i`` always holds."""

    stages: list[Stage]

    def __post_init__(self) -> None:
        for i, stage in enumerate(self.stages):
            if stage.stage_id != i:
                raise ValueError("stage ids must be dense and ordered")
            if any(d >= i for d in stage.depends_on):
                raise ValueError("dependencies must point to earlier stages")

    def __len__(self) -> int:
        return len(self.stages)

    @property
    def sink(self) -> Stage:
        return self.stages[-1]

    def consumers(self, stage_id: int) -> list[int]:
        return [
            s.stage_id for s in self.stages if stage_id in s.depends_on
        ]

    def topological_order(self) -> list[Stage]:
        return list(self.stages)  # dense ids are already topological

    def ancestors(self, stage_id: int) -> set[int]:
        out: set[int] = set()
        frontier = list(self.stages[stage_id].depends_on)
        while frontier:
            s = frontier.pop()
            if s not in out:
                out.add(s)
                frontier.extend(self.stages[s].depends_on)
        return out

    def critical_path_seconds(self) -> float:
        finish: dict[int, float] = {}
        for stage in self.stages:
            ready = max((finish[d] for d in stage.depends_on), default=0.0)
            finish[stage.stage_id] = ready + stage.duration()
        return finish[self.sink.stage_id]

    def total_work_seconds(self) -> float:
        return sum(stage.duration() for stage in self.stages)

    def to_networkx(self) -> nx.DiGraph:
        import networkx as nx

        graph = nx.DiGraph()
        for stage in self.stages:
            graph.add_node(stage.stage_id, operator=stage.operator)
            for dep in stage.depends_on:
                graph.add_edge(dep, stage.stage_id)
        return graph


def compile_stages(
    plan: Expression,
    cost_model: DefaultCostModel,
    max_stage_seconds: float | None = None,
    truth: DefaultCostModel | None = None,
    max_stage_bytes: float | None = None,
) -> StageGraph:
    """One stage per plan node, bottom-up, sized by ``cost_model``.

    ``max_stage_seconds`` bounds individual stage duration: an operator
    whose estimated duration exceeds the bound executes as a *chain of
    waves*, each producing one partition of the operator's output (work,
    rows, and bytes split evenly).  Every wave of a consuming operator
    depends on **all** waves of its inputs — shuffle-barrier semantics —
    so input partitions stay resident in local temp storage until the
    consuming operator completes entirely: the mechanism behind the
    temp-storage hotspots of [52].  Wave counts come from the *estimated*
    sizes (the engine compiles one graph and lives with it).

    ``truth`` optionally attaches ground-truth work/bytes to each stage
    (``actual_work``/``actual_bytes``); the executor uses those while the
    learned services still only see the estimates.
    """
    if max_stage_seconds is not None and max_stage_seconds <= STAGE_OVERHEAD_S:
        raise ValueError(
            f"max_stage_seconds must exceed the stage overhead {STAGE_OVERHEAD_S}"
        )
    stages: list[Stage] = []
    node_to_stage: dict[int, int] = {}

    def append_stage(
        operator: str,
        deps: tuple[int, ...],
        work: float,
        rows: float,
        nbytes: float,
        n_tasks: int,
        actual_work: float | None,
        actual_bytes: float | None,
    ) -> int:
        stage = Stage(
            stage_id=len(stages),
            operator=operator,
            depends_on=deps,
            work=work,
            output_rows=rows,
            output_bytes=nbytes,
            n_tasks=n_tasks,
            actual_work=actual_work,
            actual_bytes=actual_bytes,
        )
        stages.append(stage)
        return stage.stage_id

    def build(node: Expression) -> list[int]:
        key = id(node)
        if key in node_to_stage:
            return node_to_stage[key]
        input_waves = tuple(
            wave for child in node.children for wave in build(child)
        )
        rows = cost_model.cardinality.estimate(node)
        work = cost_model._node_cost(node).total
        nbytes = cost_model.output_bytes(node)
        actual_work = actual_bytes = None
        if truth is not None:
            actual_work = truth._node_cost(node).total
            actual_bytes = truth.output_bytes(node)
        n_tasks = int(min(MAX_TASKS, max(1, round(rows / ROWS_PER_TASK))))
        operator = type(node).__name__
        n_waves = 1
        if max_stage_seconds is not None:
            payload = work / (TASK_RATE * n_tasks)
            wave_budget = max_stage_seconds - STAGE_OVERHEAD_S
            n_waves = max(1, int(np.ceil(payload / wave_budget)))
        if max_stage_bytes is not None and max_stage_bytes > 0:
            # SCOPE-style bounded vertex data: fat outputs also split.
            n_waves = max(n_waves, int(np.ceil(nbytes / max_stage_bytes)))

        def split(value: float | None) -> float | None:
            return None if value is None else value / n_waves

        waves: list[int] = []
        for _ in range(n_waves):
            deps = input_waves if not waves else (waves[-1], *input_waves)
            waves.append(
                append_stage(
                    operator,
                    deps,
                    work / n_waves,
                    rows / n_waves,
                    nbytes / n_waves,
                    n_tasks,
                    split(actual_work),
                    split(actual_bytes),
                )
            )
        node_to_stage[key] = waves
        return waves

    build(plan)
    return StageGraph(stages)
