"""Workload analysis reports: the human-facing side of Peregrine.

Production workload analysis feeds engineers as well as models; this
renders the repository's statistics as a markdown document — template
league tables, per-day sharing, pipeline shapes — the kind of artifact
attached to capacity reviews.
"""

from __future__ import annotations

from repro.core.peregrine.analysis import analyze, shared_jobs_on_day
from repro.core.peregrine.repository import WorkloadRepository


def _league_table(repo: WorkloadRepository, top: int) -> list[str]:
    counts = sorted(
        ((len(v), k) for k, v in repo.templates().items()), reverse=True
    )
    lines = [
        "| rank | template | instances | days |",
        "|---|---|---|---|",
    ]
    for rank, (count, template) in enumerate(counts[:top], start=1):
        days = {r.day for r in repo.instances_of(template)}
        lines.append(
            f"| {rank} | `{template[:12]}` | {count} | {len(days)} |"
        )
    return lines


def _pipeline_section(repo: WorkloadRepository) -> list[str]:
    import networkx as nx

    graph = repo.dependency_graph()
    components = [
        c for c in nx.weakly_connected_components(graph) if len(c) > 1
    ]
    if not components:
        return ["No inter-job dependencies observed."]
    sizes = sorted((len(c) for c in components), reverse=True)
    depth = 0
    if graph.number_of_edges():
        depth = int(nx.dag_longest_path_length(graph))
    return [
        f"- dependency components: {len(components)}",
        f"- largest component: {sizes[0]} jobs",
        f"- longest producer chain: {depth} hops",
    ]


def workload_report(
    repo: WorkloadRepository, top_templates: int = 10
) -> str:
    """Render the full markdown report for everything ingested."""
    if len(repo) == 0:
        raise ValueError("repository is empty")
    stats = analyze(repo)
    lines = [
        "# Workload analysis report",
        "",
        "## Headline statistics",
        "",
        "| metric | value |",
        "|---|---|",
    ]
    for name, value in stats.summary_rows():
        lines.append(f"| {name} | {value:.3f} |")
    lines += ["", f"## Top recurring templates (of {stats.n_templates})", ""]
    lines += _league_table(repo, top_templates)
    lines += ["", "## Subexpression sharing by day", ""]
    lines += ["| day | jobs | sharing jobs | fraction |", "|---|---|---|---|"]
    for day in repo.days():
        day_jobs = repo.by_day(day)
        sharing, _ = shared_jobs_on_day(repo, day)
        fraction = len(sharing) / max(len(day_jobs), 1)
        lines.append(
            f"| {day} | {len(day_jobs)} | {len(sharing)} | {fraction:.2f} |"
        )
    lines += ["", "## Pipelines", ""]
    lines += _pipeline_section(repo)
    lines.append("")
    return "\n".join(lines)
