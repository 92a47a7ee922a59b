"""View selection, view matching, and the reuse accounting.

The day's flow mirrors production CloudViews:

1. **Detection** — enumerate strict signatures of every non-trivial
   subexpression across the day's jobs; signatures appearing in more than
   one job are reuse candidates.
2. **Selection** — greedy utility-per-byte selection under an optional
   materialization budget.  Utility is estimated (the selector has no
   ground truth): cost of the subexpression times the *extra* occurrences
   it saves, minus the one-time write cost.
3. **Matching & rewriting** — jobs after the first occurrence have the
   candidate subtree replaced by a scan of the materialized view; the
   first occurrence pays the write.

All three stages are **signature-indexed**: detection builds an inverted
strict-signature -> candidate table (shardable across a process pool by
template hash, with an order-stable merge), matching is set membership
against each plan's memoized signature set, and rewriting replaces every
selected view in one top-down pass.  Nothing walks plans pairwise.

``run_day`` evaluates the whole pipeline against the true cost model and
reports the accumulated-latency and total-processing improvements the
paper quotes.
"""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.engine import (
    Catalog,
    ColumnStats,
    DefaultCostModel,
    Expression,
    Scan,
    TableDef,
)
from repro.core.cloudviews.containment import (
    ContainedGroup,
    find_contained_groups,
    rewrite_with_containment,
)
from repro.engine.expr import rewrite_bottom_up
from repro.engine.signatures import signature_sets
from repro.engine.signatures import signatures as plan_signatures
from repro.parallel import (
    DEFAULT_N_SHARDS,
    BytesArena,
    arena_blob,
    pmap,
    resolve_workers,
    shard_items,
)

if TYPE_CHECKING:
    from repro.obs.runtime import ObservabilityRuntime


class _ViewAwareTruth:
    """Ground truth that sees through materialized views.

    A view scan produces *exactly* the rows of the subexpression it
    materialized, so the true cardinality of any rewritten plan must
    equal the true cardinality of the original plan.  This wrapper
    restores view scans to their defining expressions before consulting
    the underlying truth model.
    """

    def __init__(self, truth, definitions: dict[str, Expression]) -> None:
        self._truth = truth
        self._definitions = definitions
        # Rewritten plans re-estimate the same view subtrees once per
        # job; restoring is O(plan), so memoize per strict signature
        # (sound: the wrapped truth is a pure function of the plan).
        self._memo: dict[str, float] = {}

    def _restore(self, expr: Expression) -> Expression:
        def swap(node: Expression) -> Expression:
            if isinstance(node, Scan) and node.table in self._definitions:
                return self._definitions[node.table]
            return node

        return rewrite_bottom_up(expr, swap)

    def estimate(self, expr: Expression) -> float:
        sig = plan_signatures(expr).strict
        cached = self._memo.get(sig)
        if cached is None:
            cached = self._truth.estimate(self._restore(expr))
            self._memo[sig] = cached
        return cached

#: Cost units charged per byte written when materializing a view.
WRITE_COST_PER_BYTE = 0.002


@dataclass
class ViewCandidate:
    """A shared subexpression considered for materialization.

    ``group`` is set for containment candidates: the expression is then
    the *weakest* instance of a drifted-bound family, and matching uses
    compensating filters instead of exact subtree equality.
    """

    signature: str
    expression: Expression
    job_ids: list[str]
    estimated_cost: float
    estimated_bytes: float
    group: "ContainedGroup | None" = None

    @property
    def occurrences(self) -> int:
        return len(self.job_ids)

    @property
    def utility(self) -> float:
        """Estimated net saving: reuse benefit minus materialization cost."""
        saved = self.estimated_cost * (self.occurrences - 1)
        return saved - WRITE_COST_PER_BYTE * self.estimated_bytes

    @property
    def view_table(self) -> str:
        if self.group is not None:
            return self.group.view_table
        return f"view_{self.signature[:12]}"


@dataclass
class ReuseReport:
    """Day-level accounting, with and without reuse (E9's bench data)."""

    n_jobs: int
    n_views: int
    baseline_latency: float       # sum of per-job true costs, no reuse
    reuse_latency: float          # with reuse (incl. materialization writes)
    baseline_processing: float    # total work: identical to latency here
    reuse_processing: float
    views: list[ViewCandidate] = field(default_factory=list)

    @property
    def latency_improvement(self) -> float:
        if self.baseline_latency <= 0:
            return 0.0
        return 1.0 - self.reuse_latency / self.baseline_latency

    @property
    def processing_reduction(self) -> float:
        if self.baseline_processing <= 0:
            return 0.0
        return 1.0 - self.reuse_processing / self.baseline_processing


# -- sharded candidate enumeration --------------------------------------------
def _enumerate_candidate_shard(payload) -> dict[str, list]:
    """Worker: partial candidate table over one shard of the day's jobs.

    ``payload`` is ``(entries, min_size)`` with entries of
    ``(job_index, job_id, plan)``.  Each slot carries the *global*
    discovery order ``(job_index, walk_position)`` of its first sighting,
    so merging partials reproduces the exact candidate ordering a serial
    scan over all jobs would produce — regardless of shard count.

    Workers only collect signatures and owners; the (expensive) cost
    model runs post-merge, and only on signatures that survive the
    occurrence filter.  That keeps pool payloads small and avoids
    costing the long tail of once-seen subexpressions.
    """
    entries, min_size = payload
    return _enumerate_entries(entries, min_size)


def _enumerate_candidate_arena(payload) -> dict[str, list]:
    """Worker: enumerate one shard read from the shared-memory arena.

    ``payload`` is ``(arena_handle, shard_index, min_size)`` — a few
    dozen bytes per task.  The shard's pickled entries live in the
    arena the parent published once for the whole day, so a worker
    deserializes exactly its own shard and never receives sibling
    shards through the executor pipe.
    """
    handle, shard_index, min_size = payload
    entries = pickle.loads(arena_blob(handle, shard_index))
    return _enumerate_entries(entries, min_size)


def _enumerate_entries(entries, min_size: int) -> dict[str, list]:
    partial: dict[str, list] = {}
    for job_index, job_id, plan in entries:
        seen: set[str] = set()
        for position, node in enumerate(plan.walk()):
            sig = plan_signatures(node).strict
            if sig in seen:
                continue
            seen.add(sig)
            if node.size < min_size:
                continue
            slot = partial.get(sig)
            if slot is None:
                # [order, expression, owners]
                partial[sig] = [
                    (job_index, position),
                    node,
                    [(job_index, job_id)],
                ]
            else:
                # The per-job ``seen`` set guarantees one entry per job,
                # so owners stay strictly ordered by job index.
                slot[2].append((job_index, job_id))
    return partial


def _merge_candidate_shards(
    partials: list[dict[str, list]],
) -> list[tuple[str, Expression, list[str]]]:
    """Order-stable merge of per-shard candidate tables.

    Deterministic by construction: the expression of a signature comes
    from its globally-first sighting, owners are reassembled in job
    order, and ``(signature, expression, job_ids)`` rows are emitted in
    first-sighting order — byte-identical for any shard count and
    worker count, and identical to a serial scan.
    """
    merged: dict[str, list] = {}
    for partial in partials:
        for sig, slot in partial.items():
            current = merged.get(sig)
            if current is None:
                merged[sig] = [slot[0], slot[1], list(slot[2])]
            else:
                if slot[0] < current[0]:
                    current[0:2] = slot[0:2]
                current[2].extend(slot[2])
    out = []
    for sig, slot in sorted(merged.items(), key=lambda kv: kv[1][0]):
        owners = sorted(slot[2])
        out.append((sig, slot[1], [job_id for _, job_id in owners]))
    return out


def _rewrite_with_views(plan: Expression, views: dict[str, str]) -> Expression:
    """Replace every subtree whose strict signature is in ``views``.

    One top-down pass: a matched node becomes a view scan and is not
    descended into, so when one selected view contains another the
    larger view wins — the same outcome as the legacy largest-first
    sequence of full-tree rewrites, at a single traversal's cost.
    Subtrees that index-provably carry no match are skipped whole.
    """
    if signature_sets(plan).strict.isdisjoint(views):
        return plan
    table = views.get(plan_signatures(plan).strict)
    if table is not None:
        return Scan(table)
    new_children = tuple(
        _rewrite_with_views(child, views) for child in plan.children
    )
    if new_children != plan.children:
        plan = plan.with_children(new_children)
    return plan


class CloudViews:
    """One instance per day: select, materialize, rewrite, account."""

    #: Generic statistics for materialized view tables.
    _VIEW_COLUMNS = (
        ColumnStats("key", distinct=5_000),
        ColumnStats("a0", distinct=200, low=0, high=1000),
        ColumnStats("a1", distinct=50, low=0, high=100),
    )

    def __init__(
        self,
        catalog: Catalog,
        estimated_cost_model: DefaultCostModel,
        min_occurrences: int = 2,
        min_size: int = 2,
        budget_bytes: float = float("inf"),
        max_views: int = 50,
        obs: "ObservabilityRuntime | None" = None,
    ) -> None:
        if min_occurrences < 2:
            raise ValueError("min_occurrences must be >= 2")
        if min_size < 2:
            raise ValueError("min_size must be >= 2 (scans share trivially)")
        if max_views < 1:
            raise ValueError("max_views must be >= 1")
        self.catalog = catalog
        self.est = estimated_cost_model
        self.min_occurrences = min_occurrences
        self.min_size = min_size
        self.budget_bytes = budget_bytes
        self.max_views = max_views
        self._obs = obs
        # Per-epoch shared-memory publication of the day's sharded jobs
        # (set inside ``day_context``); keyed by the jobs list identity
        # so a stale publication can never serve different jobs.
        self._day_pub: BytesArena | None = None
        self._day_pub_key: tuple[int, int] | None = None

    def bind(self, obs: "ObservabilityRuntime | None") -> "CloudViews":
        """Attach (or detach) an observability runtime; returns self."""
        self._obs = obs
        return self

    def _span(self, name: str, **attributes: object):
        if self._obs is None:
            from contextlib import nullcontext

            return nullcontext()
        return self._obs.span(name, layer="service", **attributes)

    # -- shared-memory day publication -----------------------------------------
    def _publish_shards(self, jobs: list[tuple[str, Expression]]) -> BytesArena:
        """Shard the day's jobs and publish them to shared memory once.

        One pickled blob per template-hash shard, packed into a single
        :class:`BytesArena`; pool tasks then carry only ``(handle,
        shard_index)`` instead of the shard contents, and a worker
        deserializes exactly its own shard from the shared segment.
        """
        entries = [
            (index, job_id, plan)
            for index, (job_id, plan) in enumerate(jobs)
        ]
        shards = shard_items(
            entries,
            key=lambda entry: plan_signatures(entry[2]).template,
            n_shards=DEFAULT_N_SHARDS,
        )
        with self._span(
            "cloudviews.publish", n_jobs=len(jobs), n_shards=len(shards)
        ):
            blobs = [pickle.dumps(shard, protocol=4) for shard in shards]
            return BytesArena(blobs)

    @contextmanager
    def day_context(self, jobs: list[tuple[str, Expression]]):
        """Publish ``jobs`` once for repeated parallel calls (one epoch).

        Every ``candidates``/``select``/``run_day`` call on the *same*
        jobs list inside the context reuses the publication instead of
        re-sharding and re-pickling — e.g. sweeping worker counts over
        one day, or re-selecting under different budgets.  The shared
        segment is unlinked on exit.
        """
        publication = self._publish_shards(jobs)
        self._day_pub = publication
        self._day_pub_key = (id(jobs), len(jobs))
        try:
            yield self
        finally:
            self._day_pub = None
            self._day_pub_key = None
            publication.close()

    # -- detection & selection -------------------------------------------------
    def candidates(
        self, jobs: list[tuple[str, Expression]], workers: int = 1
    ) -> list[ViewCandidate]:
        """Signatures shared by >= min_occurrences distinct jobs.

        With ``workers > 1`` the day's jobs are sharded by template-
        signature hash, published to shared memory, and enumerated
        across the persistent process pool; the partial utility tables
        merge into the same candidate list (same order, same floats) a
        serial scan produces.
        """
        n = resolve_workers(workers)
        with self._span("cloudviews.candidates", n_jobs=len(jobs), workers=n):
            if n <= 1:
                entries = [
                    (index, job_id, plan)
                    for index, (job_id, plan) in enumerate(jobs)
                ]
                partials = [_enumerate_entries(entries, self.min_size)]
            else:
                reuse = (
                    self._day_pub is not None
                    and self._day_pub_key == (id(jobs), len(jobs))
                )
                publication = (
                    self._day_pub if reuse else self._publish_shards(jobs)
                )
                try:
                    partials = pmap(
                        _enumerate_candidate_arena,
                        [
                            (publication.handle, shard, self.min_size)
                            for shard in range(DEFAULT_N_SHARDS)
                        ],
                        workers=n,
                    )
                finally:
                    if not reuse:
                        publication.close()
            merged = _merge_candidate_shards(partials)
            # Costing is deferred to here: only signatures that recur
            # enough get the cost model run (the once-seen long tail —
            # the overwhelming majority — never does).
            out = []
            for sig, expression, job_ids in merged:
                if len(job_ids) < self.min_occurrences:
                    continue
                candidate = ViewCandidate(
                    signature=sig,
                    expression=expression,
                    job_ids=job_ids,
                    estimated_cost=self.est.cost(expression).total,
                    estimated_bytes=self.est.output_bytes(expression),
                )
                if candidate.utility > 0:
                    out.append(candidate)
        return out

    def select(
        self, jobs: list[tuple[str, Expression]], workers: int = 1
    ) -> list[ViewCandidate]:
        """Greedy utility-per-byte selection under the byte budget.

        Nested candidates are pruned: once a candidate is selected, any
        candidate fully contained in it is dropped (its occurrences would
        disappear after rewriting).
        """
        pool = sorted(
            self.candidates(jobs, workers=workers),
            key=lambda c: -c.utility / max(c.estimated_bytes, 1.0),
        )
        with self._span("cloudviews.select", n_candidates=len(pool)):
            selected: list[ViewCandidate] = []
            selected_sets: list[frozenset[str]] = []
            spent = 0.0
            for candidate in pool:
                if len(selected) >= self.max_views:
                    break
                if spent + candidate.estimated_bytes > self.budget_bytes:
                    continue
                contained = any(
                    candidate.signature in chosen_set
                    for chosen_set in selected_sets
                )
                if contained:
                    continue
                selected.append(candidate)
                selected_sets.append(signature_sets(candidate.expression).strict)
                spent += candidate.estimated_bytes
        return selected

    @staticmethod
    def _contains(outer: Expression, inner: Expression) -> bool:
        """Is ``inner`` a subtree of ``outer``?  Signature-keyed: one
        membership test against the outer plan's memoized signature set
        instead of structural equality at every node."""
        return plan_signatures(inner).strict in signature_sets(outer).strict

    # -- containment extension ---------------------------------------------------
    def _add_containment_candidates(
        self,
        jobs: list[tuple[str, Expression]],
        selected: list[ViewCandidate],
    ) -> list[ViewCandidate]:
        """Widen the selection with drifted-bound (contained) families."""
        covered = {plan_signatures(c.expression).strict for c in selected}
        out = list(selected)
        groups = find_contained_groups(
            jobs, min_size=self.min_size, min_jobs=self.min_occurrences
        )
        for group in groups:
            weakest_sig = plan_signatures(group.weakest).strict
            if weakest_sig in covered:
                continue
            candidate = ViewCandidate(
                signature=weakest_sig,
                expression=group.weakest,
                job_ids=sorted({job_id for job_id, _ in group.instances}),
                estimated_cost=self.est.cost(group.weakest).total,
                estimated_bytes=self.est.output_bytes(group.weakest),
                group=group,
            )
            if candidate.utility > 0:
                out.append(candidate)
        return out

    def _matches(self, plan: Expression, candidate: ViewCandidate) -> bool:
        """Does ``plan`` carry (an instance of) the candidate?"""
        sets = signature_sets(plan)
        if candidate.group is None:
            return candidate.signature in sets.strict
        # Cheap pre-filter: an instance implies the group's template
        # signature appears somewhere in the plan.
        if candidate.group.template not in sets.template:
            return False
        rewritten = rewrite_with_containment(plan, candidate.group)
        return rewritten != plan

    def _apply(self, plan: Expression, candidate: ViewCandidate) -> Expression:
        if candidate.group is None:
            return _rewrite_with_views(
                plan, {candidate.signature: candidate.view_table}
            )
        if candidate.group.template not in signature_sets(plan).template:
            return plan
        return rewrite_with_containment(plan, candidate.group)

    # -- rewriting ---------------------------------------------------------------
    def rewrite(
        self, plan: Expression, selected: list[ViewCandidate]
    ) -> Expression:
        """Replace matched subtrees by view scans, largest views first.

        A single top-down pass over the plan against the signature ->
        view table index; pre-order replacement makes the largest
        selected view win wherever views nest.
        """
        views: dict[str, str] = {}
        for candidate in sorted(selected, key=lambda c: -c.expression.size):
            views.setdefault(candidate.signature, candidate.view_table)
        if not views:
            return plan
        return _rewrite_with_views(plan, views)

    # -- end-to-end day evaluation ---------------------------------------------------
    def run_day(
        self,
        jobs: list[tuple[str, Expression]],
        true_cardinality,
        containment: bool = False,
        workers: int = 1,
    ) -> ReuseReport:
        """Account one day's costs with and without reuse.

        ``true_cardinality`` is the ground-truth model used to (a) size
        the materialized views realistically and (b) cost every executed
        plan.  Jobs must be given in submit order: the first job
        containing a view pays the materialization write.

        With ``containment`` the candidate pool is widened by contained
        subexpressions (same template, drifted ``<=`` bounds): each group
        adds a pseudo-candidate whose expression is the weakest instance
        and whose occurrences count every contained job.  Stricter
        instances are rewritten to compensating filters over the view by
        normalizing them to the weakest bound first.

        ``workers`` fans the candidate enumeration across a process
        pool; the report is byte-identical for every worker count.
        """
        selected = self.select(jobs, workers=workers)
        if containment:
            with self._span("cloudviews.containment"):
                selected = self._add_containment_candidates(jobs, selected)
        truth = DefaultCostModel(self.catalog, true_cardinality)
        with self._span("cloudviews.baseline", n_jobs=len(jobs)):
            # A day's jobs share a handful of plans: cost each distinct
            # one once, then sum in job order (the same floats, in the
            # same order, as costing every job).
            strict_costs: dict[str, float] = {}
            job_costs = []
            for _, plan in jobs:
                sig = plan_signatures(plan).strict
                cost = strict_costs.get(sig)
                if cost is None:
                    cost = strict_costs[sig] = truth.cost(plan).total
                job_costs.append(cost)
            baseline = sum(job_costs)

        # Register view tables (sized by ground truth) in a day catalog.
        day_catalog = self.catalog.clone()
        definitions: dict[str, Expression] = {}
        for candidate in selected:
            rows = max(1.0, true_cardinality.estimate(candidate.expression))
            true_bytes = truth.output_bytes(candidate.expression)
            day_catalog.add(
                TableDef(
                    name=candidate.view_table,
                    n_rows=int(rows),
                    columns=self._VIEW_COLUMNS,
                    row_bytes=max(1, int(true_bytes / rows)),
                )
            )
            definitions[candidate.view_table] = candidate.expression
        day_truth = _ViewAwareTruth(true_cardinality, definitions)
        day_cost = DefaultCostModel(day_catalog, day_truth)

        materialized: set[str] = set()
        # The rewrite is a function of the plan and the views applied to
        # it, so its cost is kept per (strict signature, view signatures).
        rewritten_costs: dict[tuple[str, tuple[str, ...]], float] = {}
        reuse_total = 0.0
        n_selected = len(selected)
        # Strict-only selections (the common case) take a batched path:
        # all matured views apply in ONE top-down rewrite pass, which is
        # provably identical to the sequential largest-first applies —
        # pre-order replacement already makes the largest view win
        # wherever views nest.  Group (containment) candidates rewrite
        # to compensating filters, which can interleave with strict
        # replacements in size order, so they keep the sequential path.
        strict_only = all(c.group is None for c in selected)
        by_size = sorted(selected, key=lambda c: -c.expression.size)
        with self._span("cloudviews.rewrite_and_account", n_views=n_selected):
            for job_id, plan in jobs:
                sets = signature_sets(plan)
                strict_sigs = sets.strict
                if len(materialized) < n_selected:
                    pending = [
                        c
                        for c in selected
                        if c.signature not in materialized
                        and self._matches(plan, c)
                    ]
                else:
                    # Every view matured: the pending scan can only come
                    # up empty, so skip it (it is O(views) per job).
                    pending = []
                # First occurrence: run as-is, pay the write for each view.
                ready = [
                    c
                    for c in by_size
                    if c.signature in materialized
                    and (
                        c.signature in strict_sigs
                        if c.group is None
                        else c.group.template in sets.template
                    )
                ]
                key = (
                    plan_signatures(plan).strict,
                    tuple(c.signature for c in ready),
                )
                cost = rewritten_costs.get(key)
                if cost is None:
                    if strict_only:
                        views = {c.signature: c.view_table for c in ready}
                        rewritten = (
                            _rewrite_with_views(plan, views) if views else plan
                        )
                    else:
                        rewritten = plan
                        for candidate in ready:
                            rewritten = self._apply(rewritten, candidate)
                    cost = rewritten_costs[key] = day_cost.cost(rewritten).total
                for candidate in pending:
                    cost += WRITE_COST_PER_BYTE * day_cost.output_bytes(
                        candidate.expression
                    )
                    materialized.add(candidate.signature)
                reuse_total += cost
        return ReuseReport(
            n_jobs=len(jobs),
            n_views=len(selected),
            baseline_latency=baseline,
            reuse_latency=reuse_total,
            baseline_processing=baseline,
            reuse_processing=reuse_total,
            views=selected,
        )
