"""Optimizer rewrite rules, each individually switchable.

The SCOPE optimizer has 256 on/off rules (Section 4.2); Bao steers 48.
We model the same mechanism at a tractable scale: a catalog of rewrite
rules, each a deterministic bottom-up transformation guarded by a config
bit.  Some rules are unconditionally safe improvements (filter merging,
pushdown); others (join commutation, early aggregation) are *cost-based
gambles* whose payoff depends on cardinality estimates being right —
exactly the rules worth steering per-job.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.engine.catalog import Catalog
from repro.engine.estimator import CardinalityModel
from repro.engine.expr import (
    Aggregate,
    Expression,
    Filter,
    Join,
    Predicate,
    Project,
    Union,
)


@dataclass
class RuleContext:
    """Everything a rule may consult when rewriting a node."""

    catalog: Catalog
    cardinality: CardinalityModel


@dataclass(frozen=True)
class Rule:
    """A switchable rewrite: ``apply`` receives a node with rewritten children.

    ``shape`` is the ``(node class, child class or None)`` the rule
    rewrites: ``apply`` returns any node of another shape unchanged, so
    the optimizer skips the rule for a plan with no node of that shape.
    """

    rule_id: int
    name: str
    apply: Callable[[Expression, RuleContext], Expression]
    shape: tuple[type, type | None]
    risky: bool = False  # depends on estimates being accurate


# -- helpers ---------------------------------------------------------------


def _owned_by(ctx: RuleContext, side: Expression, column: str) -> bool:
    return ctx.catalog.owner_of_column(column, side.tables()) is not None


def _maybe_filter(child: Expression, preds: list[Predicate]) -> Expression:
    if not preds:
        return child
    return Filter(child, tuple(preds))


# -- safe rules ---------------------------------------------------------------


def _filter_merge(node: Expression, ctx: RuleContext) -> Expression:
    """Filter(Filter(x)) -> one Filter with the concatenated conjunct."""
    if isinstance(node, Filter) and isinstance(node.child, Filter):
        return Filter(node.child.child, node.child.predicates + node.predicates)
    return node


def _dedupe_predicates(node: Expression, ctx: RuleContext) -> Expression:
    """Drop exact-duplicate predicates inside a Filter."""
    if isinstance(node, Filter):
        seen: list[Predicate] = []
        for p in node.predicates:
            if p not in seen:
                seen.append(p)
        if len(seen) != len(node.predicates):
            return Filter(node.child, tuple(seen))
    return node


def _push_filter_below_join(node: Expression, ctx: RuleContext) -> Expression:
    """Route each predicate to the join side that owns its column."""
    if not (isinstance(node, Filter) and isinstance(node.child, Join)):
        return node
    join = node.child
    left_preds, right_preds, keep = [], [], []
    for p in node.predicates:
        if _owned_by(ctx, join.left, p.column):
            left_preds.append(p)
        elif _owned_by(ctx, join.right, p.column):
            right_preds.append(p)
        else:
            keep.append(p)
    if not left_preds and not right_preds:
        return node
    new_join = replace(
        join,
        left=_maybe_filter(join.left, left_preds),
        right=_maybe_filter(join.right, right_preds),
    )
    return _maybe_filter(new_join, keep)


def _push_filter_below_union(node: Expression, ctx: RuleContext) -> Expression:
    if isinstance(node, Filter) and isinstance(node.child, Union):
        union = node.child
        return Union(
            Filter(union.left, node.predicates),
            Filter(union.right, node.predicates),
        )
    return node


def _push_filter_below_aggregate(node: Expression, ctx: RuleContext) -> Expression:
    """Predicates on group-by columns commute with the aggregate."""
    if not (isinstance(node, Filter) and isinstance(node.child, Aggregate)):
        return node
    agg = node.child
    movable = [p for p in node.predicates if p.column in agg.group_by]
    keep = [p for p in node.predicates if p.column not in agg.group_by]
    if not movable:
        return node
    pushed = replace(agg, child=_maybe_filter(agg.child, movable))
    return _maybe_filter(pushed, keep)


def _project_merge(node: Expression, ctx: RuleContext) -> Expression:
    if isinstance(node, Project) and isinstance(node.child, Project):
        return Project(node.child.child, node.columns)
    return node


def _projection_pushdown(node: Expression, ctx: RuleContext) -> Expression:
    """Project(Join) -> Join of narrowed sides (join keys retained)."""
    if not (isinstance(node, Project) and isinstance(node.child, Join)):
        return node
    join = node.child
    if isinstance(join.left, Project) or isinstance(join.right, Project):
        return node  # already pushed

    def side_columns(side: Expression, key: str) -> tuple[str, ...]:
        wanted = [c for c in node.columns if _owned_by(ctx, side, c)]
        needed = set(wanted) | {key}
        # Keep columns any Filter inside this side still references.
        for sub in side.walk():
            if isinstance(sub, Filter):
                needed.update(p.column for p in sub.predicates)
        return tuple(sorted(needed))

    new_join = replace(
        join,
        left=Project(join.left, side_columns(join.left, join.left_key)),
        right=Project(join.right, side_columns(join.right, join.right_key)),
    )
    return Project(new_join, node.columns)


# -- risky (estimate-dependent) rules -----------------------------------------


def _join_commute(node: Expression, ctx: RuleContext) -> Expression:
    """Put the (estimated) smaller input on the build side (left).

    Pays off only when the cardinality estimates order the inputs
    correctly — a misestimate flips the larger input onto the build side.
    """
    if isinstance(node, Join):
        left_rows = ctx.cardinality.estimate(node.left)
        right_rows = ctx.cardinality.estimate(node.right)
        if left_rows > right_rows:
            return Join(node.right, node.left, node.right_key, node.left_key)
    return node


def _early_aggregation(node: Expression, ctx: RuleContext) -> Expression:
    """Aggregate(Join) -> push a partial aggregate below the join (left side).

    Profitable when the partial aggregate strongly reduces the build input;
    wasted (or harmful) work when it does not — the classic situational
    rule that Bao-style steering learns to toggle per job.
    """
    if not (isinstance(node, Aggregate) and isinstance(node.child, Join)):
        return node
    join = node.child
    if isinstance(join.left, Aggregate):
        return node  # already applied
    input_rows = ctx.cardinality.estimate(join.left)
    partial = Aggregate(join.left, tuple(sorted(set(node.group_by) | {join.left_key})))
    reduced_rows = ctx.cardinality.estimate(partial)
    # Apply whenever the estimate says the partial aggregate does not
    # inflate the input.  The default estimator's distinct-product bound
    # makes this optimistic, so the rule is a genuine gamble: the true
    # reduction is often strong (win) but the extra aggregation pass is
    # wasted when it is not (regression) — steering's bread and butter.
    if reduced_rows <= input_rows:
        return replace(node, child=replace(join, left=partial))
    return node


def _aggregate_below_union(node: Expression, ctx: RuleContext) -> Expression:
    """Aggregate(Union) -> re-aggregate partial aggregates of each branch."""
    if not (isinstance(node, Aggregate) and isinstance(node.child, Union)):
        return node
    union = node.child
    if isinstance(union.left, Aggregate) and isinstance(union.right, Aggregate):
        return node  # already applied
    pushed = Union(
        Aggregate(union.left, node.group_by),
        Aggregate(union.right, node.group_by),
    )
    return replace(node, child=pushed)


#: The engine's full rule catalog, indexed by rule id.
ALL_RULES: tuple[Rule, ...] = (
    Rule(0, "FilterMerge", _filter_merge, (Filter, Filter)),
    Rule(1, "DedupePredicates", _dedupe_predicates, (Filter, None)),
    Rule(2, "PushFilterBelowJoin", _push_filter_below_join, (Filter, Join)),
    Rule(3, "PushFilterBelowUnion", _push_filter_below_union, (Filter, Union)),
    Rule(
        4,
        "PushFilterBelowAggregate",
        _push_filter_below_aggregate,
        (Filter, Aggregate),
    ),
    Rule(5, "ProjectMerge", _project_merge, (Project, Project)),
    Rule(6, "ProjectionPushdown", _projection_pushdown, (Project, Join)),
    Rule(7, "JoinCommute", _join_commute, (Join, None), risky=True),
    Rule(
        8, "EarlyAggregation", _early_aggregation, (Aggregate, Join), risky=True
    ),
    Rule(
        9,
        "AggregateBelowUnion",
        _aggregate_below_union,
        (Aggregate, Union),
        risky=True,
    ),
)


def plan_shapes(plan: Expression) -> set[tuple[type, type | None]]:
    """Every ``(node class, None)`` and ``(node class, child class)`` in
    ``plan``: the shapes a :attr:`Rule.shape` is looked up in."""
    shapes: set[tuple[type, type | None]] = set()
    for node in plan.walk():
        kind = type(node)
        shapes.add((kind, None))
        for child in node.children:
            shapes.add((kind, type(child)))
    return shapes
