"""The optimizer skips a rule only where the rule cannot fire.

Each rule declares the ``(node class, child class or None)`` it rewrites;
the optimizer skips a rule whose shape no node of the current plan has.
These tests check the declarations against the rules themselves, and the
guarded optimizer against the unguarded fixpoint loop it replaced.
"""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings

from repro.engine import (
    ALL_RULES,
    Aggregate,
    Catalog,
    ColumnStats,
    DefaultCardinalityEstimator,
    Filter,
    Join,
    Optimizer,
    Predicate,
    Project,
    RuleConfig,
    Scan,
    TableDef,
    Union,
)
from repro.engine.expr import rewrite_bottom_up
from repro.engine.rules import RuleContext, plan_shapes
from repro.workloads import ScopeWorkloadGenerator

from tests.engine.strategies import expressions


def _catalog() -> Catalog:
    cat = Catalog()
    cat.add(
        TableDef(
            "fact",
            n_rows=1_000_000,
            columns=(
                ColumnStats("key", distinct=10_000),
                ColumnStats("a0", distinct=100, low=0, high=1000, skew=1.0),
                ColumnStats("a1", distinct=50, low=0, high=100, skew=0.0),
            ),
            row_bytes=200,
        )
    )
    cat.add(
        TableDef(
            "dim",
            n_rows=10_000,
            columns=(
                ColumnStats("key", distinct=10_000),
                ColumnStats("d0", distinct=20, low=0, high=100),
            ),
            row_bytes=80,
        )
    )
    return cat


CATALOG = _catalog()


def _hand_plans() -> list:
    """Every shape a rule declares, alone and nested, over CATALOG."""
    fact, dim = Scan("fact"), Scan("dim")
    a0 = (Predicate("a0", "<", 100.0),)
    d0 = (Predicate("d0", ">", 1.0),)
    join = Join(fact, dim, "key", "key")
    union = Union(Filter(fact, a0), fact)
    agg = Aggregate(fact, ("a0",))
    return [
        fact,
        Filter(fact, a0 + a0),
        Filter(Filter(fact, a0), a0),
        Filter(join, a0 + d0),
        Filter(union, a0),
        Filter(agg, a0),
        Project(Project(fact, ("a0", "a1")), ("a0",)),
        Project(join, ("a0", "d0")),
        join,
        Join(dim, fact, "key", "key"),
        Join(Filter(fact, a0), Aggregate(dim, ("key",)), "key", "key"),
        Aggregate(join, ("a0",)),
        Aggregate(union, ("a0",)),
        Union(Aggregate(join, ("a0",)), Project(join, ("a0",))),
        Project(Filter(Aggregate(Union(join, join), ("a0",)), a0), ("a0",)),
    ]


@pytest.fixture(scope="module")
def scope_world():
    generator = ScopeWorkloadGenerator(rng=3)
    plans = []
    seen = set()
    for job in generator.day_jobs(0):
        if job.plan not in seen:
            seen.add(job.plan)
            plans.append(job.plan)
    return generator.catalog, plans


def _node_shapes(node) -> set:
    """The shapes of one node and its direct children."""
    shapes = {(type(node), None)}
    shapes.update((type(node), type(child)) for child in node.children)
    return shapes


def _assert_shapes_sound(plan, catalog) -> None:
    ctx = RuleContext(catalog, DefaultCardinalityEstimator(catalog))
    shapes = plan_shapes(plan)
    for rule in ALL_RULES:
        # Locally: a node without the rule's shape comes back as itself.
        for node in plan.walk():
            if rule.shape not in _node_shapes(node):
                assert rule.apply(node, ctx) is node, (rule.name, node)
        # Whole trees: an absent shape leaves the plan object as it is.
        if rule.shape not in shapes:
            rewritten = rewrite_bottom_up(
                plan, lambda node, r=rule: r.apply(node, ctx)
            )
            assert rewritten is plan, (rule.name, plan)


def _reference_optimize(optimizer: Optimizer, expr, config: RuleConfig):
    """The optimizer's fixpoint loop without the shape skip."""
    ctx = RuleContext(optimizer.catalog, optimizer.cardinality)
    active = [rule for rule in ALL_RULES if config.enabled(rule.rule_id)]
    plan = expr
    passes = 0
    for _ in range(optimizer.max_passes):
        passes += 1
        before = plan
        for rule in active:
            plan = rewrite_bottom_up(
                plan, lambda node, r=rule: r.apply(node, ctx)
            )
        if plan == before:
            break
    return plan, passes


ALL_CONFIGS = [
    RuleConfig(bits) for bits in itertools.product((True, False), repeat=len(ALL_RULES))
]


class TestRuleShapes:
    def test_every_rule_declares_a_shape(self):
        kinds = {Scan, Filter, Project, Join, Aggregate, Union}
        for rule in ALL_RULES:
            node, child = rule.shape
            assert node in kinds and (child is None or child in kinds)

    def test_hand_built_shapes_are_sound(self):
        plans = _hand_plans()
        declared = {rule.shape for rule in ALL_RULES}
        present = set().union(*(plan_shapes(plan) for plan in plans))
        assert declared <= present  # every rule fires somewhere
        for plan in plans:
            _assert_shapes_sound(plan, CATALOG)

    def test_scope_plans_are_sound(self, scope_world):
        catalog, plans = scope_world
        assert len(plans) > 20
        for plan in plans:
            _assert_shapes_sound(plan, catalog)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(expressions(max_depth=5))
    def test_random_plans_are_sound(self, plan):
        _assert_shapes_sound(plan, CATALOG)


class TestGuardedOptimizer:
    def test_hand_plans_match_the_unguarded_loop_for_every_config(self):
        assert len(ALL_CONFIGS) == 1024
        optimizer = Optimizer(CATALOG)
        for plan in _hand_plans():
            for config in ALL_CONFIGS:
                result = optimizer.optimize(plan, config)
                assert (result.plan, result.passes) == _reference_optimize(
                    optimizer, plan, config
                ), (plan, config)

    def test_scope_plans_match_the_unguarded_loop_for_every_config(
        self, scope_world
    ):
        catalog, plans = scope_world
        optimizer = Optimizer(catalog)
        sample = sorted(plans, key=lambda p: (-p.size, str(p)))[:6]
        for plan in sample:
            for config in ALL_CONFIGS:
                result = optimizer.optimize(plan, config)
                assert (result.plan, result.passes) == _reference_optimize(
                    optimizer, plan, config
                ), (plan, config)

    def test_estimates_are_computed_on_first_read(self):
        calls = []

        class CountingModel:
            def estimate(self, expr):
                calls.append(expr)
                return 42.0

        optimizer = Optimizer(CATALOG, cardinality=CountingModel())
        result = optimizer.optimize(Join(Scan("fact"), Scan("dim"), "key", "key"))
        during = len(calls)
        assert result.estimated_rows == 42.0
        assert len(calls) == during + 1
        assert result.estimated_rows == 42.0  # cached, not re-estimated
        assert len(calls) == during + 1
        assert result.estimated_cost.total > 0

    def test_all_on_is_one_shared_config(self):
        assert RuleConfig.all_on() is RuleConfig.all_on()
        assert RuleConfig.all_on() == RuleConfig(tuple(True for _ in ALL_RULES))
