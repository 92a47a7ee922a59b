"""The rule-driven optimizer with externalized estimation hooks.

Design follows the paper's guiding principle: "minimize changes to the
existing optimizer and supplement it with learned components".  The
optimizer itself is a dumb fixpoint rule engine; accuracy comes entirely
from the :class:`~repro.engine.estimator.CardinalityModel` and cost model
plugged into it.  Learned cardinalities, learned costs, and rule-hint
steering all enter through these two seams plus the
:class:`RuleConfig` bitmask.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

from repro.engine.catalog import Catalog
from repro.engine.cost import DefaultCostModel, PlanCost
from repro.engine.estimator import (
    CardinalityModel,
    DefaultCardinalityEstimator,
)
from repro.engine.expr import Expression, rewrite_bottom_up
from repro.engine.rules import ALL_RULES, RuleContext, plan_shapes

if TYPE_CHECKING:
    from repro.obs.runtime import ObservabilityRuntime


@dataclass(frozen=True)
class RuleConfig:
    """An immutable on/off assignment for every rule (the Bao search space)."""

    bits: tuple[bool, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(ALL_RULES):
            raise ValueError(
                f"expected {len(ALL_RULES)} bits, got {len(self.bits)}"
            )

    @classmethod
    def all_on(cls) -> "RuleConfig":
        """The engine default (one shared instance: configs are immutable)."""
        return _ALL_ON

    @classmethod
    def all_off(cls) -> "RuleConfig":
        return cls(tuple(False for _ in ALL_RULES))

    @classmethod
    def from_disabled(cls, disabled: set[int]) -> "RuleConfig":
        return cls(tuple(r.rule_id not in disabled for r in ALL_RULES))

    def enabled(self, rule_id: int) -> bool:
        return self.bits[rule_id]

    def flip(self, rule_id: int) -> "RuleConfig":
        """Return a config with exactly one bit toggled (one steering step)."""
        bits = list(self.bits)
        bits[rule_id] = not bits[rule_id]
        return RuleConfig(tuple(bits))

    def hamming(self, other: "RuleConfig") -> int:
        return sum(a != b for a, b in zip(self.bits, other.bits))

    def disabled_ids(self) -> tuple[int, ...]:
        return tuple(i for i, on in enumerate(self.bits) if not on)


_ALL_ON = RuleConfig(tuple(True for _ in ALL_RULES))


@dataclass
class OptimizerResult:
    """Optimized plan plus the estimates the optimizer believes of it.

    The estimates are computed on first read, under the optimizer's
    cost and cardinality models as they are then: callers that only
    run the plan (steering) never pay for them.
    """

    plan: Expression
    config: RuleConfig
    passes: int
    optimizer: "Optimizer" = field(repr=False, compare=False)

    @cached_property
    def estimated_cost(self) -> PlanCost:
        return self.optimizer.cost_model.cost(self.plan)

    @cached_property
    def estimated_rows(self) -> float:
        return self.optimizer.cardinality.estimate(self.plan)


class Optimizer:
    """Fixpoint rule application, costed with pluggable estimators."""

    def __init__(
        self,
        catalog: Catalog,
        cardinality: CardinalityModel | None = None,
        cost_model: DefaultCostModel | None = None,
        max_passes: int = 5,
        obs: "ObservabilityRuntime | None" = None,
    ) -> None:
        self.catalog = catalog
        self.cardinality = cardinality or DefaultCardinalityEstimator(catalog)
        self.cost_model = cost_model or DefaultCostModel(catalog, self.cardinality)
        if max_passes < 1:
            raise ValueError("max_passes must be >= 1")
        self.max_passes = max_passes
        self._obs = obs

    def bind(self, obs: "ObservabilityRuntime | None") -> "Optimizer":
        self._obs = obs
        return self

    def optimize(
        self, expr: Expression, config: RuleConfig | None = None
    ) -> OptimizerResult:
        """Apply enabled rules to fixpoint (estimates are read lazily)."""
        if self._obs is None:
            return self._optimize(expr, config)
        with self._obs.span(
            "engine.optimizer.optimize", layer="engine", plan_size=expr.size
        ) as span:
            result = self._optimize(expr, config)
            span.attributes["passes"] = result.passes
            return result

    def _optimize(
        self, expr: Expression, config: RuleConfig | None
    ) -> OptimizerResult:
        config = config or RuleConfig.all_on()
        ctx = RuleContext(self.catalog, self.cardinality)
        active = [rule for rule in ALL_RULES if config.enabled(rule.rule_id)]
        plan = expr
        # A rule whose shape no node has returns the plan object itself,
        # so it is skipped; the shapes change only with the plan object.
        shapes = plan_shapes(plan)
        passes = 0
        for _ in range(self.max_passes):
            passes += 1
            before = plan
            for rule in active:
                if rule.shape not in shapes:
                    continue
                rewritten = rewrite_bottom_up(
                    plan, lambda node, r=rule: r.apply(node, ctx)
                )
                if rewritten is not plan:
                    plan = rewritten
                    shapes = plan_shapes(plan)
            if plan == before:
                break
        return OptimizerResult(
            plan=plan, config=config, passes=passes, optimizer=self
        )
