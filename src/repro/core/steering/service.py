"""The steering service: contextual-bandit rule flips behind guardrails.

Production adaptations reproduced from [35, 51]:

- **Small incremental steps**: a template's adopted config is never more
  than ``max_steps`` bit-flips away from the engine default, and each
  adoption moves exactly one bit.
- **Contextual bandit**: a LinUCB model over plan-shape features picks
  which single rule flip to trial, so experimentation budget concentrates
  on promising flips instead of the full 2^N space.
- **Validation model**: a flip is adopted only after ``validation_trials``
  trials with mean improvement above ``adoption_threshold`` and no trial
  regressing past ``regression_guard``.
- **Rollback**: adopted flips are monitored; a post-adoption regression
  reverts the flip and blacklists the arm for that template.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.service import AutonomousService
from repro.engine import (
    ALL_RULES,
    Expression,
    Optimizer,
    RuleConfig,
    signatures,
)
from repro.ml import LinUCB

if TYPE_CHECKING:
    from repro.obs.events import ObsEvent

#: Context feature count (see :func:`plan_features`).
N_FEATURES = 6


def plan_features(plan: Expression, estimated_rows: float) -> np.ndarray:
    """Plan-shape context for the bandit: cheap, engine-agnostic."""
    counts = {"Join": 0, "Filter": 0, "Aggregate": 0}
    for node in plan.walk():
        name = type(node).__name__
        if name in counts:
            counts[name] += 1
    return np.array(
        [
            1.0,  # bias
            plan.size / 10.0,
            counts["Join"],
            counts["Filter"],
            counts["Aggregate"],
            np.log1p(estimated_rows) / 10.0,
        ]
    )


@dataclass
class SteeringOutcome:
    """What happened to one job instance."""

    job_id: str
    template: str
    config: RuleConfig
    default_cost: float
    steered_cost: float
    experimented: bool
    trial_arm: int | None = None

    @property
    def improvement(self) -> float:
        if self.default_cost <= 0:
            return 0.0
        return (self.default_cost - self.steered_cost) / self.default_cost


@dataclass
class _TemplateState:
    config: RuleConfig
    trials: dict[int, list[float]] = field(default_factory=dict)
    blacklisted: set[int] = field(default_factory=set)
    adopted_arms: list[int] = field(default_factory=list)
    post_adoption: list[float] = field(default_factory=list)


@dataclass
class SteeringReport:
    """Aggregate outcome over a stream of jobs (E7's bench data)."""

    outcomes: list[SteeringOutcome]
    adoptions: int
    rollbacks: int

    @property
    def total_default_cost(self) -> float:
        return sum(o.default_cost for o in self.outcomes)

    @property
    def total_steered_cost(self) -> float:
        return sum(o.steered_cost for o in self.outcomes)

    @property
    def improvement(self) -> float:
        base = self.total_default_cost
        return (base - self.total_steered_cost) / base if base > 0 else 0.0

    def regression_fraction(self, tolerance: float = 0.01) -> float:
        """Fraction of jobs the steered config made materially worse."""
        if not self.outcomes:
            return 0.0
        regressions = sum(
            1
            for o in self.outcomes
            if o.steered_cost > o.default_cost * (1.0 + tolerance)
        )
        return regressions / len(self.outcomes)

    def max_steps_from_default(self) -> int:
        if not self.outcomes:
            return 0
        default = RuleConfig.all_on()
        return max(o.config.hamming(default) for o in self.outcomes)

    def to_events(self) -> "list[ObsEvent]":
        """The steered stream as shared observability events.

        One ``job`` event per outcome (value = relative improvement,
        stamped by stream position) plus summary ``adoptions`` /
        ``rollbacks`` counters at the end.
        """
        from repro.obs.events import ObsEvent, freeze_attributes

        events = [
            ObsEvent(
                timestamp=float(i),
                layer="service",
                source="steering",
                kind="job",
                value=outcome.improvement,
                attributes=freeze_attributes(
                    {
                        "job_id": outcome.job_id,
                        "template": outcome.template,
                        "experimented": outcome.experimented,
                    }
                ),
            )
            for i, outcome in enumerate(self.outcomes)
        ]
        end = float(len(self.outcomes))
        for kind, count in (
            ("adoptions", self.adoptions),
            ("rollbacks", self.rollbacks),
        ):
            events.append(
                ObsEvent(
                    timestamp=end,
                    layer="service",
                    source="steering",
                    kind=kind,
                    value=float(count),
                )
            )
        return events


class SteeringService(AutonomousService):
    """Per-template steering with exploration, validation, and rollback.

    Costs are memoized per ``(strict signature, config)``: recurring
    instances of a template share a plan, so a day's head sample costs
    a handful of distinct plans many times over.  That makes a contract
    of what was already true of every caller: ``true_cost`` and the
    optimizer's cardinality model must be pure functions of plan
    structure (both default estimators memoize per strict signature over
    a fixed catalog).
    """

    service_name = "steering"
    layer = "service"

    #: Bound on memoized costs (FIFO-evicted beyond it; re-costing an
    #: evicted pair gives the same number, so the cap only bounds memory).
    _COST_CAP = 4096

    def __init__(
        self,
        optimizer: Optimizer,
        true_cost: Callable[[Expression], float],
        exploration_rate: float = 0.5,
        validation_trials: int = 3,
        adoption_threshold: float = 0.02,
        regression_guard: float = -0.05,
        max_steps: int = 2,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0.0 <= exploration_rate <= 1.0:
            raise ValueError("exploration_rate must be in [0, 1]")
        if validation_trials < 1:
            raise ValueError("validation_trials must be >= 1")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        self.optimizer = optimizer
        self.true_cost = true_cost
        self.exploration_rate = exploration_rate
        self.validation_trials = validation_trials
        self.adoption_threshold = adoption_threshold
        self.regression_guard = regression_guard
        self.max_steps = max_steps
        self._rng = np.random.default_rng(rng)
        self._states: dict[str, _TemplateState] = {}
        #: template -> the value of :attr:`_touches`, a count that only
        #: goes up, when its state was last handed out: checkpoints send
        #: the states stamped since their previous frame (see
        #: :attr:`~repro.fabric.pipeline.PipelineDriver.keyed_attrs`)
        self._touches = 0
        self._touched: dict[str, int] = {}
        self._outcomes: list[SteeringOutcome] = []
        self._costs: dict[tuple[str, RuleConfig], float] = {}
        self.adoptions = 0
        self.rollbacks = 0
        #: Arm index meaning "trial nothing this round".
        self.noop_arm = len(ALL_RULES)
        # One bandit for the whole workload: the *context* carries the
        # job shape, so knowledge about which flips pay off transfers
        # across templates (this is what keeps pre-production
        # experimentation cost low in [51]).
        self._bandit = LinUCB(
            n_arms=len(ALL_RULES) + 1,
            n_features=N_FEATURES,
            alpha=0.8,
            rng=self._rng,
        )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_costs"]
        state.pop("_touched", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._costs = {}
        self._touched = {}

    # -- the AutonomousService API ----------------------------------------------
    def recommend(self, template: str) -> RuleConfig:
        """The currently adopted config for a job template."""
        state = self._states.get(template)
        return state.config if state else RuleConfig.all_on()

    def observe(self, job_id: str, plan: Expression) -> SteeringOutcome:
        """Steer one job: run the adopted config, maybe trial one flip."""
        with self._span("observe", job_id=job_id):
            template = signatures(plan).template
            state = self._state(template)
            default_cost = self._evaluate(plan, RuleConfig.all_on())
            steered_cost = self._evaluate(plan, state.config)

            experimented = False
            trial_arm = None
            if self._rng.random() < self.exploration_rate:
                trial_arm = self._trial(state, plan, steered_cost)
                experimented = trial_arm is not None

            self._monitor_adoption(state, default_cost, steered_cost)
            outcome = SteeringOutcome(
                job_id=job_id,
                template=template,
                config=state.config,
                default_cost=default_cost,
                steered_cost=steered_cost,
                experimented=experimented,
                trial_arm=trial_arm,
            )
            self._outcomes.append(outcome)
            self._emit(
                "job",
                value=outcome.improvement,
                template=template,
                experimented=experimented,
            )
            return outcome

    def report(self) -> SteeringReport:
        """Aggregate report over every job observed so far."""
        return SteeringReport(
            outcomes=list(self._outcomes),
            adoptions=self.adoptions,
            rollbacks=self.rollbacks,
        )

    def run(self, jobs: list[tuple[str, Expression]]) -> SteeringReport:
        """Observe a whole stream; report covers just this stream."""
        outcomes = [self.observe(job_id, plan) for job_id, plan in jobs]
        return SteeringReport(
            outcomes=outcomes,
            adoptions=self.adoptions,
            rollbacks=self.rollbacks,
        )

    # -- the serve contract ------------------------------------------------------
    def serve_observe(self, request) -> SteeringOutcome:
        """``observe`` over the envelope: the plan is the subject.

        The plan rides in ``subject`` (it is the signature-keyed object
        the serve cache and the bandit both key on); ``job_id`` comes in
        through ``params``.
        """
        return self.observe(request.params["job_id"], request.subject)

    # -- internals -------------------------------------------------------------
    def _state(self, template: str) -> _TemplateState:
        self._touches += 1
        self._touched[template] = self._touches
        state = self._states.get(template)
        if state is None:
            state = _TemplateState(config=RuleConfig.all_on())
            self._states[template] = state
        return state

    def _evaluate(self, plan: Expression, config: RuleConfig) -> float:
        key = (signatures(plan).strict, config)
        cost = self._costs.get(key)
        if cost is None:
            optimized = self.optimizer.optimize(plan, config).plan
            cost = self.true_cost(optimized)
            if len(self._costs) >= self._COST_CAP:
                del self._costs[next(iter(self._costs))]
            self._costs[key] = cost
        return cost

    def _trial(
        self, state: _TemplateState, plan: Expression, current_cost: float
    ) -> int | None:
        """Flight one candidate flip chosen by the bandit; learn from it."""
        context = plan_features(
            plan, self.optimizer.cardinality.estimate(plan)
        )
        arm = self._bandit.select(context)
        if arm == self.noop_arm or arm in state.blacklisted:
            self._bandit.update(arm, context, 0.0)
            return None
        candidate = state.config.flip(arm)
        if candidate.hamming(RuleConfig.all_on()) > self.max_steps:
            self._bandit.update(arm, context, 0.0)
            return None
        candidate_cost = self._evaluate(plan, candidate)
        reward = (
            (current_cost - candidate_cost) / current_cost
            if current_cost > 0
            else 0.0
        )
        self._bandit.update(arm, context, reward)
        trials = state.trials.setdefault(arm, [])
        trials.append(reward)
        # Only the newest ``validation_trials`` rewards are ever read.
        del trials[: -self.validation_trials]
        self._maybe_adopt(state, arm, trials)
        return arm

    def _maybe_adopt(
        self, state: _TemplateState, arm: int, trials: list[float]
    ) -> None:
        """The validation model: adopt only proven, never-regressing flips."""
        if len(trials) < self.validation_trials:
            return
        window = trials[-self.validation_trials :]
        if min(window) < self.regression_guard:
            state.blacklisted.add(arm)
            return
        if float(np.mean(window)) >= self.adoption_threshold:
            state.config = state.config.flip(arm)
            state.adopted_arms.append(arm)
            state.trials[arm] = []
            state.post_adoption = []
            self.adoptions += 1
            self._emit("adopt", arm=arm)

    def _monitor_adoption(
        self, state: _TemplateState, default_cost: float, steered_cost: float
    ) -> None:
        """Post-adoption regression watch: revert a flip that turned bad."""
        if not state.adopted_arms:
            return
        improvement = (
            (default_cost - steered_cost) / default_cost
            if default_cost > 0
            else 0.0
        )
        state.post_adoption.append(improvement)
        # Only the newest ``validation_trials`` improvements are ever read.
        del state.post_adoption[: -self.validation_trials]
        recent = state.post_adoption
        if (
            len(recent) >= self.validation_trials
            and float(np.mean(recent)) < self.regression_guard
        ):
            bad_arm = state.adopted_arms.pop()
            state.config = state.config.flip(bad_arm)
            state.blacklisted.add(bad_arm)
            state.post_adoption = []
            self.rollbacks += 1
            self._emit("rollback", arm=bad_arm)
