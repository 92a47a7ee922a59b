"""The common AutonomousService protocol across every core service."""

import numpy as np
import pytest

from repro.core import AutonomousService
from repro.core.doppler import SkuRecommender
from repro.core.feedback import FeedbackLoop
from repro.core.moneyball import MoneyballPolicy
from repro.core.seagull import SeagullService
from repro.core.steering import SteeringService
from repro.engine import DefaultCostModel, DefaultCardinalityEstimator, Optimizer
from repro.ml import LinearRegression, ModelRegistry
from repro.obs import ObservabilityRuntime
from repro.workloads import (
    ScopeWorkloadGenerator,
    UsagePopulationConfig,
    generate_customers,
    generate_population,
)


@pytest.fixture(scope="module")
def tenants():
    return generate_population(
        UsagePopulationConfig(n_tenants=12, n_days=42), rng=0
    )


@pytest.fixture(scope="module")
def workload():
    return ScopeWorkloadGenerator(rng=0).generate(n_days=1)


def _feedback_loop():
    registry = ModelRegistry(rng=0)
    rng = np.random.default_rng(0)
    x0 = rng.normal(size=(50, 1))
    y0 = 2 * x0[:, 0] + rng.normal(scale=0.1, size=50)
    version = registry.register("m", LinearRegression().fit(x0, y0))
    registry.promote("m", version)
    return FeedbackLoop(registry, "m", retrain=lambda x, y: LinearRegression().fit(x, y))


def _steering(workload):
    optimizer = Optimizer(workload.catalog)
    cost = DefaultCostModel(
        workload.catalog, DefaultCardinalityEstimator(workload.catalog)
    )
    return SteeringService(optimizer, lambda p: cost.cost(p).total, rng=0)


class TestConformance:
    def test_every_service_is_an_autonomous_service(self, workload):
        services = [
            _feedback_loop(),
            _steering(workload),
            MoneyballPolicy(),
            SeagullService(),
            SkuRecommender(rng=0),
        ]
        for service in services:
            assert isinstance(service, AutonomousService)
            for method in ("observe", "recommend", "report", "bind"):
                assert callable(getattr(service, method)), (service, method)
            assert service.service_name
            assert service.layer == "service"

    def test_service_names_unique(self, workload):
        names = {
            s.service_name
            for s in (
                _feedback_loop(),
                _steering(workload),
                MoneyballPolicy(),
                SeagullService(),
                SkuRecommender(rng=0),
            )
        }
        assert names == {"feedback", "steering", "moneyball", "seagull", "doppler"}

    def test_bind_returns_service_and_sets_runtime(self):
        obs = ObservabilityRuntime()
        service = MoneyballPolicy()
        assert service.obs is None
        assert service.bind(obs) is service
        assert service.obs is obs
        service.bind(None)
        assert service.obs is None

    def test_unbound_service_emits_nothing(self, tenants):
        service = MoneyballPolicy()
        for trace in tenants:
            service.observe(trace)
        report = service.report()
        assert report.points  # works fully uninstrumented

    def test_bound_service_produces_spans_and_events(self, tenants):
        obs = ObservabilityRuntime()
        service = MoneyballPolicy().bind(obs)
        for trace in tenants:
            service.observe(trace)
        service.report()
        assert any(s.name == "moneyball.report" for s in obs.tracer.spans)
        assert obs.events.filter(layer="service", source="moneyball")

    def test_abstract_base_rejects_partial_implementations(self):
        class Partial(AutonomousService):
            service_name = "partial"

            def observe(self):  # recommend/report missing
                pass

        with pytest.raises(TypeError):
            Partial()


class TestDeprecatedAliases:
    def test_removed_aliases_are_gone(self, workload):
        # Each old entry point served its release as a deprecated shim
        # and is now removed along with the shim decorator.
        assert not hasattr(SkuRecommender(rng=0), "fit")
        assert not hasattr(MoneyballPolicy(), "evaluate")
        assert not hasattr(_feedback_loop(), "actions")
        steering = _steering(workload)
        assert not hasattr(steering, "config_for")
        assert not hasattr(steering, "process")
        assert not hasattr(SeagullService(), "choose")

    def test_new_entry_points_do_not_warn(self, recwarn, tenants):
        service = SeagullService()
        service.observe([t for t in tenants if t.is_predictable][0])
        assert not [w for w in recwarn.list if w.category is DeprecationWarning]
