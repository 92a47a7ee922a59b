"""Deterministic query traffic against a fleet's endpoints.

The generator inspects the fabric's drivers and builds a subject pool
per endpoint — Doppler queries draw from the historical customer
population, Seagull from the observed server fleet, Moneyball from the
tenant trace arrivals, steering rule-config lookups from the job
templates, Peregrine from the (subject-free) ``stats`` op.  Requests
are drawn from those pools with a seeded RNG, so the same seed always
produces the same request stream — which is what lets the benchmark
and the serve tests replay identical load.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any

from repro.core.service import ServeRequest

if TYPE_CHECKING:
    from repro.fabric.plane import ControlPlane

#: Default endpoint mix (weights, not probabilities): recommendation
#: lookups dominate, matching a serving tier's read-heavy profile.
DEFAULT_MIX = {
    "doppler": 6.0,
    "seagull": 3.0,
    "moneyball": 2.0,
    "steering": 2.0,
    "peregrine": 1.0,
}

DEFAULT_TENANTS = ("contoso", "fabrikam", "adventure-works", "tailwind")


class TrafficGenerator:
    """Seeded, replayable request streams over a fabric's endpoints."""

    def __init__(
        self,
        fabric: "ControlPlane",
        seed: int = 0,
        tenants: tuple[str, ...] = DEFAULT_TENANTS,
        mix: dict[str, float] | None = None,
        max_subjects: int = 256,
    ) -> None:
        self.fabric = fabric
        self.seed = seed
        self.tenants = tuple(tenants) or ("anonymous",)
        self.max_subjects = max_subjects
        #: endpoint -> (op, subject pool, params)
        self.pools: dict[str, tuple[str, list[Any], dict]] = {}
        for binding in fabric.bindings:
            pool = self._pool_for(binding)
            if pool is not None:
                self.pools[binding.name] = pool
        wanted = mix if mix is not None else DEFAULT_MIX
        self.mix = {
            endpoint: weight
            for endpoint, weight in wanted.items()
            if endpoint in self.pools and weight > 0
        }
        if not self.mix:
            raise ValueError("no generatable endpoints on this fabric")
        self._rng = random.Random(seed)

    def _pool_for(self, binding) -> "tuple[str, list[Any], dict] | None":
        driver = binding.driver
        name = binding.name
        if name == "doppler":
            subjects = list(getattr(driver, "historical", []))
            return ("recommend", subjects, {}) if subjects else None
        if name == "seagull":
            servers = [t.tenant_id for t in getattr(driver, "traces", [])]
            day = int(getattr(driver, "first_day", 0))
            return ("recommend", servers, {"day": day}) if servers else None
        if name == "moneyball":
            arrivals = getattr(driver, "arrivals_by_day", {})
            traces = [t for day in sorted(arrivals) for t in arrivals[day]]
            return ("recommend", traces[: self.max_subjects], {}) if traces else None
        if name == "steering":
            from repro.engine import signatures

            pairs = driver.jobs_by_day
            templates: list[str] = []
            seen: set[str] = set()
            for day in range(pairs.source.days):
                for _, plan in pairs.get(day, []):
                    template = signatures(plan).template
                    if template not in seen:
                        seen.add(template)
                        templates.append(template)
                if len(templates) >= self.max_subjects:
                    break
            return ("recommend", templates, {}) if templates else None
        if name == "peregrine":
            return ("stats", [None], {})
        return None

    def endpoints(self) -> list[str]:
        return sorted(self.mix)

    def request(
        self, deadline: float | None = None
    ) -> tuple[str, ServeRequest]:
        """Draw one (endpoint, request) pair from the seeded stream."""
        endpoints = sorted(self.mix)
        weights = [self.mix[e] for e in endpoints]
        endpoint = self._rng.choices(endpoints, weights=weights, k=1)[0]
        op, subjects, params = self.pools[endpoint]
        subject = self._rng.choice(subjects)
        tenant = self._rng.choice(self.tenants)
        return endpoint, ServeRequest(
            op=op,
            subject=subject,
            params=params,
            tenant=tenant,
            deadline=deadline,
        )

    def stream(
        self, n: int, deadline: float | None = None
    ) -> list[tuple[str, ServeRequest]]:
        """``n`` requests; same seed, same stream, every time."""
        return [self.request(deadline=deadline) for _ in range(n)]
