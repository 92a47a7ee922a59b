"""Segment-aware SKU recommendation with a price-performance ranking.

The pipeline mirrors Doppler:

1. **Segmentation** — k-means over observable customer profiles groups
   similar workloads (Insight 2's stratification middle ground).
2. **Segment knowledge** — from labelled historical migrations, each
   segment learns its typical *right-sizing factor* (how much of the
   on-prem peak the cloud deployment really needs).
3. **Price-performance curve** — for a new customer, SKUs are ranked by
   price among those predicted to cover the right-sized requirements;
   the cheapest covering SKU is the recommendation, and the full ranked
   curve is exposed for explainability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.service import AutonomousService
from repro.ml import KMeans, StandardScaler
from repro.workloads.customers import (
    AZURE_SKUS,
    CustomerProfile,
    Sku,
    feature_matrix,
    ground_truth_sku,
    peak_matrix,
)

if TYPE_CHECKING:
    from repro.obs.events import ObsEvent


@dataclass
class Recommendation:
    """The recommendation plus the explainable ranking behind it."""

    customer_id: str
    sku: Sku
    segment: int
    ranked_options: list[tuple[Sku, bool]]  # (sku, predicted_to_cover), by price

    @property
    def price(self) -> float:
        return self.sku.price

    def to_events(self) -> "list[ObsEvent]":
        from repro.obs.events import ObsEvent, freeze_attributes

        return [
            ObsEvent(
                timestamp=0.0,
                layer="service",
                source="doppler",
                kind="recommendation",
                value=self.price,
                attributes=freeze_attributes(
                    {
                        "customer": self.customer_id,
                        "sku": self.sku.name,
                        "segment": self.segment,
                    }
                ),
            )
        ]


@dataclass
class DopplerReport:
    """Every recommendation issued so far, replayable into the EventLog."""

    recommendations: list[Recommendation]

    @property
    def mean_price(self) -> float:
        if not self.recommendations:
            return 0.0
        return float(np.mean([r.price for r in self.recommendations]))

    def to_events(self) -> "list[ObsEvent]":
        return [
            event for rec in self.recommendations for event in rec.to_events()
        ]


class SkuRecommender(AutonomousService):
    """Fit on labelled migrations; recommend for unseen customers."""

    service_name = "doppler"
    layer = "service"

    def __init__(
        self,
        skus: tuple[Sku, ...] = AZURE_SKUS,
        n_segments: int = 5,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_segments < 1:
            raise ValueError("n_segments must be >= 1")
        self.skus = skus
        self.n_segments = n_segments
        self._rng = np.random.default_rng(rng)
        self._scaler = StandardScaler()
        self._kmeans: KMeans | None = None
        self._segment_factor: dict[int, dict[str, float]] | None = None
        self._global_factor: dict[str, float] = {
            "vcores": 1.0, "memory": 1.0, "iops": 1.0,
        }
        self._recommendations: list[Recommendation] = []

    # -- training --------------------------------------------------------------
    def observe(
        self,
        customers: list[CustomerProfile],
        observed_needs: list[tuple[float, float, float]] | None = None,
    ) -> "SkuRecommender":
        """Fit segments and per-segment right-sizing factors.

        ``observed_needs`` are per-customer (vcores, memory, iops) actually
        consumed after migration — the post-migration telemetry Doppler
        learns from existing Azure customers.  By default the generator's
        ground-truth effective requirements play that role.
        """
        if len(customers) < self.n_segments:
            raise ValueError("need at least one customer per segment")
        if observed_needs is None:
            observed_needs = [c.effective_requirements() for c in customers]
        if len(observed_needs) != len(customers):
            raise ValueError("observed_needs must match customers")
        features = feature_matrix(peak_matrix(customers))
        scaled = self._scaler.fit_transform(features)
        self._kmeans = KMeans(n_clusters=self.n_segments, rng=self._rng)
        labels = self._kmeans.fit_predict(scaled)
        # Per-segment, per-dimension right-sizing factors: the share of
        # the on-prem peak that migrated deployments actually consume.
        dims = ("vcores", "memory", "iops")
        factors: dict[int, dict[str, list[float]]] = {
            s: {d: [] for d in dims} for s in range(self.n_segments)
        }
        for customer, need, segment in zip(customers, observed_needs, labels):
            seg = factors[int(segment)]
            need_vcores, need_memory, need_iops = need
            if customer.peak_vcores > 0:
                seg["vcores"].append(need_vcores / customer.peak_vcores)
            if customer.peak_memory_gb > 0:
                seg["memory"].append(need_memory / customer.peak_memory_gb)
            if customer.peak_iops > 0:
                seg["iops"].append(need_iops / customer.peak_iops)
        pooled = {
            d: [f for s in factors.values() for f in s[d]] for d in dims
        }
        self._global_factor = {
            d: float(np.median(v)) if v else 1.0 for d, v in pooled.items()
        }
        self._segment_factor = {}
        for segment, seg in factors.items():
            self._segment_factor[segment] = {
                d: float(np.median(v)) if v else self._global_factor[d]
                for d, v in seg.items()
            }
        self._emit("observe", value=float(len(customers)))
        return self

    def report(self) -> DopplerReport:
        """Every recommendation issued so far."""
        return DopplerReport(recommendations=list(self._recommendations))

    # -- recommendation --------------------------------------------------------------
    def segment_of(self, customer: CustomerProfile) -> int:
        return int(self._segments(peak_matrix([customer]))[0])

    def _segments(self, peaks: np.ndarray) -> np.ndarray:
        if self._segment_factor is None or self._kmeans is None:
            raise RuntimeError("recommender is not fitted")
        return self._kmeans.predict(
            self._scaler.transform(feature_matrix(peaks))
        )

    def recommend(self, customer: CustomerProfile) -> Recommendation:
        """Cheapest SKU predicted to cover the right-sized requirements."""
        return self.recommend_batch([customer])[0]

    def recommend_batch(
        self, customers: list[CustomerProfile]
    ) -> list[Recommendation]:
        """One stacked model call for a whole customer batch.

        Segment assignment, right-sizing and the SKU ranking are all
        elementwise per row, so every returned recommendation is
        bit-identical to what recommending each customer alone produces
        — the contract the serve layer's micro-batching dispatcher
        relies on.  Every row is ranked before any is recorded.
        """
        if not customers:
            return []
        peaks = peak_matrix(customers)
        segments = self._segments(peaks).tolist()
        factors = [
            self._segment_factor.get(segment, self._global_factor)
            for segment in segments
        ]
        needs = peaks * np.array(
            [[f["vcores"], f["memory"], f["iops"]] for f in factors]
        )
        ranked = sorted(self.skus, key=lambda s: s.price)
        capacity = np.array(
            [[s.vcores, s.memory_gb, s.max_iops] for s in ranked], dtype=float
        )
        # covers[i, j]: does the j-th cheapest SKU cover row i's needs?
        covers = (capacity >= needs[:, None, :]).all(axis=2)
        # The cheapest covering SKU, else the priciest on the ladder.
        chosen = np.where(
            covers.any(axis=1), covers.argmax(axis=1), len(ranked) - 1
        )
        recommendations = []
        for customer, segment, flags, pick in zip(
            customers, segments, covers, chosen.tolist()
        ):
            recommendation = Recommendation(
                customer_id=customer.customer_id,
                sku=ranked[pick],
                segment=segment,
                ranked_options=list(zip(ranked, flags)),
            )
            self._recommendations.append(recommendation)
            self._emit(
                "recommendation",
                value=recommendation.price,
                sku=recommendation.sku.name,
                segment=segment,
            )
            recommendations.append(recommendation)
        return recommendations

    # -- the serve contract ----------------------------------------------------
    def serve_many(self, requests) -> list:
        """Coalesce a compatible ``recommend`` batch into one model call.

        Mixed or single-request batches fall back to the serial default;
        so does an unfitted recommender, where each request must surface
        its own 500-style response.
        """
        from repro.core.service import ServeResponse

        if len(requests) < 2 or any(r.op != "recommend" for r in requests):
            return super().serve_many(requests)
        try:
            results = self.recommend_batch([r.subject for r in requests])
        except Exception:  # noqa: BLE001 — per-request errors via serial path
            return super().serve_many(requests)
        return [
            ServeResponse(
                status=200,
                result=result,
                served_by=self.service_name,
                op="recommend",
            )
            for result in results
        ]


def recommendation_accuracy(
    recommender: SkuRecommender,
    customers: list[CustomerProfile],
    within_one_tier: bool = True,
) -> float:
    """Fraction of customers recommended their ground-truth SKU.

    With ``within_one_tier`` (Doppler's evaluation convention), an
    adjacent SKU on the price ladder also counts: right-sizing within
    one tier is considered acceptable by migration engineers.
    """
    if not customers:
        raise ValueError("no customers")
    ladder = sorted(recommender.skus, key=lambda s: s.price)
    index = {sku.name: i for i, sku in enumerate(ladder)}
    hits = 0
    for customer in customers:
        truth = ground_truth_sku(customer, recommender.skus)
        chosen = recommender.recommend(customer).sku
        if chosen.name == truth.name:
            hits += 1
        elif within_one_tier and abs(index[chosen.name] - index[truth.name]) == 1:
            hits += 1
    return hits / len(customers)
