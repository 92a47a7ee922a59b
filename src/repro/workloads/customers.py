"""Customer resource profiles and SKU catalog for Doppler-style migration.

Doppler [6] recommends a right-sized Azure SQL SKU for an on-premise
database by profiling its resource consumption and comparing it to
segments of existing cloud customers, achieving >95% recommendation
accuracy.  We synthesize (a) an Azure-like SKU ladder and (b) a customer
population drawn from latent segments, each customer with a
resource-usage profile and a ground-truth best SKU (cheapest SKU whose
capacities cover the customer's effective requirements).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Sku:
    """A purchasable service tier."""

    name: str
    vcores: float
    memory_gb: float
    max_iops: float
    price: float  # $ / month

    def covers(self, vcores: float, memory_gb: float, iops: float) -> bool:
        return (
            self.vcores >= vcores
            and self.memory_gb >= memory_gb
            and self.max_iops >= iops
        )


#: A simplified Azure SQL General-Purpose-like SKU ladder.
AZURE_SKUS: tuple[Sku, ...] = (
    Sku("GP_2", vcores=2, memory_gb=10, max_iops=800, price=380),
    Sku("GP_4", vcores=4, memory_gb=21, max_iops=1600, price=760),
    Sku("GP_8", vcores=8, memory_gb=41, max_iops=3200, price=1520),
    Sku("GP_16", vcores=16, memory_gb=83, max_iops=6400, price=3040),
    Sku("GP_32", vcores=32, memory_gb=166, max_iops=12800, price=6080),
    Sku("BC_8", vcores=8, memory_gb=41, max_iops=24000, price=4100),
    Sku("BC_16", vcores=16, memory_gb=83, max_iops=48000, price=8200),
    Sku("BC_32", vcores=32, memory_gb=166, max_iops=96000, price=16400),
)


@dataclass
class CustomerProfile:
    """An on-premise workload profile considered for migration."""

    customer_id: str
    segment: int                       # latent generator segment (hidden)
    peak_vcores: float
    peak_memory_gb: float
    peak_iops: float
    utilization_headroom: float        # over-provisioning factor on-prem

    def effective_requirements(self) -> tuple[float, float, float]:
        """Right-sized needs: peaks corrected for on-prem over-provisioning."""
        factor = 1.0 / self.utilization_headroom
        return (
            self.peak_vcores * factor,
            self.peak_memory_gb * factor,
            self.peak_iops * factor,
        )


def peak_matrix(customers: Sequence[CustomerProfile]) -> np.ndarray:
    """The customers' (vcores, memory, iops) peaks, one float row each."""
    peaks = np.array(
        [[c.peak_vcores, c.peak_memory_gb, c.peak_iops] for c in customers]
    )
    if peaks.dtype.kind not in "biuf":
        raise TypeError(f"customer peaks must be numbers, not {peaks.dtype}")
    return peaks.astype(float, copy=False)


def feature_matrix(peaks: np.ndarray) -> np.ndarray:
    """Observable features of :func:`peak_matrix` rows: log-scaled peaks.

    The on-prem over-provisioning headroom is deliberately *not*
    observable — estimating the true right-sizing factor from
    comparable customers is exactly the problem Doppler's segment
    knowledge solves.
    """
    return np.log1p(peaks)


#: Latent segments: (vcore scale, memory-per-core, iops scale, headroom).
_SEGMENTS = (
    ("small-oltp", 2.0, 4.0, 500.0, 2.0),
    ("mid-oltp", 6.0, 5.0, 2000.0, 1.8),
    ("analytics", 14.0, 8.0, 3000.0, 1.5),
    ("io-heavy", 8.0, 5.0, 30000.0, 1.4),
    ("large-mixed", 24.0, 5.0, 9000.0, 1.6),
)


def generate_customers(
    n_customers: int = 500,
    rng: np.random.Generator | int | None = None,
) -> list[CustomerProfile]:
    """Draw customers from the latent segments with lognormal scatter."""
    if n_customers < 1:
        raise ValueError("n_customers must be >= 1")
    generator = np.random.default_rng(rng)
    customers = []
    for i in range(n_customers):
        seg = int(generator.integers(0, len(_SEGMENTS)))
        _, vcores, mem_per_core, iops, headroom = _SEGMENTS[seg]
        scatter = generator.lognormal(mean=0.0, sigma=0.25, size=3)
        peak_vcores = vcores * scatter[0]
        customers.append(
            CustomerProfile(
                customer_id=f"cust-{i:05d}",
                segment=seg,
                peak_vcores=peak_vcores,
                peak_memory_gb=peak_vcores * mem_per_core * scatter[1],
                peak_iops=iops * scatter[2],
                utilization_headroom=float(
                    np.clip(generator.normal(headroom, 0.15), 1.1, 3.0)
                ),
            )
        )
    return customers


def ground_truth_sku(
    customer: CustomerProfile, skus: tuple[Sku, ...] = AZURE_SKUS
) -> Sku:
    """The cheapest SKU covering the customer's effective requirements.

    Falls back to the largest SKU when nothing covers the requirements.
    """
    vcores, memory, iops = customer.effective_requirements()
    covering = [s for s in skus if s.covers(vcores, memory, iops)]
    if not covering:
        return max(skus, key=lambda s: s.price)
    return min(covering, key=lambda s: s.price)
