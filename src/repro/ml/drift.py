"""Drift detection for deployed models (Insight 3: feedback loop).

Workload patterns change over time due to data or concept drift, and
"regression is a genuine concern" (Section 4.2).  These detectors feed the
monitoring half of the feedback loop in :mod:`repro.core.feedback`.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

import numpy as np


class DriftDetector(Protocol):
    """A detector consumes one observation at a time and reports drift."""

    def update(self, value: float) -> bool:
        """Feed one observation; return True if drift is detected."""
        ...

    def reset(self) -> None:
        """Clear detector state (called after a model retrain/rollback)."""
        ...


class PageHinkley:
    """Page-Hinkley test for upward mean shift in a stream.

    Detects when the cumulative deviation of observations above their
    running mean exceeds ``threshold``.  ``delta`` is the magnitude of
    tolerated change.
    """

    def __init__(self, delta: float = 0.005, threshold: float = 5.0) -> None:
        if threshold <= 0:
            raise ValueError("threshold must be positive")
        self.delta = delta
        self.threshold = threshold
        self.reset()

    def reset(self) -> None:
        self._count = 0
        self._mean = 0.0
        self._cumulative = 0.0
        self._min_cumulative = 0.0

    def update(self, value: float) -> bool:
        self._count += 1
        self._mean += (value - self._mean) / self._count
        self._cumulative += value - self._mean - self.delta
        self._min_cumulative = min(self._min_cumulative, self._cumulative)
        return (self._cumulative - self._min_cumulative) > self.threshold


class WindowedKSDetector:
    """Two-sample Kolmogorov-Smirnov test between a reference and a window.

    The reference window is frozen at construction-time size; subsequent
    observations fill a sliding current window, and drift is flagged when
    the KS test rejects distributional equality at ``p_value``.
    """

    def __init__(self, window: int = 50, p_value: float = 0.01) -> None:
        if window < 5:
            raise ValueError("window must be >= 5")
        if not 0.0 < p_value < 1.0:
            raise ValueError("p_value must be in (0, 1)")
        self.window = window
        self.p_value = p_value
        self.reset()

    def reset(self) -> None:
        self._reference: list[float] = []
        self._current: deque[float] = deque(maxlen=self.window)

    def update(self, value: float) -> bool:
        if len(self._reference) < self.window:
            self._reference.append(float(value))
            return False
        self._current.append(float(value))
        if len(self._current) < self.window:
            return False
        from scipy import stats

        statistic = stats.ks_2samp(
            np.asarray(self._reference), np.asarray(self._current)
        )
        return bool(statistic.pvalue < self.p_value)
