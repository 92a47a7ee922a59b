"""Time-series forecasting: the simple methods the paper actually deploys.

Seagull [40] reports that for servers with stable daily/weekly patterns a
previous-day heuristic already reaches 96% accuracy; Moneyball [41]
classifies 77% of serverless usage as predictable before forecasting.
This module provides the corresponding forecasters plus a
``predictability_score`` used to make the predictable/unpredictable call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import NotFittedError


def _as_series(values: np.ndarray) -> np.ndarray:
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValueError("series must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError("series contains non-finite values")
    return arr


class SeasonalNaiveForecaster:
    """Forecast each step as the value one season earlier.

    This is exactly the "previous day" heuristic from Seagull when the
    period equals one day of samples.
    """

    def __init__(self, period: int) -> None:
        if period < 1:
            raise ValueError("period must be >= 1")
        self.period = period
        self._history: np.ndarray | None = None

    def fit(self, series: np.ndarray) -> "SeasonalNaiveForecaster":
        arr = _as_series(series)
        if arr.size < self.period:
            raise ValueError(
                f"need at least one full period ({self.period}), got {arr.size}"
            )
        self._history = arr
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        if self._history is None:
            raise NotFittedError("forecaster is not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        last_season = self._history[-self.period :]
        reps = int(np.ceil(horizon / self.period))
        return np.tile(last_season, reps)[:horizon]


class MovingAverageForecaster:
    """Forecast a flat line at the mean of the last ``window`` samples."""

    def __init__(self, window: int = 24) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self._level: float | None = None

    def fit(self, series: np.ndarray) -> "MovingAverageForecaster":
        arr = _as_series(series)
        self._level = float(arr[-self.window :].mean())
        return self

    def forecast(self, horizon: int) -> np.ndarray:
        if self._level is None:
            raise NotFittedError("forecaster is not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        return np.full(horizon, self._level)


class HoltWinters:
    """Additive Holt-Winters (triple exponential smoothing)."""

    def __init__(
        self,
        period: int,
        alpha: float = 0.3,
        beta: float = 0.05,
        gamma: float = 0.2,
    ) -> None:
        if period < 2:
            raise ValueError("period must be >= 2")
        for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must be in (0, 1)")
        self.period = period
        self.alpha = alpha
        self.beta = beta
        self.gamma = gamma
        self._level: float | None = None
        self._trend: float = 0.0
        self._seasonal: np.ndarray | None = None

    def fit(self, series: np.ndarray) -> "HoltWinters":
        arr = _as_series(series)
        m = self.period
        if arr.size < 2 * m:
            raise ValueError(f"need at least two periods ({2 * m}), got {arr.size}")
        # Classical initialization from the first two seasons.
        season1 = arr[:m].mean()
        season2 = arr[m : 2 * m].mean()
        level = float(season1)
        trend = float((season2 - season1) / m)
        seasonal = (arr[:m] - season1).tolist()
        self._smooth(arr[m:].tolist(), m, level, trend, seasonal)
        return self

    def extend(self, series: np.ndarray) -> "HoltWinters":
        """Continue the fit over the samples of ``series`` past the fitted ones.

        ``series`` must start with the series this model was fitted (and
        extended) on; only its tail is read.  The result equals a fresh
        :meth:`fit` of ``series`` bit for bit.
        """
        if self._level is None:
            raise NotFittedError("forecaster is not fitted")
        arr = np.asarray(series, dtype=float).ravel()
        if arr.size < self._t:
            raise ValueError(
                f"series has {arr.size} samples, the fit covers {self._t}"
            )
        tail = arr[self._t :]
        if not np.all(np.isfinite(tail)):
            raise ValueError("series contains non-finite values")
        self._smooth(
            tail.tolist(),
            self._t,
            float(self._level),
            float(self._trend),
            self._seasonal.tolist(),
        )
        return self

    def _smooth(
        self,
        values: list[float],
        start: int,
        level: float,
        trend: float,
        seasonal: list[float],
    ) -> None:
        """Run the recursion over ``values`` (sample ``start`` onward)."""
        # The recursion runs on Python floats: the same IEEE operations
        # in the same order as on numpy scalars, without their dispatch.
        m = self.period
        alpha, beta, gamma = self.alpha, self.beta, self.gamma
        for t, value in enumerate(values, start):
            idx = t % m
            prev_level = level
            level = alpha * (value - seasonal[idx]) + (1 - alpha) * (
                level + trend
            )
            trend = beta * (level - prev_level) + (1 - beta) * trend
            seasonal[idx] = gamma * (value - level) + (1 - gamma) * seasonal[
                idx
            ]
        self._level = np.float64(level)
        self._trend = np.float64(trend)
        self._seasonal = np.array(seasonal)
        self._t = start + len(values)

    def forecast(self, horizon: int) -> np.ndarray:
        if self._level is None:
            raise NotFittedError("forecaster is not fitted")
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        steps = np.arange(1, horizon + 1)
        seasonal_idx = (self._t + steps - 1) % self.period
        return self._level + steps * self._trend + self._seasonal[seasonal_idx]


@dataclass
class Decomposition:
    """Result of :func:`seasonal_decompose`."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray


def seasonal_decompose(series: np.ndarray, period: int) -> Decomposition:
    """Additive decomposition: centered-MA trend + mean seasonal + residual."""
    arr = _as_series(series)
    if period < 2:
        raise ValueError("period must be >= 2")
    if arr.size < 2 * period:
        raise ValueError(f"need at least two periods ({2 * period}), got {arr.size}")
    kernel = np.ones(period) / period
    trend = np.convolve(arr, kernel, mode="same")
    detrended = arr - trend
    seasonal_means = np.array(
        [detrended[i::period].mean() for i in range(period)]
    )
    seasonal_means -= seasonal_means.mean()
    seasonal = np.tile(seasonal_means, int(np.ceil(arr.size / period)))[: arr.size]
    residual = arr - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


def predictability_score(series: np.ndarray, period: int) -> float:
    """Fraction of variance explained by a seasonal-naive one-period model.

    Mirrors the Moneyball-style predictable/unpredictable classification:
    a score near 1.0 means the series repeats its seasonal pattern almost
    exactly; near (or below) 0.0 means the seasonal model explains nothing.
    """
    arr = _as_series(series)
    if period < 1:
        raise ValueError("period must be >= 1")
    if arr.size < 2 * period:
        raise ValueError(f"need at least two periods ({2 * period}), got {arr.size}")
    predicted = arr[:-period]
    actual = arr[period:]
    ss_res = float(np.sum((actual - predicted) ** 2))
    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot
