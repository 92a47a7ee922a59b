"""Tests for forecasting and predictability scoring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml import (
    HoltWinters,
    MovingAverageForecaster,
    NotFittedError,
    SeasonalNaiveForecaster,
    predictability_score,
    seasonal_decompose,
)


def seasonal_series(n_periods=10, period=24, noise=0.0, trend=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n_periods * period)
    pattern = np.sin(2 * np.pi * t / period)
    return 10 + trend * t + 3 * pattern + rng.normal(scale=noise, size=t.size)


class TestSeasonalNaive:
    def test_repeats_last_season_exactly(self):
        series = seasonal_series(noise=0.0)
        model = SeasonalNaiveForecaster(period=24).fit(series)
        forecast = model.forecast(24)
        np.testing.assert_allclose(forecast, series[-24:])

    def test_forecast_tiles_beyond_one_period(self):
        series = np.tile(np.arange(4.0), 3)
        model = SeasonalNaiveForecaster(period=4).fit(series)
        np.testing.assert_allclose(model.forecast(10), np.tile(np.arange(4.0), 3)[:10])

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="full period"):
            SeasonalNaiveForecaster(period=24).fit(np.ones(10))

    def test_unfit_forecast_raises(self):
        with pytest.raises(NotFittedError):
            SeasonalNaiveForecaster(period=2).forecast(1)

    def test_invalid_horizon(self):
        model = SeasonalNaiveForecaster(period=2).fit(np.ones(4))
        with pytest.raises(ValueError):
            model.forecast(0)


class TestMovingAverage:
    def test_constant_series(self):
        model = MovingAverageForecaster(window=5).fit(np.full(20, 7.0))
        np.testing.assert_allclose(model.forecast(3), np.full(3, 7.0))

    def test_uses_only_last_window(self):
        series = np.concatenate([np.zeros(10), np.full(5, 10.0)])
        model = MovingAverageForecaster(window=5).fit(series)
        assert model.forecast(1)[0] == pytest.approx(10.0)


class TestHoltWinters:
    def test_captures_seasonality(self):
        series = seasonal_series(noise=0.1)
        model = HoltWinters(period=24).fit(series)
        forecast = model.forecast(24)
        truth = seasonal_series(n_periods=11)[-24:]
        assert np.corrcoef(forecast, truth)[0, 1] > 0.95

    def test_captures_trend(self):
        series = seasonal_series(noise=0.0, trend=0.05)
        model = HoltWinters(period=24).fit(series)
        forecast = model.forecast(48)
        # Second forecast period should sit above the first (upward trend).
        assert forecast[24:].mean() > forecast[:24].mean()

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="two periods"):
            HoltWinters(period=24).fit(np.ones(30))

    def test_invalid_smoothing_params(self):
        for bad in ({"alpha": 0.0}, {"beta": 1.0}, {"gamma": -0.1}):
            with pytest.raises(ValueError):
                HoltWinters(period=4, **bad)

    @given(
        period=st.integers(2, 30),
        extra=st.integers(0, 60),
        smoothing=st.tuples(
            *[st.floats(0.001, 0.999, allow_nan=False)] * 3
        ),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_float_recursion_equals_numpy_scalar_recursion(
        self, period, extra, smoothing, data
    ):
        n = 2 * period + extra
        series = np.asarray(
            data.draw(
                st.lists(
                    st.floats(-1e6, 1e6, allow_nan=False),
                    min_size=n,
                    max_size=n,
                )
            )
        )
        alpha, beta, gamma = smoothing
        model = HoltWinters(period, alpha, beta, gamma).fit(series)
        level, trend, seasonal = _numpy_scalar_fit(
            series, period, alpha, beta, gamma
        )
        assert model._level == level and type(model._level) is type(level)
        assert model._trend == trend
        assert np.array_equal(model._seasonal, seasonal)
        assert model._seasonal.dtype == seasonal.dtype
        steps = np.arange(1, 25)
        want = level + steps * trend + seasonal[(n + steps - 1) % period]
        assert np.array_equal(model.forecast(24), want)


def _numpy_scalar_fit(arr, m, alpha, beta, gamma):
    """The Holt-Winters recursion on numpy scalars, as it first ran."""
    season1 = arr[:m].mean()
    season2 = arr[m : 2 * m].mean()
    level = season1
    trend = (season2 - season1) / m
    seasonal = arr[:m] - season1
    for t in range(m, arr.size):
        value = arr[t]
        idx = t % m
        prev_level = level
        level = alpha * (value - seasonal[idx]) + (1 - alpha) * (level + trend)
        trend = beta * (level - prev_level) + (1 - beta) * trend
        seasonal[idx] = gamma * (value - level) + (1 - gamma) * seasonal[idx]
    return level, trend, seasonal


class TestDecompose:
    def test_components_sum_to_series(self):
        series = seasonal_series(noise=0.5)
        d = seasonal_decompose(series, period=24)
        np.testing.assert_allclose(d.trend + d.seasonal + d.residual, series)

    def test_seasonal_component_zero_mean(self):
        d = seasonal_decompose(seasonal_series(), period=24)
        assert abs(d.seasonal[:24].mean()) < 1e-8

    def test_recovers_sine_pattern(self):
        d = seasonal_decompose(seasonal_series(noise=0.0), period=24)
        t = np.arange(24)
        expected = 3 * np.sin(2 * np.pi * t / 24)
        # interior period, away from convolution edge effects
        assert np.corrcoef(d.seasonal[24:48], expected)[0, 1] > 0.99


class TestPredictability:
    def test_perfect_seasonal_series_scores_one(self):
        series = np.tile(np.arange(24.0), 5)
        assert predictability_score(series, period=24) == pytest.approx(1.0)

    def test_white_noise_scores_low(self):
        rng = np.random.default_rng(0)
        series = rng.normal(size=240)
        assert predictability_score(series, period=24) < 0.3

    def test_noisier_series_scores_lower(self):
        clean = predictability_score(seasonal_series(noise=0.1, seed=1), 24)
        noisy = predictability_score(seasonal_series(noise=3.0, seed=1), 24)
        assert noisy < clean

    def test_constant_series_scores_one(self):
        assert predictability_score(np.full(100, 5.0), period=10) == 1.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_score_at_most_one(self, seed):
        rng = np.random.default_rng(seed)
        series = rng.normal(size=100)
        assert predictability_score(series, period=10) <= 1.0


class TestHoltWintersExtend:
    @given(
        period=st.integers(2, 30),
        extra=st.integers(0, 60),
        chunks=st.lists(st.integers(0, 50), min_size=1, max_size=5),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_extend_equals_a_fresh_fit(self, period, extra, chunks, seed):
        rng = np.random.default_rng(seed)
        n = 2 * period + extra
        series = rng.normal(scale=rng.uniform(0.1, 1e4), size=n + sum(chunks))
        model = HoltWinters(period, 0.3, 0.05, 0.2).fit(series[:n])
        for size in chunks:
            n += size
            assert model.extend(series[:n]) is model
            fresh = HoltWinters(period, 0.3, 0.05, 0.2).fit(series[:n])
            assert model._level == fresh._level
            assert type(model._level) is type(fresh._level)
            assert model._trend == fresh._trend
            assert model._t == fresh._t
            assert np.array_equal(model._seasonal, fresh._seasonal)
            assert np.array_equal(model.forecast(30), fresh.forecast(30))

    def test_extend_needs_a_fit_covering_no_more_than_the_series(self):
        series = seasonal_series(n_periods=4, period=24)
        with pytest.raises(NotFittedError):
            HoltWinters(period=24).extend(series)
        model = HoltWinters(period=24).fit(series)
        with pytest.raises(ValueError, match="covers"):
            model.extend(series[:-1])

    def test_extend_rejects_a_non_finite_tail_and_keeps_the_fit(self):
        series = seasonal_series(n_periods=4, period=24)
        model = HoltWinters(period=24).fit(series)
        before = model.forecast(24)
        with pytest.raises(ValueError, match="non-finite"):
            model.extend(np.append(series, np.nan))
        assert np.array_equal(model.forecast(24), before)
