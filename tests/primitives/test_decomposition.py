"""Tests for the decomposition and change-point preprocessing primitives."""

import numpy as np
import pytest

from repro.exceptions import PrimitiveError
from repro.primitives.preprocessing import (
    ChangePointSegmenter,
    Differencing,
    SeasonalTrendDecomposition,
    decompose,
    detect_change_points,
)


def _seasonal_series(length=300, period=25, trend=0.02, noise=0.05, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return (trend * t + np.sin(2 * np.pi * t / period)
            + rng.normal(0, noise, length))


class TestDecompose:
    def test_components_sum_to_signal(self):
        values = _seasonal_series()
        parts = decompose(values, period=25)
        reconstruction = parts["trend"] + parts["seasonal"] + parts["residual"]
        assert np.allclose(reconstruction, values, atol=1e-9)

    def test_trend_captures_linear_drift(self):
        values = _seasonal_series(trend=0.05, noise=0.0)
        parts = decompose(values, period=25)
        # The trend at the end should exceed the trend at the start by
        # roughly the injected drift over the full span.
        assert parts["trend"][-1] - parts["trend"][0] > 10.0

    def test_seasonal_component_is_periodic(self):
        values = _seasonal_series(noise=0.0, trend=0.0)
        parts = decompose(values, period=25)
        seasonal = parts["seasonal"]
        assert np.allclose(seasonal[:25], seasonal[25:50], atol=1e-9)

    def test_period_estimated_when_missing(self):
        values = _seasonal_series(noise=0.0, trend=0.0, period=20)
        parts = decompose(values)
        assert 2 <= parts["period"] <= len(values) // 2

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            decompose(np.zeros(3))


class TestSeasonalTrendDecompositionPrimitive:
    def test_removes_trend(self):
        values = _seasonal_series(trend=0.05).reshape(-1, 1)
        primitive = SeasonalTrendDecomposition(period=25, remove_trend=True)
        primitive.fit(X=values)
        out = primitive.produce(X=values)["X"]
        # After detrending, the start and end of the signal have similar levels.
        assert abs(np.mean(out[:50]) - np.mean(out[-50:])) < 1.0
        assert abs(np.mean(values[-50:]) - np.mean(values[:50])) > 5.0

    def test_removes_seasonality(self):
        values = _seasonal_series(trend=0.0, noise=0.01).reshape(-1, 1)
        primitive = SeasonalTrendDecomposition(period=25, remove_trend=False,
                                               remove_seasonality=True)
        primitive.fit(X=values)
        out = primitive.produce(X=values)["X"]
        assert np.std(out) < np.std(values) * 0.6

    def test_handles_nan_values(self):
        values = _seasonal_series().reshape(-1, 1)
        values[10:15] = np.nan
        primitive = SeasonalTrendDecomposition(period=25)
        primitive.fit(X=values)
        out = primitive.produce(X=values)["X"]
        assert out.shape == values.shape

    def test_produce_without_fit_uses_defaults(self):
        values = _seasonal_series().reshape(-1, 1)
        primitive = SeasonalTrendDecomposition(period=25)
        out = primitive.produce(X=values)["X"]
        assert out.shape == values.shape

    def test_rejects_a_channel_count_it_was_not_fitted_on(self):
        values = np.sin(np.arange(200) / 8.0).reshape(-1, 1)
        primitive = SeasonalTrendDecomposition()
        primitive.fit(X=values)
        with pytest.raises(PrimitiveError, match=(
                r"^stl_decomposition was fitted on 1 channels but "
                r"received 2$")):
            primitive.produce(X=np.hstack([values, values]))


class TestDifferencing:
    def test_first_order_removes_linear_trend(self):
        values = np.arange(100.0).reshape(-1, 1)
        out = Differencing(order=1).produce(X=values, index=np.arange(100))
        assert np.allclose(out["X"], 1.0)
        assert len(out["index"]) == 99

    def test_second_order(self):
        values = (np.arange(50.0) ** 2).reshape(-1, 1)
        out = Differencing(order=2).produce(X=values, index=np.arange(50))
        assert np.allclose(out["X"], 2.0)

    def test_invalid_order_rejected(self):
        with pytest.raises(PrimitiveError):
            Differencing(order=0).produce(X=np.zeros((10, 1)), index=np.arange(10))

    def test_too_short_signal_rejected(self):
        with pytest.raises(PrimitiveError):
            Differencing(order=5).produce(X=np.zeros((3, 1)), index=np.arange(3))


class TestDetectChangePoints:
    def test_single_level_shift_found(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 0.2, 150), rng.normal(4, 0.2, 150)])
        change_points = detect_change_points(values, min_size=20)
        assert len(change_points) >= 1
        assert abs(change_points[0] - 150) <= 10

    def test_two_shifts_found(self):
        rng = np.random.default_rng(1)
        values = np.concatenate([
            rng.normal(0, 0.2, 120),
            rng.normal(5, 0.2, 120),
            rng.normal(-3, 0.2, 120),
        ])
        change_points = detect_change_points(values, min_size=20, max_changes=5)
        assert len(change_points) == 2

    def test_stationary_signal_has_none(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1.0, 400)
        assert detect_change_points(values, min_size=20) == []

    def test_short_signal_has_none(self):
        assert detect_change_points(np.zeros(10), min_size=10) == []

    def test_max_changes_respected(self):
        rng = np.random.default_rng(3)
        segments = [rng.normal(level * 5, 0.2, 60) for level in range(6)]
        values = np.concatenate(segments)
        change_points = detect_change_points(values, min_size=15, max_changes=2)
        assert len(change_points) <= 2


class TestChangePointSegmenter:
    def test_level_shift_removed(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([rng.normal(0, 0.2, 150), rng.normal(6, 0.2, 150)])
        out = ChangePointSegmenter(min_size=20).produce(
            X=values.reshape(-1, 1), index=np.arange(300)
        )
        adjusted = out["X"][:, 0]
        assert abs(np.mean(adjusted[:150]) - np.mean(adjusted[150:])) < 0.5
        assert len(out["change_points"]) >= 1

    def test_stationary_signal_unchanged(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0, 1.0, 300).reshape(-1, 1)
        out = ChangePointSegmenter(min_size=20).produce(X=values,
                                                        index=np.arange(300))
        assert np.allclose(out["X"], values)
        assert len(out["change_points"]) == 0

    def test_change_points_expressed_in_timestamps(self):
        rng = np.random.default_rng(2)
        values = np.concatenate([rng.normal(0, 0.2, 100), rng.normal(5, 0.2, 100)])
        index = np.arange(200) * 60 + 1_000_000
        out = ChangePointSegmenter(min_size=20).produce(
            X=values.reshape(-1, 1), index=index
        )
        for timestamp in out["change_points"]:
            assert timestamp in index

    def test_length_mismatch_rejected(self):
        with pytest.raises(PrimitiveError):
            ChangePointSegmenter().produce(X=np.zeros((10, 1)), index=np.arange(5))

    def test_registered_in_primitive_catalog(self):
        from repro.core.primitive import list_primitives

        names = list_primitives(engine="preprocessing")
        assert "change_point_segmenter" in names
        assert "stl_decomposition" in names
        assert "differencing" in names
