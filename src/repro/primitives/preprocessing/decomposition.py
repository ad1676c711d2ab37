"""Seasonal-trend decomposition primitives.

The paper's discussion section (§5, "Addressing distribution shifts")
recommends feature-shift-elimination techniques such as STL-style
decomposition as additional preprocessing primitives, to handle signals —
like Yahoo's A4 subset — whose distribution changes over time. This module
provides that primitive: a moving-average seasonal-trend decomposition that
can remove the trend and/or the seasonal component before modeling, plus a
simple differencing detrender.
"""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError
from repro.primitives.preprocessing.channels import as_2d, as_fitted_2d

__all__ = ["SeasonalTrendDecomposition", "Differencing", "decompose"]


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge padding (odd or even windows)."""
    if window <= 1:
        return values.astype(float).copy()
    kernel = np.ones(window) / window
    pad_left = window // 2
    pad_right = window - 1 - pad_left
    padded = np.pad(values, (pad_left, pad_right), mode="edge")
    return np.convolve(padded, kernel, mode="valid")


def _estimate_period(values: np.ndarray, max_period: int = None) -> int:
    """Estimate the dominant period of a series from its autocorrelation."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    max_period = max_period or max(2, n // 3)
    centered = values - values.mean()
    if np.allclose(centered, 0):
        return max(2, n // 10)
    autocorr = np.correlate(centered, centered, mode="full")[n - 1:]
    autocorr /= autocorr[0]
    # The first local maximum after lag 1 is the dominant period.
    best_lag, best_value = 2, -np.inf
    for lag in range(2, min(max_period, n - 1)):
        if autocorr[lag] > best_value:
            best_lag, best_value = lag, autocorr[lag]
    return int(best_lag)


def decompose(values: np.ndarray, period: int = None):
    """Classical additive decomposition into trend, seasonal and residual.

    Args:
        values: 1D array of signal values.
        period: seasonal period in samples; estimated from the
            autocorrelation when omitted.

    Returns:
        A dict with ``trend``, ``seasonal``, ``residual`` and ``period``.
    """
    values = np.asarray(values, dtype=float).ravel()
    if len(values) < 4:
        raise ValueError("decompose needs at least 4 samples")
    if period is None:
        period = _estimate_period(values)
    period = int(period)
    if period < 2:
        period = 2

    trend = _moving_average(values, period)
    detrended = values - trend

    seasonal_means = np.zeros(period)
    for phase in range(period):
        seasonal_means[phase] = np.mean(detrended[phase::period])
    seasonal_means -= seasonal_means.mean()
    seasonal = np.tile(seasonal_means, len(values) // period + 1)[:len(values)]

    residual = values - trend - seasonal
    return {"trend": trend, "seasonal": seasonal, "residual": residual,
            "period": period}


@register_primitive
class SeasonalTrendDecomposition(Primitive):
    """Remove the trend and/or seasonal component of every channel.

    With ``remove_trend`` and ``remove_seasonality`` both enabled the output
    is the residual component — the signal with distribution shifts due to
    slow drifts or seasonality eliminated, which is what the paper's §5
    suggests for change-point-heavy data.
    """

    name = "stl_decomposition"
    engine = "preprocessing"
    description = "Moving-average seasonal-trend decomposition."
    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["X"]
    fixed_hyperparameters = {
        "period": None,
        "remove_trend": True,
        "remove_seasonality": False,
    }
    tunable_hyperparameters = {}

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._periods = None

    def fit(self, X):
        X = as_2d(self, X)
        periods = []
        for channel in range(X.shape[1]):
            column = _fill_nan(X[:, channel])
            if self.period is not None:
                periods.append(int(self.period))
            else:
                periods.append(_estimate_period(column))
        self._periods = periods

    def produce(self, X):
        if self._periods is None:
            X = as_2d(self, X)
            periods = [self.period or 2] * X.shape[1]
        else:
            X = as_fitted_2d(self, X, self._periods)
            periods = self._periods
        output = np.empty_like(X, dtype=float)
        for channel in range(X.shape[1]):
            column = _fill_nan(X[:, channel])
            parts = decompose(column, period=periods[channel])
            result = column.copy()
            if self.remove_trend:
                result = result - parts["trend"]
            if self.remove_seasonality:
                result = result - parts["seasonal"]
            output[:, channel] = result
        return {"X": output}


@register_primitive
class Differencing(Primitive):
    """First-order (or higher) differencing — a cheap shift eliminator."""

    name = "differencing"
    engine = "preprocessing"
    description = "Difference each channel to remove slow drifts."
    produce_args = ["X", "index"]
    produce_output = ["X", "index"]
    fixed_hyperparameters = {"order": 1}
    tunable_hyperparameters = {}

    def produce(self, X, index):
        X = as_2d(self, X)
        index = np.asarray(index)
        order = int(self.order)
        if order < 1:
            raise PrimitiveError("order must be at least 1")
        if len(X) <= order:
            raise PrimitiveError("Signal too short for the requested differencing")
        diffed = X.copy()
        for _ in range(order):
            diffed = np.diff(diffed, axis=0)
        return {"X": diffed, "index": index[order:]}


def _fill_nan(column: np.ndarray) -> np.ndarray:
    column = column.astype(float).copy()
    mask = np.isnan(column)
    if mask.any():
        fill = np.nanmean(column) if not mask.all() else 0.0
        column[mask] = fill
    return column
