"""Feature scaling primitives."""

from __future__ import annotations

import numpy as np

from repro.core.batch import shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError, PrimitiveError
from repro.primitives.preprocessing.channels import as_2d, as_fitted_2d

__all__ = ["MinMaxScaler", "StandardScaler"]


@register_primitive
class MinMaxScaler(Primitive):
    """Scale each channel linearly into ``feature_range`` (default [-1, 1]).

    In streaming mode the scaler is *rolling*: :meth:`update` expands the
    per-channel extrema with every micro-batch before scaling, so a live
    signal that wanders outside the training range keeps mapping into
    ``feature_range`` without a refit. On data inside the fitted range the
    output is identical to batch :meth:`produce`.
    """

    name = "MinMaxScaler"
    engine = "preprocessing"
    description = "Scale values into a fixed range per channel."
    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["X"]
    fixed_hyperparameters = {"feature_range": (-1.0, 1.0)}
    tunable_hyperparameters = {}
    supports_stream = True
    supports_batch = True
    fuse_category = "elementwise"

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        low, high = self.feature_range
        if low >= high:
            raise PrimitiveError("feature_range must be an increasing pair")
        self._min = None
        self._max = None
        self._scale = None

    def fit(self, X):
        X = as_2d(self, X)
        self._min = np.nanmin(X, axis=0)
        self._max = np.nanmax(X, axis=0)
        data_range = self._max - self._min
        data_range[data_range == 0] = 1.0
        self._scale = data_range

    def produce(self, X):
        if self._min is None:
            raise NotFittedError("MinMaxScaler must be fit before produce")
        X = as_fitted_2d(self, X, self._min)
        low, high = self.feature_range
        scaled = (X - self._min) / self._scale
        return {"X": scaled * (high - low) + low}

    def produce_batch(self, X):
        """Scale a whole batch in one fused pass per stackable group."""
        if self._min is None:
            raise NotFittedError("MinMaxScaler must be fit before produce")
        low, high = self.feature_range
        results = [None] * len(X)
        for indices, stacked in shape_groups(
                [as_fitted_2d(self, x, self._min) for x in X]):
            scaled = (stacked - self._min) / self._scale
            scaled = scaled * (high - low) + low
            for j, i in enumerate(indices):
                results[i] = scaled[j]
        return {"X": results}

    def update(self, X):
        """Fold a micro-batch into the rolling extrema, then scale it."""
        if self._min is None:
            raise NotFittedError("MinMaxScaler must be fit before update")
        X = as_fitted_2d(self, X, self._min)
        if len(X):
            self._min = np.fmin(self._min, np.nanmin(X, axis=0))
            self._max = np.fmax(self._max, np.nanmax(X, axis=0))
            data_range = self._max - self._min
            data_range[data_range == 0] = 1.0
            self._scale = data_range
        return self.produce(X)

    def inverse(self, X):
        """Map scaled values back to the original range."""
        if self._min is None:
            raise NotFittedError("MinMaxScaler must be fit before inverse")
        X = as_fitted_2d(self, X, self._min)
        low, high = self.feature_range
        return (X - low) / (high - low) * self._scale + self._min


@register_primitive
class StandardScaler(Primitive):
    """Standardize each channel to zero mean and unit variance.

    In streaming mode :meth:`update` folds each micro-batch into running
    per-channel moments (Chan et al.'s parallel combination), so the
    standardization tracks the live distribution without a refit. The
    stream runner hands ``update`` the whole sliding window every time, so
    the scaler aligns each window against the previous one and folds only
    the genuinely new rows — overlapping rows are never double-counted.
    """

    name = "StandardScaler"
    engine = "preprocessing"
    description = "Standardize values per channel (z-score)."
    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["X"]
    fixed_hyperparameters = {"with_mean": True, "with_std": True}
    tunable_hyperparameters = {}
    supports_stream = True
    supports_batch = True
    fuse_category = "elementwise"

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._mean = None
        self._std = None
        self._count = 0
        self._raw_mean = None
        self._raw_var = None
        self._prev_window = None

    def fit(self, X):
        X = as_2d(self, X)
        self._count = len(X)
        self._raw_mean = np.nanmean(X, axis=0)
        self._raw_var = np.nanvar(X, axis=0)
        self._prev_window = None
        self._refresh()

    def _refresh(self) -> None:
        """Derive the applied mean/std from the raw running moments."""
        channels = len(self._raw_mean)
        self._mean = self._raw_mean if self.with_mean else np.zeros(channels)
        if self.with_std:
            std = np.sqrt(self._raw_var).copy()
            std[std == 0] = 1.0
            self._std = std
        else:
            self._std = np.ones(channels)

    def produce(self, X):
        if self._mean is None:
            raise NotFittedError("StandardScaler must be fit before produce")
        X = as_fitted_2d(self, X, self._mean)
        return {"X": (X - self._mean) / self._std}

    def produce_batch(self, X):
        """Standardize a whole batch in one fused pass per stackable group."""
        if self._mean is None:
            raise NotFittedError("StandardScaler must be fit before produce")
        results = [None] * len(X)
        for indices, stacked in shape_groups(
                [as_fitted_2d(self, x, self._mean) for x in X]):
            scaled = (stacked - self._mean) / self._std
            for j, i in enumerate(indices):
                results[i] = scaled[j]
        return {"X": results}

    def _fresh_rows(self, X: np.ndarray) -> np.ndarray:
        """Rows of the new window not already seen in the previous one.

        Sliding windows overlap: the new window's prefix repeats the
        previous window's suffix. The largest such overlap is located by
        alignment, and only the trailing (genuinely new) rows are
        returned for folding.
        """
        previous = self._prev_window
        self._prev_window = X.copy()
        if previous is None:
            return X
        for overlap in range(min(len(previous), len(X)), 0, -1):
            if np.array_equal(X[:overlap], previous[len(previous) - overlap:],
                              equal_nan=True):
                return X[overlap:]
        return X

    def update(self, X):
        """Fold a window's new rows into the running moments, then scale."""
        if self._mean is None:
            raise NotFittedError("StandardScaler must be fit before update")
        X = as_fitted_2d(self, X, self._mean)
        fresh = self._fresh_rows(X)
        if len(fresh):
            batch_mean = np.nanmean(fresh, axis=0)
            batch_var = np.nanvar(fresh, axis=0)
            n_a, n_b = self._count, len(fresh)
            total = n_a + n_b
            delta = batch_mean - self._raw_mean
            self._raw_var = (
                (n_a * self._raw_var + n_b * batch_var) / total
                + delta ** 2 * n_a * n_b / total ** 2
            )
            self._raw_mean = self._raw_mean + delta * n_b / total
            self._count = total
            self._refresh()
        return self.produce(X)

    def inverse(self, X):
        """Map standardized values back to the original scale."""
        if self._mean is None:
            raise NotFittedError("StandardScaler must be fit before inverse")
        return as_fitted_2d(self, X, self._mean) * self._std + self._mean
