"""Missing-value imputation primitives."""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.batch import shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError, PrimitiveError
from repro.primitives.preprocessing.channels import as_2d, as_fitted_2d

__all__ = ["SimpleImputer"]


@register_primitive
class SimpleImputer(Primitive):
    """Impute NaN values with a per-channel statistic.

    Mirrors scikit-learn's ``SimpleImputer`` as used in the paper's
    pipelines: by default the mean value of each channel (computed at fit
    time) replaces missing entries at produce time.
    """

    name = "SimpleImputer"
    engine = "preprocessing"
    description = "Impute missing values with a per-channel statistic."
    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["X"]
    fixed_hyperparameters = {"strategy": "mean", "fill_value": 0.0}
    tunable_hyperparameters = {}
    supports_batch = True
    fuse_category = "elementwise"

    _STRATEGIES = ("mean", "median", "constant")

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        if self.strategy not in self._STRATEGIES:
            raise PrimitiveError(
                f"Unknown imputation strategy {self.strategy!r}; "
                f"choose from {self._STRATEGIES}"
            )
        self._statistics = None

    def fit(self, X):
        X = as_2d(self, X)
        if self.strategy in ("mean", "median"):
            # All-NaN channels legitimately produce a NaN statistic here and
            # fall back to the constant fill value below; silence the
            # "mean of empty slice" warning numpy emits for that case.
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", category=RuntimeWarning)
                if self.strategy == "mean":
                    stats = np.nanmean(X, axis=0)
                else:
                    stats = np.nanmedian(X, axis=0)
        else:
            stats = np.full(X.shape[1], float(self.fill_value))
        # Channels that are entirely NaN fall back to the constant fill value.
        stats = np.where(np.isnan(stats), float(self.fill_value), stats)
        self._statistics = stats

    def produce(self, X):
        if self._statistics is None:
            raise NotFittedError("SimpleImputer must be fit before produce")
        X = as_fitted_2d(self, X, self._statistics).copy()
        for channel in range(X.shape[1]):
            column = X[:, channel]
            column[np.isnan(column)] = self._statistics[channel]
        return {"X": X}

    def produce_batch(self, X):
        """Impute a whole batch with one fused ``where`` per stackable group.

        Filling NaN slots replaces values without arithmetic, so the fused
        pass is trivially bitwise-identical to the per-signal loop.
        """
        if self._statistics is None:
            raise NotFittedError("SimpleImputer must be fit before produce")
        results = [None] * len(X)
        for indices, stacked in shape_groups(
                [as_fitted_2d(self, x, self._statistics) for x in X]):
            filled = np.where(np.isnan(stacked), self._statistics, stacked)
            for j, i in enumerate(indices):
                results[i] = filled[j]
        return {"X": results}
