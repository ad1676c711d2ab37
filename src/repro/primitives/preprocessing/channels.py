"""Array coercion shared by the preprocessing primitives."""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive
from repro.exceptions import PrimitiveError

__all__ = ["as_2d", "as_fitted_2d"]


def as_2d(primitive: Primitive, X) -> np.ndarray:
    """``X`` as a float ``(rows, channels)`` array; a 1D ``X`` is one channel."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise PrimitiveError(f"{primitive.name} expects a 1D or 2D array")
    return X


def as_fitted_2d(primitive: Primitive, X, fitted: np.ndarray) -> np.ndarray:
    """``X`` as a 2D array with as many channels as the ``fitted`` statistic."""
    X = as_2d(primitive, X)
    if X.shape[1] != len(fitted):
        raise PrimitiveError(
            f"{primitive.name} was fitted on {len(fitted)} channels but "
            f"received {X.shape[1]}"
        )
    return X
