"""Error-calculation primitives (post-processing engine)."""

from __future__ import annotations

import numpy as np

from repro.core.batch import batched_ewma, shape_groups, smooth_errors
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError

__all__ = [
    "RegressionErrors",
    "ReconstructionErrors",
    "MultichannelRegressionErrors",
    "MultichannelReconstructionErrors",
    "smooth_errors",
]


def _overlapping_median(abs_error: np.ndarray, step: int) -> np.ndarray:
    """Per-position median of the errors of overlapping windows.

    ``abs_error`` is ``(n, k, w, m)``: ``n`` signals of ``k`` windows of
    ``w`` offsets over ``m`` channels, where offset ``t`` of window ``j``
    lands on position ``j * step + t``. Returns ``(n, length, m)`` holding,
    at every position, exactly what ``np.median`` returns over the errors
    of the windows covering it (0.0 where none does). The errors are
    scattered into an inf-padded matrix and sorted along the window axis,
    so each position's first ``count`` values are its own errors in order
    (NaN sorts last, past the padding): the middle one (odd count) or the
    mean of the middle two (even count) is ``np.median``'s value, and a
    NaN among them surfaces as the last sorted value, which ``np.median``
    returns.
    """
    n, k, w, m = abs_error.shape
    length = max(0, (k - 1) * step + w)
    offsets = np.arange(w)
    positions = np.arange(k)[:, np.newaxis] * step + offsets
    counts = np.bincount(positions.ravel(), minlength=length)
    collected = np.full((n, length, w, m), np.inf)
    collected[:, positions, offsets] = abs_error
    collected.sort(axis=2)

    def middle(rank):
        return np.take_along_axis(
            collected, rank[np.newaxis, :, np.newaxis, np.newaxis],
            axis=2)[:, :, 0]

    high = middle(counts // 2)
    low = middle(np.maximum(counts - 1, 0) // 2)
    even = (counts % 2 == 0)[:, np.newaxis]
    with np.errstate(over="ignore", invalid="ignore"):
        median = np.where(even, (low + high) / 2, high)
    last = collected[:, :, -1]
    median = np.where(np.isnan(last), last, median)
    median[:, counts == 0] = 0.0
    return median


def _point_index(index: np.ndarray, length: int, step: int) -> np.ndarray:
    """Timestamp of every reconstructed point.

    Window starts are spaced by ``step`` samples; the sampling interval is
    inferred from the window index.
    """
    if len(index) > 1:
        interval = (index[1] - index[0]) / step
    else:
        interval = 1
    return (index[0] + np.arange(length) * interval).astype(np.int64)


@register_primitive
class RegressionErrors(Primitive):
    """Point-wise absolute difference between the true and predicted signal.

    Reproduces ``regression_errors`` from the LSTM DT pipeline: the error at
    each target timestamp is ``|y - y_hat|``, optionally smoothed with an
    exponentially-weighted moving average so isolated prediction glitches do
    not dominate the dynamic threshold.
    """

    name = "regression_errors"
    engine = "postprocessing"
    description = "Absolute point-wise prediction errors with EWMA smoothing."
    produce_args = ["y", "y_hat"]
    produce_output = ["errors"]
    fixed_hyperparameters = {"smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }
    supports_batch = True
    fuse_category = "elementwise"

    def produce(self, y, y_hat):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        if y.shape[0] != y_hat.shape[0]:
            raise PrimitiveError("y and y_hat must have the same number of samples")

        true = y.reshape(len(y), -1)[:, 0]
        pred = y_hat.reshape(len(y_hat), -1)[:, 0]
        errors = np.abs(true - pred)
        if self.smooth:
            errors = smooth_errors(errors, int(self.smoothing_window))
        return {"errors": errors}

    def produce_batch(self, y, y_hat):
        """Score a whole batch: stacked absolute errors + batched EWMA."""
        pairs = []
        for y_i, y_hat_i in zip(y, y_hat):
            y_i = np.asarray(y_i, dtype=float)
            y_hat_i = np.asarray(y_hat_i, dtype=float)
            if y_i.shape[0] != y_hat_i.shape[0]:
                raise PrimitiveError(
                    "y and y_hat must have the same number of samples")
            pairs.append((y_i.reshape(len(y_i), -1)[:, 0],
                          y_hat_i.reshape(len(y_hat_i), -1)[:, 0]))
        results = [None] * len(pairs)
        for indices, stacked in shape_groups(
                [np.stack(pair) for pair in pairs]):
            errors = np.abs(stacked[:, 0] - stacked[:, 1])
            if self.smooth:
                errors = batched_ewma(errors, int(self.smoothing_window))
            for j, i in enumerate(indices):
                results[i] = errors[j]
        return {"errors": results}


@register_primitive
class ReconstructionErrors(Primitive):
    """Point-wise reconstruction error aggregated over overlapping windows.

    Reconstruction pipelines (LSTM AE, Dense AE, TadGAN) reconstruct every
    rolling window; the error at a given time step is the median absolute
    difference across all windows covering that step, which is then smoothed.
    """

    name = "reconstruction_errors"
    engine = "postprocessing"
    description = "Median absolute reconstruction error per time step."
    produce_args = ["y", "y_hat", "index"]
    produce_output = ["errors", "index"]
    fixed_hyperparameters = {"step_size": 1, "smooth": True, "aggregation": "median"}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }
    supports_batch = True
    fuse_category = "elementwise"

    def produce(self, y, y_hat, index):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        index = np.asarray(index)
        if y.shape != y_hat.shape:
            y_hat = y_hat.reshape(y.shape)
        if y.ndim == 2:
            y = y[..., np.newaxis]
            y_hat = y_hat[..., np.newaxis]
        if y.ndim != 3:
            raise PrimitiveError("reconstruction_errors expects windowed inputs")
        if len(index) != len(y):
            raise PrimitiveError("index must have one entry per window")

        n_windows, window_size, _ = y.shape
        step = int(self.step_size)
        length = (n_windows - 1) * step + window_size
        abs_error = np.abs(y[..., 0] - y_hat[..., 0])

        collected = [[] for _ in range(length)]
        for w in range(n_windows):
            offset = w * step
            for t in range(window_size):
                collected[offset + t].append(abs_error[w, t])

        if self.aggregation == "mean":
            aggregate = np.mean
        else:
            aggregate = np.median
        errors = np.array([aggregate(values) if values else 0.0 for values in collected])

        if self.smooth:
            errors = smooth_errors(errors, int(self.smoothing_window))

        return {"errors": errors, "index": _point_index(index, length, step)}

    def produce_batch(self, y, y_hat, index):
        """Aggregate reconstruction errors with one vectorized median.

        Signals of one shape share one :func:`_overlapping_median` call,
        which returns exactly the per-position ``np.median`` of
        :meth:`produce` (NaN errors included). Mean aggregation keeps the
        per-signal loop: a vectorized sum would change the summation
        order.
        """
        if self.aggregation == "mean":
            return super().produce_batch(y=y, y_hat=y_hat, index=index)
        abs_errors, indexes = [], []
        for y_i, y_hat_i, index_i in zip(y, y_hat, index):
            y_i = np.asarray(y_i, dtype=float)
            y_hat_i = np.asarray(y_hat_i, dtype=float)
            index_i = np.asarray(index_i)
            if y_i.shape != y_hat_i.shape:
                y_hat_i = y_hat_i.reshape(y_i.shape)
            if y_i.ndim == 2:
                y_i = y_i[..., np.newaxis]
                y_hat_i = y_hat_i[..., np.newaxis]
            if y_i.ndim != 3:
                raise PrimitiveError("reconstruction_errors expects windowed inputs")
            if len(index_i) != len(y_i):
                raise PrimitiveError("index must have one entry per window")
            abs_errors.append(np.abs(y_i[..., 0] - y_hat_i[..., 0]))
            indexes.append(index_i)

        size = len(abs_errors)
        out = {"errors": [None] * size, "index": [None] * size}
        step = int(self.step_size)
        for indices, abs_error in shape_groups(abs_errors):
            errors = _overlapping_median(abs_error[..., np.newaxis], step)[..., 0]
            if self.smooth:
                errors = batched_ewma(errors, int(self.smoothing_window))
            for j, i in enumerate(indices):
                out["errors"][i] = errors[j]
                out["index"][i] = _point_index(indexes[i], errors.shape[1], step)
        return out


@register_primitive
class MultichannelRegressionErrors(Primitive):
    """Per-channel and joint prediction errors for multivariate signals.

    The multivariate counterpart of :class:`RegressionErrors`: ``y`` holds
    every channel's true next values (``(k, target_size, m)``, produced by
    ``rolling_window_sequences`` with ``target_column="all"``) and
    ``y_hat`` the model's flat predictions. The primitive scores the first
    target step of every channel — exactly what the univariate primitive
    does for its single column — yielding:

    * ``channel_errors`` — ``(k, m)`` smoothed per-channel absolute errors,
      consumed downstream by the channel-attribution step;
    * ``errors`` — the joint 1D error (mean across channels), which the
      thresholding primitives consume unchanged.
    """

    name = "multichannel_regression_errors"
    engine = "postprocessing"
    description = "Per-channel + joint absolute prediction errors."
    produce_args = ["y", "y_hat"]
    produce_output = ["errors", "channel_errors"]
    fixed_hyperparameters = {"smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }

    def produce(self, y, y_hat):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        if y.shape[0] != y_hat.shape[0]:
            raise PrimitiveError("y and y_hat must have the same number of samples")
        if y.ndim == 2:
            # (k, m): a single target step per channel.
            y = y[:, np.newaxis, :]
        if y.ndim != 3:
            raise PrimitiveError(
                "multichannel_regression_errors expects (k, target_size, m) "
                "targets; use regression_errors for univariate pipelines"
            )
        y_hat = y_hat.reshape(y.shape)

        # First target step of every channel, |true - predicted|: (k, m).
        channel_errors = np.abs(y[:, 0, :] - y_hat[:, 0, :])
        if self.smooth:
            window = int(self.smoothing_window)
            channel_errors = np.column_stack([
                smooth_errors(channel_errors[:, c], window)
                for c in range(channel_errors.shape[1])
            ])
        errors = channel_errors.mean(axis=1)
        return {"errors": errors, "channel_errors": channel_errors}


@register_primitive
class MultichannelReconstructionErrors(Primitive):
    """Per-channel and joint reconstruction errors for multivariate signals.

    The multivariate counterpart of :class:`ReconstructionErrors`: every
    channel's point-wise error is the median absolute reconstruction
    difference across all windows covering that time step, and the joint
    error (mean across channels) feeds the thresholding step.
    """

    name = "multichannel_reconstruction_errors"
    engine = "postprocessing"
    description = "Per-channel + joint median reconstruction errors."
    produce_args = ["y", "y_hat", "index"]
    produce_output = ["errors", "channel_errors", "index"]
    fixed_hyperparameters = {"step_size": 1, "smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }

    def produce(self, y, y_hat, index):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        index = np.asarray(index)
        if y.shape != y_hat.shape:
            y_hat = y_hat.reshape(y.shape)
        if y.ndim != 3:
            raise PrimitiveError(
                "multichannel_reconstruction_errors expects (k, window, m) "
                "inputs; use reconstruction_errors for univariate pipelines"
            )
        if len(index) != len(y):
            raise PrimitiveError("index must have one entry per window")

        n_channels = y.shape[2]
        step = int(self.step_size)
        # Per-position median over the windows covering it, per channel.
        channel_errors = _overlapping_median(
            np.abs(y - y_hat)[np.newaxis], step)[0]  # (length, m)

        if self.smooth:
            window = int(self.smoothing_window)
            channel_errors = np.column_stack([
                smooth_errors(channel_errors[:, c], window)
                for c in range(n_channels)
            ])
        errors = channel_errors.mean(axis=1)
        return {"errors": errors, "channel_errors": channel_errors,
                "index": _point_index(index, len(errors), step)}
