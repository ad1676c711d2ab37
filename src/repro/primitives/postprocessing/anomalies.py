"""Anomaly-extraction primitives (post-processing engine).

``find_anomalies`` implements the non-parametric dynamic thresholding of
Hundman et al. (KDD 2018), which the paper's LSTM DT pipeline uses: errors
are examined in sliding windows, a threshold ``mean + z * std`` is selected
to maximize the drop in mean/std it causes relative to the number of
anomalous points and sequences it creates, contiguous above-threshold
regions become candidate anomalies, and low-severity candidates are pruned.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.batch import find_sequences_mask, shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError

__all__ = ["FindAnomalies", "FixedThreshold"]


def _find_sequences(above: np.ndarray) -> List[Tuple[int, int]]:
    """Return inclusive (start, end) index pairs of contiguous True runs.

    Reference implementation: production code uses the vectorized
    :func:`repro.core.batch.find_sequences_mask`, which the test suite
    pins as index-exact against this scan.
    """
    sequences = []
    start = None
    for i, flag in enumerate(above):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            sequences.append((start, i - 1))
            start = None
    if start is not None:
        sequences.append((start, len(above) - 1))
    return sequences


#: Why a window whose errors average exactly 0.0 cannot be thresholded:
#: every candidate's score divides by the window mean.
_ZERO_MEAN_WINDOW = ("find_anomalies cannot score a threshold for a window "
                     "whose errors have a mean of 0.0 and a nonzero std "
                     "(float division by zero)")


def _select_epsilon(errors: np.ndarray, z_range: Tuple[float, float]) -> float:
    """Select the error threshold that best separates anomalous points.

    For each candidate ``z`` the threshold ``mean + z * std`` is scored by
    how much removing above-threshold points reduces the mean and standard
    deviation, penalized by the number of anomalous points and sequences it
    creates (Hundman et al., eq. 4). Scoring a candidate in a window whose
    mean is 0.0 raises a :class:`~repro.exceptions.PrimitiveError`.
    """
    mean = float(np.mean(errors))
    std = float(np.std(errors))
    if std == 0.0:
        return mean

    best_epsilon = mean + float(z_range[1]) * std
    best_score = -np.inf

    for z in np.arange(z_range[0], z_range[1] + 0.5, 0.5):
        epsilon = mean + z * std
        above = errors > epsilon
        n_above = int(np.sum(above))
        if n_above == 0:
            continue
        below = errors[~above]
        if len(below) == 0:
            continue
        delta_mean = mean - float(np.mean(below))
        delta_std = std - float(np.std(below))
        n_sequences = len(find_sequences_mask(above))
        if mean == 0.0:
            raise PrimitiveError(_ZERO_MEAN_WINDOW)
        score = (delta_mean / mean + delta_std / std) / (n_above + n_sequences ** 2)
        if score > best_score:
            best_score = score
            best_epsilon = epsilon

    return best_epsilon


#: Upper bound on the booleans one candidate-counting block holds.
_COUNT_BLOCK = 1 << 20


def _select_epsilons(windows: np.ndarray,
                     z_range: Tuple[float, float]) -> np.ndarray:
    """:func:`_select_epsilon` for every row of ``windows`` at once.

    Bitwise-equal per row to the scalar scan. Row-wise means and standard
    deviations and every candidate's ``mean + z * std`` come from one pass,
    and the above-threshold counts of all candidates from one comparison
    (in blocks of at most :data:`_COUNT_BLOCK` booleans). Only candidates
    the scan scores (``0 < n_above < width``) get their run count and the
    moments of their below-threshold values, computed row-wise over the
    candidates that keep equally many values. The scan keeps a candidate
    only if its score beats every earlier one, so the first maximum of
    the non-NaN scores above ``-inf`` wins. A zero mean in a row with a
    scored candidate raises the scan's :class:`~repro.exceptions.PrimitiveError`.
    """
    rows, width = windows.shape
    mean = np.mean(windows, axis=1)
    std = np.std(windows, axis=1)
    epsilons = (mean[:, np.newaxis]
                + np.arange(z_range[0], z_range[1] + 0.5, 0.5)
                * std[:, np.newaxis])
    n_above = np.empty(epsilons.shape, dtype=np.intp)
    block = max(1, _COUNT_BLOCK // (epsilons.shape[1] * width))
    for begin in range(0, rows, block):
        part = slice(begin, begin + block)
        n_above[part] = np.count_nonzero(
            windows[part, np.newaxis] > epsilons[part, :, np.newaxis], axis=2)
    row, column = np.nonzero((n_above > 0) & (n_above < width)
                             & (std != 0.0)[:, np.newaxis])
    scores = np.full(epsilons.shape, -np.inf)
    if len(row):
        if np.any(mean[row] == 0.0):
            raise PrimitiveError(_ZERO_MEAN_WINDOW)
        above = windows[row] > epsilons[row, column][:, np.newaxis]
        n_sequences = above[:, 0] + np.count_nonzero(
            above[:, 1:] & ~above[:, :-1], axis=1)
        count = n_above[row, column]
        below_mean = np.empty(len(row))
        below_std = np.empty(len(row))
        for size in np.unique(width - count):
            pick = width - count == size
            below = windows[row[pick]][~above[pick]].reshape(-1, size)
            below_mean[pick] = np.mean(below, axis=1)
            below_std[pick] = np.std(below, axis=1)
        with np.errstate(all="ignore"):
            score = (((mean[row] - below_mean) / mean[row]
                      + (std[row] - below_std) / std[row])
                     / (count + n_sequences ** 2))
        scores[row, column] = np.where(np.isnan(score), -np.inf, score)
    best = np.argmax(scores, axis=1)
    everything = np.arange(rows)
    fallback = np.where(std == 0.0, mean, mean + float(z_range[1]) * std)
    return np.where(scores[everything, best] > -np.inf,
                    epsilons[everything, best], fallback)


def _validate(errors, index) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ``errors`` to float and check it pairs with ``index``."""
    errors = np.asarray(errors, dtype=float).ravel()
    index = np.asarray(index)
    if len(errors) != len(index):
        raise PrimitiveError("errors and index must have the same length")
    return errors, index


def _prune_anomalies(errors: np.ndarray, sequences: List[Tuple[int, int]],
                     min_percent: float) -> List[Tuple[int, int]]:
    """Prune candidate anomalies whose peak error is not clearly separated.

    Following Hundman et al.'s pruning rule: candidates are sorted by their
    maximum error (descending) with the non-anomalous baseline appended; a
    trailing run of candidates whose relative drop from the previous maximum
    stays below ``min_percent`` — all the way down to the baseline — is
    discarded, because those peaks are not meaningfully separated from
    normal behaviour.
    """
    if not sequences:
        return []
    max_errors = [float(np.max(errors[start:end + 1])) for start, end in sequences]
    order = list(np.argsort(max_errors)[::-1])
    sorted_max = [max_errors[i] for i in order]

    anomalous = np.zeros(len(errors), dtype=bool)
    for start, end in sequences:
        anomalous[start:end + 1] = True
    baseline = float(np.max(errors[~anomalous])) if np.any(~anomalous) else 0.0
    sorted_max.append(baseline)

    to_remove: List[int] = []
    for i in range(len(sorted_max) - 1):
        previous = sorted_max[i]
        drop = (previous - sorted_max[i + 1]) / previous if previous > 0 else 0.0
        if drop < min_percent:
            to_remove.append(order[i])
        else:
            to_remove = []

    removed = set(to_remove)
    kept = [sequences[i] for i in range(len(sequences)) if i not in removed]
    return sorted(kept)


@register_primitive
class FindAnomalies(Primitive):
    """Convert an error sequence into anomalous intervals.

    Outputs an array of ``(start_timestamp, end_timestamp, severity)`` rows,
    where severity is the mean error above the local threshold — the
    "likelihood probability" proxy mentioned in the paper.
    """

    name = "find_anomalies"
    engine = "postprocessing"
    description = "Non-parametric dynamic thresholding over error windows."
    produce_args = ["errors", "index"]
    produce_output = ["anomalies"]
    fixed_hyperparameters = {
        "fixed_threshold": False,
        "lower_z_range": 2.0,
        "upper_z_range": 12.0,
    }
    tunable_hyperparameters = {
        "window_size_portion": {"type": "float", "default": 0.33, "range": [0.05, 1.0]},
        "window_step_size_portion": {"type": "float", "default": 0.1,
                                     "range": [0.05, 1.0]},
        "min_percent": {"type": "float", "default": 0.1, "range": [0.01, 0.5]},
        "anomaly_padding": {"type": "int", "default": 5, "range": [0, 50]},
    }
    supports_batch = True

    def _window_layout(self, length: int) -> Tuple[int, int]:
        """Window size and step of the threshold scan over ``length`` errors."""
        return (max(10, int(length * float(self.window_size_portion))),
                max(1, int(length * float(self.window_step_size_portion))))

    def _extract(self, errors, index, flagged, thresholds) -> np.ndarray:
        """Prune the flagged runs and emit merged ``(start, end, severity)`` rows."""
        sequences = find_sequences_mask(flagged)
        sequences = _prune_anomalies(errors, sequences, float(self.min_percent))

        padding = int(self.anomaly_padding)
        anomalies = []
        for start, end in sequences:
            padded_start = max(0, start - padding)
            padded_end = min(len(errors) - 1, end + padding)
            local = errors[start:end + 1]
            threshold = thresholds[start] if np.isfinite(thresholds[start]) else 0.0
            severity = float(np.mean(local) - threshold)
            anomalies.append(
                (float(index[padded_start]), float(index[padded_end]), severity)
            )

        anomalies = _merge_overlapping(anomalies)
        return np.asarray(anomalies).reshape(-1, 3)

    def produce(self, errors, index):
        errors, index = _validate(errors, index)
        if len(errors) == 0:
            return {"anomalies": np.zeros((0, 3))}

        length = len(errors)
        window_size, window_step = self._window_layout(length)

        flagged = np.zeros(length, dtype=bool)
        thresholds = np.full(length, np.inf)

        if self.fixed_threshold:
            # A single global threshold over the whole error sequence.
            epsilon = float(np.mean(errors) + 4.0 * np.std(errors))
            flagged = errors > epsilon
            thresholds[:] = epsilon
        else:
            for start in range(0, max(1, length - window_size + 1), window_step):
                end = min(start + window_size, length)
                window_errors = errors[start:end]
                epsilon = _select_epsilon(
                    window_errors,
                    (float(self.lower_z_range), float(self.upper_z_range)),
                )
                above = window_errors > epsilon
                flagged[start:end] |= above
                thresholds[start:end] = np.minimum(thresholds[start:end], epsilon)
                if end == length:
                    break

        return {"anomalies": self._extract(errors, index, flagged, thresholds)}

    def produce_batch(self, errors, index):
        """Threshold a whole batch with one candidate pass per signal length.

        Every window of every same-length signal is stacked into one
        matrix and :func:`_select_epsilons` scores all of them at once,
        bitwise-equal to :meth:`produce`'s window-by-window scan. The scan
        visits windows of one width at starts ``0, step, 2 * step, ...``
        (one window of the whole signal when it is shorter than a window),
        so flags and thresholds are folded in the same window order.
        Pruning and interval assembly stay per signal.
        """
        validated = [_validate(e, i) for e, i in zip(errors, index)]
        results = [None] * len(validated)
        z_range = (float(self.lower_z_range), float(self.upper_z_range))
        for indices, stacked in shape_groups([e for e, _ in validated]):
            n_signals, length = stacked.shape
            if length == 0:
                for i in indices:
                    results[i] = np.zeros((0, 3))
                continue
            thresholds = np.full(stacked.shape, np.inf)
            if self.fixed_threshold:
                epsilon = (np.mean(stacked, axis=1)
                           + 4.0 * np.std(stacked, axis=1))[:, np.newaxis]
                flagged = stacked > epsilon
                thresholds[:] = epsilon
            else:
                window_size, window_step = self._window_layout(length)
                width = min(window_size, length)
                starts = np.arange(0, max(1, length - window_size + 1),
                                   window_step)
                windows = np.lib.stride_tricks.sliding_window_view(
                    stacked, width, axis=1)[:, starts]
                epsilons = _select_epsilons(
                    windows.reshape(-1, width), z_range
                ).reshape(n_signals, len(starts), 1)
                flagged = np.zeros(stacked.shape, dtype=bool)
                for j, start in enumerate(starts):
                    end = start + width
                    flagged[:, start:end] |= windows[:, j] > epsilons[:, j]
                    thresholds[:, start:end] = np.minimum(
                        thresholds[:, start:end], epsilons[:, j])
            for j, i in enumerate(indices):
                results[i] = self._extract(*validated[i], flagged[j],
                                           thresholds[j])
        return {"anomalies": results}


@register_primitive
class FixedThreshold(Primitive):
    """Flag anomalies where errors exceed ``mean + k * std`` globally.

    A deliberately simple baseline post-processor, useful for the spectral
    residual pipeline and for ablations against the dynamic threshold.

    In streaming mode :meth:`update` is incremental: the threshold applied
    to the current window is ``mean + k * std`` over *all errors seen so
    far* — the current window's errors combined with running moments of
    every sample that has already slid out of the window (folded exactly
    once, at eviction, with its last observed error value). While the
    window still covers the whole stream this reproduces batch
    :meth:`produce` exactly; once the window slides, evicted samples keep
    contributing through the running moments instead of being recomputed.
    """

    name = "fixed_threshold"
    engine = "postprocessing"
    description = "Global k-sigma thresholding over the error sequence."
    produce_args = ["errors", "index"]
    produce_output = ["anomalies"]
    fixed_hyperparameters = {}
    tunable_hyperparameters = {
        "k": {"type": "float", "default": 3.0, "range": [1.0, 8.0]},
        "anomaly_padding": {"type": "int", "default": 2, "range": [0, 50]},
    }
    supports_stream = True
    supports_batch = True
    fuse_category = "elementwise"

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        # Welford moments of the samples evicted from the sliding window.
        self._evicted = (0, 0.0, 0.0)
        self._prev_errors = None
        self._prev_index = None

    def _extract(self, errors, index, threshold: float) -> dict:
        # find_sequences_mask is index-exact vs the _find_sequences scan
        # (pinned in tests), so batch and per-signal paths share one body.
        sequences = find_sequences_mask(errors > threshold)
        padding = int(self.anomaly_padding)
        anomalies = []
        for start, end in sequences:
            padded_start = max(0, start - padding)
            padded_end = min(len(errors) - 1, end + padding)
            severity = float(np.mean(errors[start:end + 1]) - threshold)
            anomalies.append(
                (float(index[padded_start]), float(index[padded_end]), severity)
            )
        anomalies = _merge_overlapping(anomalies)
        return {"anomalies": np.asarray(anomalies).reshape(-1, 3)}

    def produce(self, errors, index):
        errors, index = _validate(errors, index)
        if len(errors) == 0:
            return {"anomalies": np.zeros((0, 3))}
        threshold = float(np.mean(errors) + float(self.k) * np.std(errors))
        return self._extract(errors, index, threshold)

    def produce_batch(self, errors, index):
        """Threshold a whole batch: fused per-signal moments + extraction."""
        validated = [_validate(e, i) for e, i in zip(errors, index)]
        size = len(validated)
        results = [None] * size
        nonempty = [i for i in range(size) if len(validated[i][0])]
        for i in set(range(size)) - set(nonempty):
            results[i] = np.zeros((0, 3))
        k = float(self.k)
        for indices, stacked in shape_groups(
                [validated[i][0] for i in nonempty]):
            thresholds = np.mean(stacked, axis=1) + k * np.std(stacked, axis=1)
            for j, position in enumerate(indices):
                i = nonempty[position]
                results[i] = self._extract(
                    validated[i][0], validated[i][1],
                    float(thresholds[j]))["anomalies"]
        return {"anomalies": results}

    @staticmethod
    def _combine(a, b):
        """Combine two (count, mean, M2) Welford aggregates."""
        n_a, mean_a, m2_a = a
        n_b, mean_b, m2_b = b
        if n_a == 0:
            return b
        if n_b == 0:
            return a
        total = n_a + n_b
        delta = mean_b - mean_a
        mean = mean_a + delta * n_b / total
        m2 = m2_a + m2_b + delta ** 2 * n_a * n_b / total
        return (total, mean, m2)

    def update(self, errors, index):
        """Threshold the window with running global error statistics."""
        errors, index = _validate(errors, index)
        if len(errors) == 0:
            return {"anomalies": np.zeros((0, 3))}

        # Fold samples that slid out of the window since the last call,
        # with the (settled) error values last observed for them.
        if self._prev_index is not None:
            gone = self._prev_index < np.min(index)
            evicted = self._prev_errors[gone]
            if evicted.size:
                mean = float(np.mean(evicted))
                m2 = float(np.sum((evicted - mean) ** 2))
                self._evicted = self._combine(
                    self._evicted, (evicted.size, mean, m2)
                )
        self._prev_errors = errors.copy()
        self._prev_index = np.asarray(index).copy()

        window_mean = float(np.mean(errors))
        window_m2 = float(np.sum((errors - window_mean) ** 2))
        count, mean, m2 = self._combine(
            self._evicted, (len(errors), window_mean, window_m2)
        )
        threshold = mean + float(self.k) * float(np.sqrt(m2 / count))
        return self._extract(errors, index, threshold)


def _merge_overlapping(anomalies: List[Tuple[float, float, float]]):
    """Merge overlapping or touching intervals, keeping the max severity."""
    if not anomalies:
        return []
    anomalies = sorted(anomalies)
    merged = [list(anomalies[0])]
    for start, end, severity in anomalies[1:]:
        if start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
            merged[-1][2] = max(merged[-1][2], severity)
        else:
            merged.append([start, end, severity])
    return [tuple(item) for item in merged]
