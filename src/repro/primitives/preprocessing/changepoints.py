"""Change-point detection and segmentation primitives.

The paper's §5 attributes the F1 drop on Yahoo's A4 subset to the fact
that 86% of its signals contain a change point (a lasting shift in the
data distribution), and recommends adding change-point detection /
segmentation primitives to the preprocessing engine. This module provides:

* :func:`detect_change_points` — offline binary segmentation with a
  piecewise-constant (mean-shift) cost, the classical baseline from the
  change-point literature the paper cites (Truong et al. 2020);
* :class:`ChangePointSegmenter` — a preprocessing primitive that removes
  the detected level shifts so downstream models see a stationary signal.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError
from repro.primitives.preprocessing.channels import as_2d

__all__ = ["detect_change_points", "ChangePointSegmenter"]


def _segment_cost(prefix_sum: np.ndarray, prefix_sq: np.ndarray,
                  start: int, end: int) -> float:
    """Sum of squared deviations from the mean of ``values[start:end]``."""
    n = end - start
    if n <= 0:
        return 0.0
    total = prefix_sum[end] - prefix_sum[start]
    total_sq = prefix_sq[end] - prefix_sq[start]
    return float(total_sq - total * total / n)


def _best_split(prefix_sum, prefix_sq, start, end, min_size):
    """Best single split of ``[start, end)`` and its cost reduction."""
    base = _segment_cost(prefix_sum, prefix_sq, start, end)
    best_gain, best_split = 0.0, None
    for split in range(start + min_size, end - min_size + 1):
        cost = (_segment_cost(prefix_sum, prefix_sq, start, split)
                + _segment_cost(prefix_sum, prefix_sq, split, end))
        gain = base - cost
        if gain > best_gain:
            best_gain, best_split = gain, split
    return best_gain, best_split


def detect_change_points(values: np.ndarray, penalty: float = None,
                         min_size: int = 10, max_changes: int = 10) -> List[int]:
    """Detect mean-shift change points with binary segmentation.

    Args:
        values: 1D array of signal values.
        penalty: minimum cost reduction required to accept a split; defaults
            to the BIC-style ``2 * variance * log(n)``.
        min_size: minimum segment length in samples.
        max_changes: maximum number of change points returned.

    Returns:
        Sorted list of change-point indices (the first index of each new
        segment).
    """
    values = np.asarray(values, dtype=float).ravel()
    n = len(values)
    if n < 2 * min_size:
        return []
    if penalty is None:
        penalty = 2.0 * float(np.var(values)) * np.log(max(n, 2))
    # Floor the penalty above floating-point round-off so constant (or
    # near-constant) series never split on numerical noise.
    penalty = max(float(penalty), 1e-9 * n * (1.0 + float(np.mean(values ** 2))))

    prefix_sum = np.concatenate([[0.0], np.cumsum(values)])
    prefix_sq = np.concatenate([[0.0], np.cumsum(values ** 2)])

    change_points: List[int] = []
    segments = [(0, n)]
    while segments and len(change_points) < max_changes:
        # Split the segment offering the largest gain first.
        best = None
        for index, (start, end) in enumerate(segments):
            if end - start < 2 * min_size:
                continue
            gain, split = _best_split(prefix_sum, prefix_sq, start, end, min_size)
            if split is not None and gain > penalty:
                if best is None or gain > best[0]:
                    best = (gain, split, index)
        if best is None:
            break
        _, split, index = best
        start, end = segments.pop(index)
        segments.extend([(start, split), (split, end)])
        change_points.append(split)

    return sorted(change_points)


@register_primitive
class ChangePointSegmenter(Primitive):
    """Remove level shifts at detected change points.

    Each segment between change points is re-centered to the level of the
    first segment, so a lasting distribution shift no longer looks like a
    permanent anomaly to the downstream modeling engine. The detected
    change points are also exposed in the context for inspection.
    """

    name = "change_point_segmenter"
    engine = "preprocessing"
    description = "Detect change points and remove level shifts."
    produce_args = ["X", "index"]
    produce_output = ["X", "index", "change_points"]
    fixed_hyperparameters = {"penalty": None, "max_changes": 10}
    tunable_hyperparameters = {
        "min_size": {"type": "int", "default": 20, "range": [5, 200]},
    }

    def produce(self, X, index):
        X = as_2d(self, X)
        index = np.asarray(index)
        if len(X) != len(index):
            raise PrimitiveError("X and index must have the same length")

        output = X.copy()
        all_change_points = set()
        for channel in range(X.shape[1]):
            column = X[:, channel]
            filled = column.copy()
            nan_mask = np.isnan(filled)
            if nan_mask.any():
                filled[nan_mask] = np.nanmean(filled) if not nan_mask.all() else 0.0

            change_points = detect_change_points(
                filled, penalty=self.penalty, min_size=int(self.min_size),
                max_changes=int(self.max_changes),
            )
            all_change_points.update(change_points)
            if not change_points:
                continue

            boundaries = [0] + change_points + [len(filled)]
            base_level = np.mean(filled[boundaries[0]:boundaries[1]])
            adjusted = filled.copy()
            for start, end in zip(boundaries[1:-1], boundaries[2:]):
                adjusted[start:end] -= np.mean(filled[start:end]) - base_level
            adjusted[nan_mask] = np.nan
            output[:, channel] = adjusted

        change_timestamps = np.asarray(
            [index[point] for point in sorted(all_change_points)]
        )
        return {"X": output, "index": index, "change_points": change_timestamps}
