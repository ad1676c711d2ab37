"""Helpers for the batched detection data plane.

Fused ``produce_batch`` implementations want to run one vectorized NumPy
pass over ``N`` stacked signals, but a batch is allowed to mix signals of
different lengths (and therefore array shapes). The helpers here split a
batch into *shape groups* — maximal index sets whose arrays stack into one
``(n_group, ...)`` array — so a fused implementation vectorizes within
each group and reassembles the per-signal outputs in original batch order.

Bitwise parity note: stacking same-shaped signals and applying elementwise
ops, row-wise reductions along the per-signal axes, or pure indexing is
bitwise-identical to the per-signal computation (NumPy applies the same
kernels per row). Operations that would *reorder floating-point work
across signals* (e.g. reductions over the batch axis) must not be used in
fused implementations — the batch plane guarantees results identical to a
per-signal loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["shape_groups", "smooth_errors", "batched_ewma",
           "find_sequences_mask"]


def shape_groups(values: Sequence[np.ndarray],
                 keys: Sequence = None) -> List[Tuple[List[int], np.ndarray]]:
    """Split a batch into stackable groups of identical shape (and key).

    Args:
        values: one array per signal.
        keys: optional extra grouping keys (one per signal); signals only
            share a group when their key compares equal as well — used e.g.
            to group signals whose *timestamp grids* match, not just their
            shapes.

    Returns:
        ``[(indices, stacked)]`` where ``stacked[j]`` is
        ``values[indices[j]]``; the union of all ``indices`` lists is
        ``range(len(values))``. Groups preserve first-seen order.
    """
    groups: Dict[tuple, List[int]] = {}
    arrays = [np.asarray(value) for value in values]
    for index, array in enumerate(arrays):
        group_key = (array.shape, str(array.dtype))
        if keys is not None:
            group_key += (keys[index],)
        groups.setdefault(group_key, []).append(index)
    return [(indices, np.stack([arrays[i] for i in indices]))
            for indices in groups.values()]


def smooth_errors(errors: np.ndarray, smoothing_window: int) -> np.ndarray:
    """Smooth a 1D error array with an exponentially-weighted moving average.

    The per-signal reference of :func:`batched_ewma`.
    """
    errors = np.asarray(errors, dtype=float)
    if smoothing_window <= 1 or len(errors) == 0:
        return errors.copy()
    alpha = 2.0 / (smoothing_window + 1.0)
    smoothed = np.empty_like(errors)
    smoothed[0] = errors[0]
    for i in range(1, len(errors)):
        smoothed[i] = alpha * errors[i] + (1.0 - alpha) * smoothed[i - 1]
    return smoothed


#: Batches of fewer rows than this run :func:`smooth_errors` on each row;
#: larger ones take one vector step per time step. A reference step costs a
#: fixed amount per row, a vector step a fixed amount per call almost
#: regardless of the row count, so the cut does not move with ``T``. The two
#: took the same time at 8 rows (T = 200, 400 and 1400 on a 2-vCPU x86-64
#: machine), and a batch that reaches the cut keeps the vector loop.
EWMA_ROW_CUT = 8


def batched_ewma(errors: np.ndarray, smoothing_window: int) -> np.ndarray:
    """Exponentially-weighted moving average over axis 1 of ``(N, T)``.

    Bitwise-identical per row to :func:`smooth_errors`, NaN, inf and
    ``-0.0`` included. Below :data:`EWMA_ROW_CUT` rows it is
    :func:`smooth_errors` on each row, so a fit (a batch of one) costs what
    the reference costs. From the cut on it runs one time-step loop with
    vector arithmetic across the batch, which is cheaper once enough rows
    share each step. That loop performs the reference's IEEE-754 double
    operations in its order, so every result without a NaN is the
    reference's. Where two NaNs meet, IEEE-754 leaves open which one a sum
    returns, and NumPy-scalar and NumPy-vector adds pick differently (the
    sign of the NaN differs), so rows holding a NaN are recomputed by
    :func:`smooth_errors`. A NaN carries through every later step of the
    recursion, so those are the rows whose last value is NaN.
    """
    errors = np.asarray(errors, dtype=float)
    if len(errors) < EWMA_ROW_CUT:
        return np.array([smooth_errors(row, smoothing_window)
                         for row in errors], dtype=float).reshape(errors.shape)
    if smoothing_window <= 1 or errors.shape[1] == 0:
        return errors.copy()
    alpha = 2.0 / (smoothing_window + 1.0)
    smoothed = np.empty_like(errors)
    smoothed[:, 0] = errors[:, 0]
    for i in range(1, errors.shape[1]):
        smoothed[:, i] = alpha * errors[:, i] + (1.0 - alpha) * smoothed[:, i - 1]
    for row in np.flatnonzero(np.isnan(smoothed[:, -1])):
        smoothed[row] = smooth_errors(errors[row], smoothing_window)
    return smoothed


def find_sequences_mask(above: np.ndarray) -> List[Tuple[int, int]]:
    """Vectorized equivalent of the scan in ``_find_sequences``.

    Returns the inclusive ``(start, end)`` index pairs of contiguous True
    runs, computed from the flag transitions instead of a Python scan —
    index-exact, so downstream severity arithmetic sees identical slices.
    """
    above = np.asarray(above, dtype=bool)
    if not above.size:
        return []
    edges = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1)
    if above[0]:
        starts = np.concatenate(([0], starts))
    if above[-1]:
        ends = np.concatenate((ends, [len(above) - 1]))
    return list(zip(starts.tolist(), ends.tolist()))
