"""Time-based aggregation primitives."""

from __future__ import annotations

import numpy as np

from repro.core.batch import shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError

__all__ = ["TimeSegmentsAggregate"]


@register_primitive
class TimeSegmentsAggregate(Primitive):
    """Aggregate a raw ``(timestamp, values...)`` table into equal segments.

    This reproduces the ``time_segments_aggregate`` primitive from the
    paper's LSTM pipeline (Figure 2a): the raw signal is resampled so that
    consecutive samples are exactly ``interval`` apart, aggregating every
    sample falling in a segment with ``method`` and leaving NaNs for empty
    segments (to be imputed downstream).
    """

    name = "time_segments_aggregate"
    engine = "preprocessing"
    description = "Resample a raw signal into equally spaced segments."
    produce_args = ["data"]
    produce_output = ["X", "index"]
    fixed_hyperparameters = {"interval": None, "method": "mean"}
    tunable_hyperparameters = {}
    supports_batch = True
    fuse_category = "window"

    _METHODS = {
        "mean": np.nanmean,
        "median": np.nanmedian,
        "min": np.nanmin,
        "max": np.nanmax,
        "sum": np.nansum,
    }

    def produce(self, data):
        data = np.asarray(data, dtype=float)
        if data.ndim != 2 or data.shape[1] < 2:
            raise PrimitiveError(
                "time_segments_aggregate expects a 2D (timestamp, values...) array"
            )
        if self.method not in self._METHODS:
            raise PrimitiveError(
                f"Unknown aggregation method {self.method!r}; "
                f"choose from {sorted(self._METHODS)}"
            )

        timestamps = data[:, 0]
        values = data[:, 1:]
        order = np.argsort(timestamps)
        timestamps = timestamps[order]
        values = values[order]

        interval = self.interval
        if interval is None:
            diffs = np.diff(timestamps)
            diffs = diffs[diffs > 0]
            interval = float(np.median(diffs)) if len(diffs) else 1.0
        interval = float(interval)
        if interval <= 0:
            raise PrimitiveError("interval must be positive")

        start = timestamps[0]
        end = timestamps[-1]
        n_segments = int(np.floor((end - start) / interval)) + 1
        aggregate = self._METHODS[self.method]

        index = start + interval * np.arange(n_segments)
        aggregated = np.full((n_segments, values.shape[1]), np.nan)
        segment_ids = np.floor((timestamps - start) / interval).astype(int)
        segment_ids = np.clip(segment_ids, 0, n_segments - 1)
        for segment in np.unique(segment_ids):
            mask = segment_ids == segment
            aggregated[segment] = aggregate(values[mask], axis=0)

        return {"X": aggregated, "index": index.astype(np.int64)}

    def produce_batch(self, data):
        """Aggregate a batch, sharing segment structure across signals.

        Signals with identical timestamp grids share one segment layout —
        sort order, interval inference, segment ids and per-segment masks
        are computed once. On a regular grid (strictly increasing segment
        ids, one sample per segment) every segment's reduction is over a
        length-1 axis, so the whole group runs as one call. Segments of
        several samples are reduced per signal on the same contiguous
        ``(samples, channels)`` array the per-signal call builds: a
        reduction over the stacked group would follow another NumPy loop
        order, which can change a sum in the last ulp or the sign of a
        zero minimum.
        """
        if self.method not in self._METHODS:
            raise PrimitiveError(
                f"Unknown aggregation method {self.method!r}; "
                f"choose from {sorted(self._METHODS)}"
            )
        arrays = []
        for entry in data:
            array = np.asarray(entry, dtype=float)
            if array.ndim != 2 or array.shape[1] < 2:
                raise PrimitiveError(
                    "time_segments_aggregate expects a 2D "
                    "(timestamp, values...) array"
                )
            arrays.append(array)
        size = len(arrays)
        out = {"X": [None] * size, "index": [None] * size}
        keys = [array[:, 0].tobytes() for array in arrays]
        aggregate = self._METHODS[self.method]
        for indices, stacked in shape_groups(arrays, keys=keys):
            timestamps = stacked[0, :, 0]
            order = np.argsort(timestamps)
            timestamps = timestamps[order]

            interval = self.interval
            if interval is None:
                diffs = np.diff(timestamps)
                diffs = diffs[diffs > 0]
                interval = float(np.median(diffs)) if len(diffs) else 1.0
            interval = float(interval)
            if interval <= 0:
                raise PrimitiveError("interval must be positive")

            start = timestamps[0]
            end = timestamps[-1]
            n_segments = int(np.floor((end - start) / interval)) + 1
            index = start + interval * np.arange(n_segments)
            aggregated = np.full(
                (len(indices), n_segments, stacked.shape[2] - 1), np.nan)
            segment_ids = np.floor((timestamps - start) / interval).astype(int)
            segment_ids = np.clip(segment_ids, 0, n_segments - 1)
            if np.all(np.diff(segment_ids) > 0):
                values = stacked[:, order, 1:]
                aggregated[:, segment_ids] = aggregate(
                    values[:, :, np.newaxis], axis=2)
            else:
                masks = [(segment, segment_ids == segment)
                         for segment in np.unique(segment_ids)]
                for j in range(len(indices)):
                    values = stacked[j, :, 1:][order]
                    for segment, mask in masks:
                        aggregated[j, segment] = aggregate(
                            values[mask], axis=0)

            index = index.astype(np.int64)
            for j, i in enumerate(indices):
                out["X"][i] = aggregated[j]
                out["index"][i] = index
        return out
