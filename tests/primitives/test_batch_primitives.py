"""Fused ``produce_batch`` implementations vs the per-signal loop.

Every primitive that declares ``supports_batch`` promises its fused pass
is bitwise-identical to calling ``produce`` once per signal. These tests
pin that promise per primitive, over batches that mix shapes (so the
shape-grouping splits) and exercise the documented fallbacks.
"""

import numpy as np
import pytest

from repro.core.batch import (
    EWMA_ROW_CUT,
    batched_ewma,
    find_sequences_mask,
    shape_groups,
)
from repro.core.primitive import get_primitive, list_primitives
from repro.exceptions import PrimitiveError
from repro.primitives.postprocessing.anomalies import _find_sequences
from repro.primitives.postprocessing.errors import smooth_errors


def assert_batch_matches_loop(primitive, batches: dict):
    """``produce_batch`` output must equal per-signal ``produce`` bitwise."""
    size = len(next(iter(batches.values())))
    expected = [
        primitive.produce(**{arg: values[i] for arg, values in batches.items()})
        for i in range(size)
    ]
    fused = primitive.produce_batch(**batches)
    assert set(fused) == set(primitive.produce_output)
    for out in primitive.produce_output:
        assert len(fused[out]) == size
        for i in range(size):
            np.testing.assert_array_equal(
                np.asarray(fused[out][i]), np.asarray(expected[i][out]))


@pytest.fixture
def mixed_lengths(rng):
    """Per-signal 2D arrays in two shape groups (and one 1D entry)."""
    return [
        rng.normal(size=(120, 2)),
        rng.normal(size=(150, 2)),
        rng.normal(size=120),  # 1D: reshaped to (120, 1), its own group
        rng.normal(size=(120, 2)),
    ]


class TestScalerBatch:
    @pytest.mark.parametrize("name", ["MinMaxScaler", "StandardScaler"])
    def test_parity(self, name, mixed_lengths, rng):
        primitive = get_primitive(name)
        primitive.fit(rng.normal(size=(200, 2)))
        # 1D input reshapes to one channel; fit two-channel stats apply by
        # broadcasting only to two-channel signals, so keep shapes aligned.
        signals = [x for x in mixed_lengths if np.ndim(x) == 2]
        assert_batch_matches_loop(primitive, {"X": signals})

    def test_unfitted_raises(self):
        from repro.exceptions import NotFittedError

        for name in ("MinMaxScaler", "StandardScaler"):
            with pytest.raises(NotFittedError):
                get_primitive(name).produce_batch(X=[np.ones((4, 1))])


class TestImputerBatch:
    def test_parity_with_nans(self, rng):
        primitive = get_primitive("SimpleImputer")
        train = rng.normal(size=(100, 2))
        primitive.fit(train)
        signals = []
        for length in (80, 80, 120):
            x = rng.normal(size=(length, 2))
            x[rng.random(x.shape) < 0.2] = np.nan
            signals.append(x)
        assert_batch_matches_loop(primitive, {"X": signals})


class TestAggregationBatch:
    def test_parity_shared_and_distinct_grids(self, rng):
        primitive = get_primitive("time_segments_aggregate")
        grid_a = np.arange(0, 600, 3, dtype=float)
        grid_b = np.arange(0, 500, 5, dtype=float)
        signals = [
            np.column_stack([grid_a, rng.normal(size=len(grid_a))]),
            np.column_stack([grid_a, rng.normal(size=len(grid_a))]),
            np.column_stack([grid_b, rng.normal(size=len(grid_b))]),
        ]
        assert_batch_matches_loop(primitive, {"data": signals})

    def test_parity_with_gaps_and_unsorted_rows(self, rng):
        primitive = get_primitive("time_segments_aggregate")
        timestamps = np.arange(0, 300, 1, dtype=float)
        keep = rng.random(len(timestamps)) > 0.3  # empty segments -> NaN
        timestamps = timestamps[keep]
        order = rng.permutation(len(timestamps))
        signals = [
            np.column_stack([timestamps[order],
                             rng.normal(size=len(timestamps))]),
            np.column_stack([timestamps[order],
                             rng.normal(size=len(timestamps))]),
        ]
        assert_batch_matches_loop(primitive, {"data": signals})


class TestSequenceBatch:
    def test_rolling_parity(self, rng):
        primitive = get_primitive("rolling_window_sequences",
                                  {"window_size": 30})
        signals = [rng.normal(size=(n, 1)) for n in (120, 150, 120)]
        indices = [np.arange(len(x)) * 10 for x in signals]
        assert_batch_matches_loop(primitive, {"X": signals, "index": indices})

    def test_rolling_shrinks_short_signals(self, rng):
        primitive = get_primitive("rolling_window_sequences",
                                  {"window_size": 200})
        signals = [rng.normal(size=(50, 1)), rng.normal(size=(50, 1))]
        indices = [np.arange(50), np.arange(50)]
        assert_batch_matches_loop(primitive, {"X": signals, "index": indices})

    def test_cutoff_parity(self, rng):
        primitive = get_primitive("cutoff_window_sequences",
                                  {"window_size": 25})
        signals = [rng.normal(size=(90, 2)) for _ in range(3)]
        indices = [np.arange(90) for _ in range(3)]
        assert_batch_matches_loop(primitive, {"X": signals, "index": indices})


class TestErrorBatch:
    def test_regression_errors_parity(self, rng):
        primitive = get_primitive("regression_errors")
        ys = [rng.normal(size=(n, 1)) for n in (100, 100, 140)]
        y_hats = [rng.normal(size=(n, 1)) for n in (100, 100, 140)]
        assert_batch_matches_loop(primitive, {"y": ys, "y_hat": y_hats})

    def test_reconstruction_errors_parity(self, rng):
        primitive = get_primitive("reconstruction_errors")
        ys, y_hats, indices = [], [], []
        for windows in (60, 60, 80):
            ys.append(rng.normal(size=(windows, 20, 1)))
            y_hats.append(rng.normal(size=(windows, 20, 1)))
            indices.append(np.arange(windows) * 5)
        assert_batch_matches_loop(
            primitive, {"y": ys, "y_hat": y_hats, "index": indices})

    def test_reconstruction_mean_falls_back(self, rng):
        primitive = get_primitive("reconstruction_errors",
                                  {"aggregation": "mean"})
        ys = [rng.normal(size=(30, 10, 1))]
        y_hats = [rng.normal(size=(30, 10, 1))]
        indices = [np.arange(30)]
        assert_batch_matches_loop(
            primitive, {"y": ys, "y_hat": y_hats, "index": indices})

    def test_reconstruction_nan_falls_back(self, rng):
        # median propagates a NaN error to its position; nanmedian would
        # silently drop it, so the kernel must not take the NaN-skipping path.
        primitive = get_primitive("reconstruction_errors",
                                  {"smooth": False})
        y = rng.normal(size=(30, 10, 1))
        y[3, 4, 0] = np.nan
        out = primitive.produce_batch(
            y=[y], y_hat=[np.zeros_like(y)], index=[np.arange(30)])
        expected = primitive.produce(y=y, y_hat=np.zeros_like(y),
                                     index=np.arange(30))
        np.testing.assert_array_equal(out["errors"][0], expected["errors"],
                                      strict=False)


class TestFindAnomaliesBatch:
    @pytest.mark.parametrize("fixed_threshold", [False, True])
    def test_parity(self, rng, fixed_threshold):
        primitive = get_primitive("find_anomalies",
                                  {"fixed_threshold": fixed_threshold})
        errors = [np.abs(rng.normal(size=n)) for n in (200, 200, 130, 5)]
        for e in errors[:3]:
            e[rng.integers(0, len(e), size=3)] += 6.0
        indices = [np.arange(len(e)) * 3 for e in errors]
        assert_batch_matches_loop(
            primitive, {"errors": errors, "index": indices})

    def test_zero_mean_window_raises_like_produce(self):
        # produce scores a candidate by dividing by the window mean; both
        # paths raise a typed error for a zero mean, never a bare
        # ZeroDivisionError.
        primitive = get_primitive("find_anomalies",
                                  {"window_size_portion": 1.0})
        errors = np.array([-1.0] * 19 + [1.0] * 19 + [-5.0, 5.0])
        for call in (
                lambda: primitive.produce(errors=errors, index=np.arange(40)),
                lambda: primitive.produce_batch(
                    errors=[np.ones(40), errors],
                    index=[np.arange(40), np.arange(40)])):
            with pytest.raises(PrimitiveError, match="float division"):
                call()


class TestThresholdBatch:
    def test_fixed_threshold_parity(self, rng):
        primitive = get_primitive("fixed_threshold", {"k": 1.5})
        errors = [np.abs(rng.normal(size=n)) for n in (100, 100, 130)]
        indices = [np.arange(len(e)) * 2 for e in errors]
        assert_batch_matches_loop(
            primitive, {"errors": errors, "index": indices})

    def test_fixed_threshold_empty_signal(self):
        primitive = get_primitive("fixed_threshold")
        out = primitive.produce_batch(
            errors=[np.array([]), np.abs(np.arange(50.0))],
            index=[np.array([]), np.arange(50)])
        assert out["anomalies"][0].shape == (0, 3)

    def test_probabilities_parity(self, rng):
        primitive = get_primitive("probabilities_to_intervals")
        probabilities = [rng.random(n) for n in (80, 120, 80)]
        indices = [np.arange(len(p)) for p in probabilities]
        assert_batch_matches_loop(
            primitive, {"y_hat": probabilities, "index": indices})


class TestSpectralResidualBatch:
    def test_parity(self, rng):
        primitive = get_primitive("SpectralResidual")
        signals = [rng.normal(size=(n, 1)) for n in (256, 256, 300)]
        indices = [np.arange(len(x)) for x in signals]
        assert_batch_matches_loop(primitive, {"X": signals, "index": indices})

    def test_short_signal_raises(self):
        primitive = get_primitive("SpectralResidual")
        with pytest.raises(PrimitiveError, match="at least 8"):
            primitive.produce_batch(X=[np.ones((4, 1))], index=[np.arange(4)])


class TestDefaultBatchContract:
    def test_every_primitive_accepts_batches(self, rng):
        # The default produce_batch must transpose outputs correctly for
        # any primitive; spot-check a non-fused one end to end.
        primitive = get_primitive("multichannel_regression_errors")
        assert primitive.supports_batch is False
        ys = [rng.normal(size=(60, 1, 3)), rng.normal(size=(60, 1, 3))]
        y_hats = [rng.normal(size=(60, 3)), rng.normal(size=(60, 3))]
        assert_batch_matches_loop(primitive, {"y": ys, "y_hat": y_hats})

    def test_unequal_batch_lengths_raise(self):
        primitive = get_primitive("fixed_threshold")
        with pytest.raises(PrimitiveError, match="unequal"):
            # The shared contract check lives in the default implementation.
            super(type(primitive), primitive).produce_batch(
                errors=[np.ones(4)], index=[np.arange(4), np.arange(4)])

    def test_supports_batch_in_metadata(self):
        from repro.core.primitive import get_primitive_class

        flags = {name: get_primitive_class(name).metadata()["supports_batch"]
                 for name in list_primitives()}
        assert flags["MinMaxScaler"] and flags["SpectralResidual"]
        assert not flags["multichannel_regression_errors"]


class TestBatchHelpers:
    def test_shape_groups_partition(self, rng):
        values = [rng.normal(size=(4, 2)), rng.normal(size=(3, 2)),
                  rng.normal(size=(4, 2))]
        groups = shape_groups(values)
        covered = sorted(i for indices, _ in groups for i in indices)
        assert covered == [0, 1, 2]
        assert {tuple(indices) for indices, _ in groups} == {(0, 2), (1,)}
        for indices, stacked in groups:
            for j, i in enumerate(indices):
                np.testing.assert_array_equal(stacked[j], values[i])

    def test_shape_groups_key_split(self, rng):
        values = [rng.normal(size=(4, 2)) for _ in range(3)]
        groups = shape_groups(values, keys=["a", "b", "a"])
        assert {tuple(indices) for indices, _ in groups} == {(0, 2), (1,)}

    def test_batched_ewma_matches_smooth_errors(self, rng):
        # Both sides of the row cut, one row included, byte for byte: NaN,
        # inf (whose recursion turns into NaN) and -0.0 keep their bits.
        for rows in (1, 5, EWMA_ROW_CUT - 1, EWMA_ROW_CUT, EWMA_ROW_CUT + 1):
            for window in (10, 2):
                stacked = rng.normal(size=(rows, 64))
                stacked[0, :3] = -0.0
                stacked[-1, 10:12] = [np.nan, -np.nan]
                stacked[rows // 2, 30] = np.inf
                stacked[rows // 2, 40] = -np.inf
                with np.errstate(invalid="ignore"):  # inf - inf is NaN
                    smoothed = batched_ewma(stacked, window)
                    expected = [smooth_errors(row, window) for row in stacked]
                assert smoothed.shape == stacked.shape
                for row, wanted in zip(smoothed, expected):
                    assert row.tobytes() == wanted.tobytes(), (rows, window)
        assert batched_ewma(np.zeros((0, 8)), 10).shape == (0, 8)

    @pytest.mark.parametrize("pattern", [
        [], [True], [False], [True, True, False, True],
        [False, True, True, False, False, True],
    ])
    def test_find_sequences_mask_matches_scan(self, pattern):
        mask = np.asarray(pattern, dtype=bool)
        assert find_sequences_mask(mask) == _find_sequences(mask)

    def test_find_sequences_mask_random(self, rng):
        for _ in range(25):
            mask = rng.random(40) < 0.4
            assert find_sequences_mask(mask) == _find_sequences(mask)
