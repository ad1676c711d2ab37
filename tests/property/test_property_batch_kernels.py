"""The exact batch kernels against their per-signal ``produce``, byte for byte.

Every primitive that declares ``supports_batch`` vectorizes
``produce_batch`` across signals, and every plan mode runs it: ``fit`` and
``detect`` as a batch of one, ``detect_batch`` and the fleet over many
signals. Hypothesis draws batches that mix lengths (0, 1 and shorter than
one window included), NaN and inf bursts, constant runs and tied values,
duplicate, irregular, reversed and shuffled timestamps, 1-2 channels, all
five aggregation methods, ``fixed_threshold`` on and off, varied window
portions and layouts, fitted scaler and imputer statistics (and tables
whose channel count differs from the fit), and for the two EWMA kernels
groups of one length just below, at and past
:data:`~repro.core.batch.EWMA_ROW_CUT`. Entry ``i`` of every
``produce_batch`` output must have the dtype, shape and bytes of
``produce`` on signal ``i``, over the whole batch and over a batch of
only its first signal; when a signal's ``produce`` raises,
``produce_batch`` must raise one of the failing signals' exceptions (same
type and message). Nudging one finite value of the batch output by one
ulp must break the comparison (the negative control), and every batch
kernel in the registry must have a case here.

``max_examples=150`` per kernel: about 20-25 s of tier-1 on 2 vCPUs for the
11 kernels.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch import EWMA_ROW_CUT
from repro.core.primitive import (
    get_primitive,
    get_primitive_class,
    list_primitives,
)

EXAMPLES = settings(max_examples=150, deadline=None)

#: Registry names of the batch kernels that have a property case below.
COVERED = set()


def kernel(name):
    """Register the decorated property test as the case of kernel ``name``."""
    def register(test):
        COVERED.add(name)
        return test
    return register


def _outcome(call):
    """``(result, None)``, or ``(None, (type, message))`` if ``call`` raises."""
    try:
        with warnings.catch_warnings():
            # All-NaN and empty reductions warn on both sides alike.
            warnings.simplefilter("ignore", RuntimeWarning)
            return call(), None
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        return None, (type(error), str(error))


def _same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


def _matches_loop(primitive, batch: dict, looped: list):
    """``produce_batch`` over ``batch`` against the looped outcomes.

    Returns the batch outputs, or ``None`` when some signal raised.
    """
    fused, error = _outcome(lambda: primitive.produce_batch(**batch))
    failures = [failure for _, failure in looped if failure is not None]
    if failures or error is not None:
        assert error in failures, (error, failures)
        return None
    for name in primitive.produce_output:
        assert len(fused[name]) == len(looped)
        for i, (expected, _) in enumerate(looped):
            assert _same(fused[name][i], expected[name]), (name, i)
    return fused


def assert_batch_is_loop(primitive, batch: dict):
    """Check the kernel against ``produce`` per signal, then the control.

    A batch of only the first signal, the shape in which ``fit`` and
    ``detect`` run every kernel, is checked first, then the whole batch.
    """
    size = len(next(iter(batch.values())))
    looped = [_outcome(lambda i=i: primitive.produce(
        **{name: values[i] for name, values in batch.items()}))
        for i in range(size)]
    _matches_loop(primitive, {name: values[:1]
                              for name, values in batch.items()}, looped[:1])
    fused = _matches_loop(primitive, batch, looped)
    if fused is None:
        return

    # Negative control: one ulp on one finite output value is caught.
    for name in primitive.produce_output:
        for i, (expected, _) in enumerate(looped):
            nudged = np.array(fused[name][i])
            finite = np.flatnonzero(np.isfinite(nudged)) \
                if nudged.dtype.kind == "f" else []
            if len(finite):
                flat = nudged.reshape(-1)
                flat[finite[0]] = np.nextafter(flat[finite[0]], np.inf)
                assert not _same(nudged, expected[name])
                return


@st.composite
def samples(draw, shape, signed=False):
    """Values of ``shape`` with optional ties, spikes, NaN/inf bursts and a
    constant run (along the first axis)."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal(shape)
    if not signed:
        values = np.abs(values)
    rows = shape[0]
    if draw(st.booleans()):
        values = np.round(values * 2) / 2
    if rows and draw(st.booleans()):
        spikes = rng.integers(0, rows, size=draw(st.integers(1, 3)))
        values[spikes] += rng.uniform(3.0, 10.0, size=len(spikes))[
            (slice(None),) + (np.newaxis,) * (len(shape) - 1)]
    for fill in (np.nan, np.inf, draw(st.floats(0.0, 5.0))):
        if rows and draw(st.booleans()):
            start = draw(st.integers(0, rows - 1))
            values[start:start + draw(st.integers(1, rows - start))] = fill
    return values


#: Batch sizes of one length around the EWMA row cut.
CUT_SIZES = [EWMA_ROW_CUT - 1, EWMA_ROW_CUT, EWMA_ROW_CUT + 1]


def _lengths(draw, values, cut_values=None):
    """1-6 lengths drawn from a pool of 1-3, so equal lengths stack.

    With ``cut_values``, one batch in four is instead one of its lengths
    repeated just below, at or past the EWMA row cut.
    """
    if cut_values is not None and not draw(st.integers(0, 3)):
        return [draw(cut_values)] * draw(st.sampled_from(CUT_SIZES))
    pool = draw(st.lists(values, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


def _cycle(batch: dict, size: int) -> dict:
    """Repeat every entry list cyclically up to ``size`` signals.

    Batch builders draw at most six signals; a larger cut group reuses
    them, which keeps generating it cheap.
    """
    return {name: [values[i % len(values)] for i in range(size)]
            for name, values in batch.items()}


def _index(draw, rows):
    return draw(st.integers(0, 1000)) + np.arange(rows) * draw(
        st.integers(1, 5))


# --------------------------------------------------------------------- #
# find_anomalies
# --------------------------------------------------------------------- #
@st.composite
def error_batches(draw):
    signed = draw(st.booleans())
    lengths = _lengths(draw, st.integers(0, 250) | st.sampled_from([0, 1, 9]))
    errors = [draw(samples((n,), signed=signed)) for n in lengths]
    return {"errors": errors, "index": [_index(draw, n) for n in lengths]}


find_anomalies_hyperparameters = st.fixed_dictionaries({
    "fixed_threshold": st.booleans(),
    "window_size_portion": st.floats(0.05, 1.0),
    "window_step_size_portion": st.floats(0.05, 1.0),
    "min_percent": st.floats(0.01, 0.5),
    "anomaly_padding": st.integers(0, 10),
})


@kernel("find_anomalies")
@given(batch=error_batches(), hyperparameters=find_anomalies_hyperparameters)
@EXAMPLES
def test_find_anomalies_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("find_anomalies", hyperparameters)
    assert_batch_is_loop(primitive, batch)


# --------------------------------------------------------------------- #
# time_segments_aggregate
# --------------------------------------------------------------------- #
@st.composite
def grids(draw):
    """Timestamps: regular, with duplicates, irregular, reversed or shuffled."""
    rows = draw(st.integers(0, 120) | st.sampled_from([0, 1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    start = float(draw(st.integers(-50, 1000)))
    spacing = draw(st.sampled_from([0.5, 1.0, 3.0, 600.0]))
    regular = start + spacing * np.arange(rows)
    kind = draw(st.sampled_from(
        ["regular", "duplicate", "irregular", "reversed", "shuffled"]))
    if kind == "duplicate" and rows:
        return np.sort(rng.choice(regular, size=rows))
    if kind == "irregular":
        return start + np.cumsum(rng.uniform(0.1, 3.0, size=rows))
    if kind == "reversed":
        return regular[::-1].copy()
    if kind == "shuffled":
        return rng.permutation(regular)
    return regular


@st.composite
def table_batches(draw):
    pool = draw(st.lists(grids(), min_size=1, max_size=3))
    channels = draw(st.integers(1, 2))
    tables = []
    for _ in range(draw(st.integers(1, 6))):
        timestamps = draw(st.sampled_from(pool))
        values = draw(samples((len(timestamps), channels), signed=True))
        tables.append(np.column_stack([timestamps, values]))
    return {"data": tables}


aggregation_hyperparameters = st.fixed_dictionaries({
    "method": st.sampled_from(["mean", "median", "min", "max", "sum"]),
    "interval": st.none() | st.sampled_from([0.5, 1.0, 2.5, 600.0]),
})


@kernel("time_segments_aggregate")
@given(batch=table_batches(), hyperparameters=aggregation_hyperparameters)
@EXAMPLES
def test_time_segments_aggregate_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("time_segments_aggregate", hyperparameters)
    assert_batch_is_loop(primitive, batch)


def test_time_segments_aggregate_long_segments_are_exact():
    """Segments of many samples, signed zeros among them: a reduction over
    the stacked group instead of per signal changes sums in the last ulp
    and the sign of a zero minimum."""
    rng = np.random.default_rng(1)
    timestamps = np.sort(rng.uniform(0.0, 10.0, 400))
    zeros = np.array([[0.5, 0.0], [0.5, -0.0]])
    for method in ["mean", "median", "min", "max", "sum"]:
        for channels in (1, 2):
            tables = [np.column_stack([timestamps, rng.choice(
                [0.0, -0.0, -1.0, 3.3, 1e16], size=(400, channels))
                * rng.standard_normal((400, channels))]) for _ in range(4)]
            primitive = get_primitive("time_segments_aggregate",
                                      {"method": method, "interval": 2.5})
            assert_batch_is_loop(primitive, {"data": tables})
            primitive = get_primitive("time_segments_aggregate",
                                      {"method": method, "interval": None})
            assert_batch_is_loop(primitive, {"data": [zeros] * 4})


# --------------------------------------------------------------------- #
# reconstruction_errors
# --------------------------------------------------------------------- #
@st.composite
def window_batches(draw):
    shapes = _lengths(
        draw,
        st.tuples(st.integers(0, 40) | st.just(1), st.integers(1, 12),
                  st.integers(1, 2)),
        cut_values=st.tuples(st.integers(1, 60), st.integers(1, 12),
                             st.integers(1, 2)))
    batch = {"y": [], "y_hat": [], "index": []}
    for windows, width, channels in shapes[:6]:
        y = draw(samples((windows, width, channels), signed=True))
        y_hat = draw(samples((windows, width, channels), signed=True))
        if channels == 1 and draw(st.booleans()):
            y_hat = y_hat[..., 0]  # flat predictions are reshaped like y
        batch["y"].append(y)
        batch["y_hat"].append(y_hat)
        batch["index"].append(_index(draw, windows))
    return _cycle(batch, len(shapes))


reconstruction_hyperparameters = st.fixed_dictionaries({
    "step_size": st.integers(1, 3),
    "smooth": st.booleans(),
    "smoothing_window": st.integers(1, 20),
    "aggregation": st.sampled_from(["median", "median", "mean"]),
})


@kernel("reconstruction_errors")
@given(batch=window_batches(), hyperparameters=reconstruction_hyperparameters)
@EXAMPLES
def test_reconstruction_errors_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("reconstruction_errors", hyperparameters)
    assert_batch_is_loop(primitive, batch)


# --------------------------------------------------------------------- #
# regression_errors
# --------------------------------------------------------------------- #
@st.composite
def prediction_batches(draw):
    """Targets ``(n,)`` or ``(n, t)`` and predictions ``(n,)`` or ``(n, 1)``;
    now and then a prediction one row short."""
    lengths = _lengths(draw, st.integers(0, 60) | st.sampled_from([0, 1]),
                       cut_values=st.integers(1, 200))
    signed = draw(st.booleans())
    width = draw(st.sampled_from([None, 1, 3]))
    batch = {"y": [], "y_hat": []}
    for rows in lengths[:6]:
        y = draw(samples((rows,) if width is None else (rows, width),
                         signed=signed))
        y_hat = draw(samples((rows,), signed=signed))
        if draw(st.booleans()):
            y_hat = y_hat[:, np.newaxis]
        if rows and not draw(st.integers(0, 20)):
            y_hat = y_hat[1:]
        batch["y"].append(y)
        batch["y_hat"].append(y_hat)
    return _cycle(batch, len(lengths))


@kernel("regression_errors")
@given(batch=prediction_batches(), hyperparameters=st.fixed_dictionaries({
    "smooth": st.booleans(), "smoothing_window": st.integers(1, 20)}))
@EXAMPLES
def test_regression_errors_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("regression_errors", hyperparameters)
    assert_batch_is_loop(primitive, batch)


# --------------------------------------------------------------------- #
# fixed_threshold
# --------------------------------------------------------------------- #
@kernel("fixed_threshold")
@given(batch=error_batches(), hyperparameters=st.fixed_dictionaries({
    "k": st.floats(1.0, 8.0), "anomaly_padding": st.integers(0, 10)}))
@EXAMPLES
def test_fixed_threshold_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("fixed_threshold", hyperparameters)
    assert_batch_is_loop(primitive, batch)


# --------------------------------------------------------------------- #
# SpectralResidual, rolling_window_sequences, cutoff_window_sequences
# --------------------------------------------------------------------- #
@st.composite
def series_batches(draw, max_rows=120):
    """``(n,)`` or ``(n, m)`` series with their timestamps, ``m`` shared by
    the batch; now and then an index one entry short."""
    channels = draw(st.integers(1, 2))
    flat = channels == 1 and draw(st.booleans())
    lengths = _lengths(draw, st.integers(0, max_rows)
                       | st.sampled_from([0, 1, 2, 7, 8]))
    batch = {"X": [], "index": []}
    for rows in lengths:
        batch["X"].append(draw(samples((rows,) if flat else (rows, channels),
                                       signed=True)))
        index = _index(draw, rows)
        if rows and not draw(st.integers(0, 20)):
            index = index[1:]
        batch["index"].append(index)
    return batch, channels


@kernel("SpectralResidual")
@given(drawn=series_batches(), data=st.data())
@EXAMPLES
def test_spectral_residual_batch_is_loop(drawn, data):
    batch, channels = drawn
    primitive = get_primitive("SpectralResidual", data.draw(
        st.fixed_dictionaries({
            "target_column": st.integers(0, channels - 1),
            "extend_points": st.integers(0, 8),
            "amplitude_window": st.integers(1, 30),
            "score_window": st.integers(3, 100)})))
    assert_batch_is_loop(primitive, batch)


@kernel("rolling_window_sequences")
@given(drawn=series_batches(max_rows=80), data=st.data())
@EXAMPLES
def test_rolling_window_sequences_batch_is_loop(drawn, data):
    batch, channels = drawn
    primitive = get_primitive("rolling_window_sequences", data.draw(
        st.fixed_dictionaries({
            "target_column": st.integers(0, channels - 1) | st.just("all"),
            "step_size": st.integers(1, 3),
            "window_size": st.integers(1, 40),
            "target_size": st.integers(1, 5)})))
    assert_batch_is_loop(primitive, batch)


@kernel("cutoff_window_sequences")
@given(drawn=series_batches(max_rows=80), hyperparameters=st.fixed_dictionaries({
    "step_size": st.integers(1, 3), "window_size": st.integers(1, 40)}))
@EXAMPLES
def test_cutoff_window_sequences_batch_is_loop(drawn, hyperparameters):
    primitive = get_primitive("cutoff_window_sequences", hyperparameters)
    assert_batch_is_loop(primitive, drawn[0])


# --------------------------------------------------------------------- #
# fitted elementwise kernels: SimpleImputer, MinMaxScaler, StandardScaler
# --------------------------------------------------------------------- #
@st.composite
def fitted_batches(draw):
    """A training table and a batch of tables with its channel count;
    1-D when that count is 1, now and then. In one batch of four, one
    table has another channel count, which ``produce`` and
    ``produce_batch`` must both reject (or both accept) alike."""
    channels = draw(st.integers(1, 3))
    train = draw(samples((draw(st.integers(1, 60)), channels), signed=True))
    flat = draw(st.booleans())
    lengths = _lengths(draw, st.integers(0, 60) | st.sampled_from([0, 1]))
    widths = [channels] * len(lengths)
    if not draw(st.integers(0, 3)):
        widths[draw(st.integers(0, len(lengths) - 1))] = draw(
            st.integers(1, 3).filter(lambda width: width != channels))
    batch = [draw(samples((rows,) if flat and width == 1 else (rows, width),
                          signed=True))
             for rows, width in zip(lengths, widths)]
    return train, {"X": batch}


fitted_hyperparameters = {
    "SimpleImputer": st.fixed_dictionaries({
        "strategy": st.sampled_from(["mean", "median", "constant"]),
        "fill_value": st.floats(-5.0, 5.0)}),
    "MinMaxScaler": st.fixed_dictionaries({
        "feature_range": st.sampled_from([(-1.0, 1.0), (0.0, 1.0),
                                          (-3.5, 2.25)])}),
    "StandardScaler": st.fixed_dictionaries({
        "with_mean": st.booleans(), "with_std": st.booleans()}),
}


@kernel("SimpleImputer")
@kernel("MinMaxScaler")
@kernel("StandardScaler")
@given(name=st.sampled_from(sorted(fitted_hyperparameters)),
       drawn=fitted_batches(), data=st.data())
@EXAMPLES
def test_fitted_elementwise_batch_is_loop(name, drawn, data):
    train, batch = drawn
    primitive = get_primitive(
        name, data.draw(fitted_hyperparameters[name]))
    with warnings.catch_warnings():
        # All-NaN training channels warn; the fitted statistic is NaN.
        warnings.simplefilter("ignore", RuntimeWarning)
        primitive.fit(X=train)
    assert_batch_is_loop(primitive, batch)


def test_every_batch_kernel_has_a_case():
    kernels = {name for name in list_primitives()
               if get_primitive_class(name).supports_batch
               and get_primitive_class(name).__module__.startswith("repro.")}
    assert kernels == COVERED
