"""The exact batch kernels against their per-signal ``produce``, byte for byte.

``find_anomalies``, ``time_segments_aggregate`` and
``reconstruction_errors`` vectorize ``produce_batch`` across signals.
Hypothesis draws batches that mix lengths (0, 1 and shorter than one
window included), NaN and inf bursts, constant runs and tied values,
duplicate, irregular, reversed and shuffled timestamps, 1-2 channels, all
five aggregation methods, ``fixed_threshold`` on and off and varied window
portions. Entry ``i`` of every ``produce_batch`` output must have the
dtype, shape and bytes of ``produce`` on signal ``i``; when a signal's
``produce`` raises, ``produce_batch`` must raise one of the failing
signals' exceptions (same type and message). Nudging one finite value of
the batch output by one ulp must break the comparison (the negative
control).

``max_examples=150`` per kernel: about 8 s of tier-1 on 2 vCPUs.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.primitive import get_primitive

EXAMPLES = settings(max_examples=150, deadline=None)


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


def assert_batch_is_loop(primitive, batch: dict):
    """Check the kernel against ``produce`` per signal, then the control."""
    size = len(next(iter(batch.values())))
    looped = [_outcome(lambda i=i: primitive.produce(
        **{name: values[i] for name, values in batch.items()}))
        for i in range(size)]
    fused, error = _outcome(lambda: primitive.produce_batch(**batch))
    failures = [failure for _, failure in looped if failure is not None]
    if failures or error is not None:
        assert error in failures, (error, failures)
        return
    for name in primitive.produce_output:
        assert len(fused[name]) == size
        for i, (expected, _) in enumerate(looped):
            assert _same(fused[name][i], expected[name]), (name, i)

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


def _lengths(draw, values):
    """1-6 lengths drawn from a pool of 1-3, so equal lengths stack."""
    pool = draw(st.lists(values, min_size=1, max_size=3))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))


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
    shapes = _lengths(draw, st.tuples(
        st.integers(0, 40) | st.just(1), st.integers(1, 12),
        st.integers(1, 2)))
    batch = {"y": [], "y_hat": [], "index": []}
    for windows, width, channels in shapes:
        y = draw(samples((windows, width, channels), signed=True))
        y_hat = draw(samples((windows, width, channels), signed=True))
        if channels == 1 and draw(st.booleans()):
            y_hat = y_hat[..., 0]  # flat predictions are reshaped like y
        batch["y"].append(y)
        batch["y_hat"].append(y_hat)
        batch["index"].append(_index(draw, windows))
    return batch


reconstruction_hyperparameters = st.fixed_dictionaries({
    "step_size": st.integers(1, 3),
    "smooth": st.booleans(),
    "smoothing_window": st.integers(1, 20),
    "aggregation": st.sampled_from(["median", "median", "mean"]),
})


@given(batch=window_batches(), hyperparameters=reconstruction_hyperparameters)
@EXAMPLES
def test_reconstruction_errors_batch_is_loop(batch, hyperparameters):
    primitive = get_primitive("reconstruction_errors", hyperparameters)
    assert_batch_is_loop(primitive, batch)
