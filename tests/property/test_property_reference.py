"""``detect`` against the reference interpreter on generated signals.

Hypothesis draws signals of 1 to 400 rows, each optionally carrying a
burst of NaNs and a constant run. ``detect`` on a fitted azure and arima
(window 30) pipeline must reproduce the outcome of ``tests/reference.py``
running the same fitted state: either both raise the same exception type
with the same message, or the final contexts are equal bit for bit — and
stop being equal once one value of the engine's context moves one ulp
(the negative control). Each pipeline is fitted once per module, by the
engine and by the reference.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from repro.core.pipeline import Pipeline
from repro.data.synthetic import WorkloadGenerator
from repro.pipelines import get_pipeline_spec

PIPELINES = {"arima": {"window_size": 30}, "azure": {}}


@st.composite
def signals(draw):
    """A ``(timestamp, value)`` array with optional NaN and constant runs."""
    rows = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = np.sin(np.arange(rows) / 12.0) + 0.3 * rng.standard_normal(rows)
    for fill in (np.nan, draw(st.floats(-5.0, 5.0))):
        if draw(st.booleans()):
            start = draw(st.integers(0, rows - 1))
            values[start:start + draw(st.integers(1, rows - start))] = fill
    return np.column_stack([np.arange(rows, dtype=float), values])


def _outcome(call):
    """``(result, None)``, or ``(None, (type, message))`` if ``call`` raises."""
    try:
        return call(), None
    except Exception as error:  # noqa: BLE001 - the outcome is compared
        return None, (type(error), str(error))


@pytest.fixture(scope="module", params=sorted(PIPELINES))
def fitted(request):
    """One pipeline fitted by the engine and by the reference."""
    spec = get_pipeline_spec(request.param, **PIPELINES[request.param])
    train = WorkloadGenerator(seed=5, n_channels=1, length=300,
                              anomalies_per_signal=2).signal(0).to_array()
    return spec, Pipeline(spec).fit(train), reference.fit(spec, train)


# An all-NaN aggregation segment warns on both sides alike.
@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
@given(data=signals())
@settings(max_examples=100, deadline=None)
def test_detect_matches_reference(fitted, data):
    spec, pipeline, primitives = fitted
    context, error = _outcome(
        lambda: pipeline.detect(data, visualization=True)[1])
    expected, expected_error = _outcome(
        lambda: reference.detect(spec, primitives, data))
    assert error == expected_error
    if error is None:
        reference.assert_same(context, expected)
        with pytest.raises(AssertionError):
            reference.assert_same(reference.nudge(context), expected)
