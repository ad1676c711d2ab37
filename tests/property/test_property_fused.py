"""The fused and float32 batch planes within tolerance of the exact plane.

Hypothesis draws batches of 1 to 3 labeled workload signals of 60 to 400
rows. On each of four pipelines with fused NN forwards, fitted once per
module with a small window and few epochs, the fused batch plan
(``exact=False``) and the reduced-precision plan (``exact=False,
precision="float32"``) must reproduce every float ndarray of the exact
plan's final context, the anomalies included, within ``np.allclose(
rtol=PARITY_RTOL, atol=PARITY_ATOL, equal_nan=True)``, shape for shape:
a different number of anomalies fails. The exact plane itself is pinned
to ``tests/reference.py`` bit for bit by
``tests/core/test_reference_parity.py``. Moving one ``y_hat`` element
of either plane by twice its bound must break the comparison (the
negative control).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.batch import PARITY_ATOL, PARITY_RTOL
from repro.core.pipeline import Pipeline
from repro.data.synthetic import WorkloadGenerator
from repro.pipelines import get_pipeline_spec

PIPELINES = ("dense_autoencoder", "lstm_autoencoder",
             "lstm_dynamic_threshold", "tadgan")

#: The tolerance planes, as ``(exact, precision)`` batch-plan keys.
PLANES = {"fused": (False, None), "float32": (False, "float32")}


@st.composite
def batches(draw):
    """1 to 3 labeled workload signals of 60 to 400 rows each."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return [WorkloadGenerator(seed=seed, n_channels=1,
                              length=draw(st.integers(60, 400)),
                              anomalies_per_signal=2).signal(index).to_array()
            for index in range(draw(st.integers(1, 3)))]


@pytest.fixture(scope="module", params=PIPELINES)
def pipeline(request):
    train = WorkloadGenerator(seed=5, n_channels=1, length=300,
                              anomalies_per_signal=2).signal(0).to_array()
    spec = get_pipeline_spec(request.param, window_size=20, epochs=2)
    return Pipeline(spec).fit(train)


def _context(pipeline, signals, exact=True, precision=None) -> dict:
    """The final context of one batch plan run over ``signals``."""
    plan = pipeline.compiled_plan("batch", exact=exact, precision=precision)
    context, _ = plan.run({"data": list(signals),
                           "events": [None] * len(signals)})
    return context


def assert_close(actual: dict, expected: dict) -> None:
    """Every float ndarray of ``expected`` is allclose to ``actual``'s."""
    assert actual.keys() == expected.keys()
    for name, values in expected.items():
        for index, value in enumerate(values):
            if not (isinstance(value, np.ndarray)
                    and np.issubdtype(value.dtype, np.floating)):
                continue
            where = f"{name}[{index}]"
            other = actual[name][index]
            assert other.shape == value.shape, where
            assert np.allclose(other, value, rtol=PARITY_RTOL,
                               atol=PARITY_ATOL, equal_nan=True), where


@given(signals=batches())
@settings(max_examples=20, deadline=None)
def test_tolerance_planes_match_exact_plane(pipeline, signals):
    expected = _context(pipeline, signals)
    for exact, precision in PLANES.values():
        actual = _context(pipeline, signals, exact=exact,
                          precision=precision)
        assert_close(actual, expected)
        moved = dict(actual, y_hat=[entry.copy()
                                    for entry in actual["y_hat"]])
        target = expected["y_hat"][0].flat[0]
        moved["y_hat"][0].flat[0] = target + 2 * (
            PARITY_ATOL + PARITY_RTOL * abs(target))
        with pytest.raises(AssertionError):
            assert_close(moved, expected)
