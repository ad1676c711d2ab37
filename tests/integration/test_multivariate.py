"""End-to-end tests of the multivariate data plane.

The multivariate pipelines must thread (n, m) values through windowing,
modeling, per-channel error scoring and attribution in every plan mode
(fit / detect / batch / stream), emit ``(start, end, severity, channel)``
events, and — critically — leave the univariate path bitwise-unchanged
on every executor.
"""

import pytest

import reference
from repro.api.rest import SintelAPI
from repro.core.executor import get_executor
from repro.core.sintel import Sintel
from repro.data.signal import LABELS_KEY
from repro.data.synthetic import WorkloadGenerator
from repro.db.explorer import SintelExplorer
from repro.exceptions import PrimitiveError

EXECUTORS = ["serial", "threaded", "process"]

MV_PIPELINE = ("mv_dense_autoencoder", {"window_size": 30, "epochs": 6})


def _fit_detect(job):
    """Fit a hub pipeline and detect on the same data: one fan-out job."""
    name, options, data = job
    sintel = Sintel(name, **options)
    sintel.fit(data)
    return sintel.detect(data)


@pytest.fixture(scope="module")
def mv_signal():
    return WorkloadGenerator(seed=11, n_channels=3, length=500,
                             anomalies_per_signal=2).signal(0)


@pytest.fixture(scope="module")
def mv_events(mv_signal):
    name, options = MV_PIPELINE
    sintel = Sintel(name, **options)
    sintel.fit(mv_signal.to_array())
    return sintel, sintel.detect(mv_signal.to_array())


class TestMultivariateDetect:
    def test_events_carry_channel_column(self, mv_events):
        _, events = mv_events
        assert events, "the mv pipeline detected nothing on the fleet signal"
        for event in events:
            assert len(event) == 4
            start, end, severity, channel = event
            assert isinstance(channel, int)
            assert 0 <= channel < 3
            assert start <= end

    def test_detect_many_matches_detect(self, mv_signal, mv_events):
        sintel, events = mv_events
        batch = sintel.detect_many([mv_signal.to_array(),
                                    mv_signal.to_array()])
        assert batch[0] == events
        assert batch[1] == events

    def test_mv_lstm_pipeline_runs(self, mv_signal):
        sintel = Sintel("mv_lstm_dynamic_threshold", window_size=30, epochs=2)
        sintel.fit(mv_signal.to_array())
        for event in sintel.detect(mv_signal.to_array()):
            assert len(event) == 4

    def test_executor_parity(self, mv_signal, mv_events):
        _, expected = mv_events
        name, options = MV_PIPELINE
        job = (name, options, mv_signal.to_array())
        for executor in EXECUTORS:
            [events] = get_executor(executor).map(_fit_detect, [job])
            assert events == expected, executor

    def test_stream_events_carry_channel(self, mv_signal):
        name, options = MV_PIPELINE
        sintel = Sintel(name, **options)
        data = mv_signal.to_array()
        sintel.fit(data)
        runner = sintel.stream(window_size=200, warmup=60)
        for position in range(0, len(data), 50):
            runner.send(data[position:position + 50])
        for event in runner.close():
            payload = event.to_dict()
            if "channel" in payload:
                assert 0 <= payload["channel"] < 3

    def test_attribution_matches_labels(self, mv_signal, mv_events):
        """Sanity: on the seeded fleet signal the attribution is correct."""
        _, events = mv_events
        labels = mv_signal.metadata[LABELS_KEY]
        matched = 0
        for start, end, _severity, channel in events:
            for label in labels:
                if label["start"] <= end and label["end"] >= start:
                    assert channel in label["channels"]
                    matched += 1
                    break
        assert matched > 0


class TestChannelMismatch:
    def test_detect_on_another_channel_count_is_rejected(self):
        # Fitted on 2 channels, a 1-channel signal is an error, not a
        # silently rescaled table that detects nothing.
        two = WorkloadGenerator(seed=1, n_channels=2, length=400).signal(0)
        one = WorkloadGenerator(seed=1, length=400).signal(0)
        name, options = MV_PIPELINE
        sintel = Sintel(name, **options)
        sintel.fit(two.to_array())
        message = "SimpleImputer was fitted on 2 channels but received 1"
        with pytest.raises(PrimitiveError, match=message):
            sintel.detect(one.to_array())

        with SintelAPI(SintelExplorer()) as api:
            response = api.post("/detect", {
                "pipeline": name, "pipeline_options": options,
                "train": two.to_array().tolist(),
                "data": one.to_array().tolist(),
            })
        assert response.status == 400
        assert message in response.body["error"]["message"]

    @pytest.mark.parametrize("fitted, given", [(1, 2), (2, 1)])
    def test_azure_rejects_another_channel_count(self, fitted, given):
        # azure has no scaler: its imputer is the step that must notice.
        train, data = (WorkloadGenerator(seed=1, n_channels=channels,
                                         length=400).signal(0).to_array()
                       for channels in (fitted, given))
        sintel = Sintel("azure").fit(train)
        message = (f"SimpleImputer was fitted on {fitted} channels but "
                   f"received {given}")
        with pytest.raises(PrimitiveError, match=message):
            sintel.detect(data)

        with SintelAPI(SintelExplorer()) as api:
            response = api.post("/detect", {
                "pipeline": "azure", "train": train.tolist(),
                "data": data.tolist(),
            })
        assert response.status == 400
        assert message in response.body["error"]["message"]


class TestUnivariateUnchanged:
    def test_univariate_events_stay_3_tuples(self, small_signal):
        data = small_signal.to_array()
        sintel = Sintel("azure")
        sintel.fit(data)
        for event in sintel.detect(data):
            assert len(event) == 3

    def test_univariate_bitwise_identical_across_executors(self,
                                                           small_signal):
        job = ("azure", {}, small_signal.to_array())
        [expected] = get_executor(EXECUTORS[0]).map(_fit_detect, [job])
        for executor in EXECUTORS[1:]:
            [events] = get_executor(executor).map(_fit_detect, [job])
            assert events == expected, executor

    def test_univariate_bitwise_identical_to_reference(self, small_signal):
        # The reference interpreter runs azure's primitives one by one on
        # a plain dict: the engine's univariate context must match it.
        data = small_signal.to_array()
        sintel = Sintel("azure")
        sintel.fit(data)
        _, context = sintel.detect(data, visualization=True)
        spec = sintel.pipeline.spec
        reference.assert_same(
            context, reference.detect(spec, reference.fit(spec, data), data))

    def test_univariate_signal_through_mv_pipeline(self):
        """A 1-channel signal runs the mv pipeline and attributes channel 0."""
        signal = WorkloadGenerator(seed=3, n_channels=1, length=400).signal(0)
        name, options = MV_PIPELINE
        sintel = Sintel(name, **options)
        sintel.fit(signal.to_array())
        for event in sintel.detect(signal.to_array()):
            assert event[3] == 0
