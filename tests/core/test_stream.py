"""Tests for the streaming execution path (StreamRunner + detect_windows).

Every runner detects through its own copies of the pipeline's incremental
primitives, so streams never change ``detect`` or each other. A runner
never refits itself; its drift-triggered refits run through a one-lane
:class:`~repro.core.fleet.StreamScheduler`, as here.
"""

import time

import numpy as np
import pytest

from repro import Sintel, StreamRunner
from repro.core.fleet import StreamScheduler, TierPolicy
from repro.core.stream import detect_windows
from repro.data import generate_signal
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import NotFittedError, StreamError
from repro.streaming import PageHinkley


def _signal(length=600, seed=1):
    return generate_signal("s", length=length, n_anomalies=3, random_state=seed,
                           flavour="periodic", anomaly_types=("collective",))


@pytest.fixture(scope="module")
def fitted():
    data = _signal().to_array()
    sintel = Sintel("azure", k=4.0)
    sintel.fit(data)
    return sintel, data


class TestPartialDetect:
    def test_requires_fit(self):
        sintel = Sintel("azure")
        with pytest.raises(NotFittedError):
            detect_windows(sintel.pipeline, [])

    def test_matches_detect_on_same_window(self, fitted):
        sintel, data = fitted
        # One send over a window holding the whole signal is one detect.
        runner = StreamRunner(sintel.pipeline, window_size=len(data),
                              warmup=len(data), drift_detector=None)
        runner.send(data)
        batch = sintel.pipeline.detect(data)
        assert batch
        assert runner.anomalies() == [tuple(a) for a in batch]

    def test_clone_is_unfitted_same_config(self, fitted):
        sintel, _ = fitted
        clone = sintel.pipeline.clone()
        assert not clone.fitted
        assert clone.get_hyperparameters() == sintel.pipeline.get_hyperparameters()


class TestLaneState:
    """Each runner owns its incremental state (paper §5 serving)."""

    @pytest.fixture
    def workload(self):
        generator = WorkloadGenerator(seed=1, length=600)
        train, replay, other = (generator.signal(index).to_array()
                                for index in range(3))
        sintel = Sintel("dense_autoencoder", window_size=50, epochs=10)
        sintel.fit(train)
        return sintel, replay, other

    @staticmethod
    def _replay(runners_and_data, batch=50):
        for start in range(0, len(runners_and_data[0][1]), batch):
            for runner, data in runners_and_data:
                runner.send(data[start:start + batch])

    def test_streaming_leaves_detect_unchanged(self, workload):
        sintel, replay, _ = workload
        before = sintel.detect(replay)
        runner = sintel.stream(window_size=200, warmup=200,
                               drift_detector=None)
        self._replay([(runner, replay)])
        assert runner.anomalies()
        assert sintel.detect(replay) == before

    def test_second_stream_does_not_change_events(self, workload):
        sintel, replay, other = workload
        alone = sintel.stream(window_size=200, warmup=200,
                              drift_detector=None)
        self._replay([(alone, replay)])
        shared = sintel.stream(window_size=200, warmup=200,
                               drift_detector=None)
        tripled = other.copy()
        tripled[:, 1:] *= 3.0  # far outside the training range
        second = sintel.stream(window_size=200, warmup=200,
                               drift_detector=None)
        self._replay([(shared, replay), (second, tripled)])
        assert alone.anomalies()
        assert shared.anomalies() == alone.anomalies()

    def test_refit_in_place_reaches_an_open_stream(self, workload):
        sintel, replay, other = workload
        runner = StreamRunner(sintel.pipeline, window_size=len(replay),
                              warmup=len(replay), drift_detector=None)
        tripled = other.copy()
        tripled[:, 1:] *= 3.0
        sintel.fit(tripled)
        # The runner's incremental copies come from the new fit too.
        runner.send(replay)
        expected = [tuple(a) for a in sintel.detect(replay)]
        assert expected
        assert runner.anomalies() == expected


class TestStreamRunnerValidation:
    def test_requires_fitted_pipeline(self):
        sintel = Sintel("azure")
        with pytest.raises(NotFittedError):
            StreamRunner(sintel.pipeline)

    def test_sintel_stream_requires_fit(self):
        with pytest.raises(NotFittedError):
            Sintel("azure").stream()

    def test_rejects_bad_window(self, fitted):
        sintel, _ = fitted
        with pytest.raises(StreamError):
            StreamRunner(sintel.pipeline, window_size=4)
        with pytest.raises(StreamError):
            StreamRunner(sintel.pipeline, window_size=100, warmup=101)

    def test_rejects_non_monotonic_batches(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=200, drift_detector=None)
        runner.send(data[:50])
        with pytest.raises(StreamError):
            runner.send(data[:50])  # timestamps replayed
        with pytest.raises(StreamError):
            runner.send(data[60:50:-1])

    def test_rejects_malformed_batches(self, fitted):
        sintel, _ = fitted
        runner = sintel.stream(window_size=200, drift_detector=None)
        with pytest.raises(StreamError):
            runner.send(np.zeros((2, 2, 2)))
        assert runner.send(np.zeros((0, 2))) == []

    def test_rejects_non_finite_timestamps_before_buffering(self):
        data = WorkloadGenerator(seed=1, length=600).signal(1).to_array()
        sintel = Sintel("azure")
        sintel.fit(WorkloadGenerator(seed=1, length=600).signal(0).to_array())
        runner = sintel.stream(window_size=200, warmup=50,
                               drift_detector=None)
        clean = sintel.stream(window_size=200, warmup=50,
                              drift_detector=None)
        runner.send(data[:50])
        clean.send(data[:50])
        for bad in (np.nan, np.inf):
            batch = data[50:100].copy()
            batch[:, 0] = bad
            with pytest.raises(StreamError, match="finite"):
                runner.send(batch)
        assert runner.state()["window"] == 50
        for start in range(50, 250, 50):
            assert runner.send(data[start:start + 50]) == \
                clean.send(data[start:start + 50])
        assert runner.anomalies() == clean.anomalies()

    def test_rejects_a_column_count_change(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=200, drift_detector=None)
        runner.send(data[:50])
        wider = np.column_stack([data[50:100], data[50:100, 1]])
        with pytest.raises(StreamError, match="3 columns.*2 columns"):
            runner.send(wider)
        assert runner.state()["window"] == 50
        runner.send(data[50:100])
        assert runner.state()["window"] == 100

    def test_send_after_close_rejected(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=200, drift_detector=None)
        runner.close()
        with pytest.raises(StreamError):
            runner.send(data[:10])


class TestStreamEvents:
    def test_no_detection_before_warmup(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=600, warmup=64, drift_detector=None)
        assert runner.send(data[:32]) == []
        assert runner.state()["window"] == 32

    def test_stable_ids_across_batches(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=600, warmup=64, drift_detector=None)
        ids_by_interval = {}
        for start in range(0, len(data), 25):
            for event in runner.send(data[start:start + 25]):
                ids_by_interval.setdefault(event.event_id, []).append(
                    (event.start, event.end)
                )
        runner.close()
        # Every surviving event kept one id while its boundaries refined.
        final_ids = {event.event_id for event in runner.events}
        assert final_ids
        assert final_ids <= set(ids_by_interval)

    def test_events_close_as_window_slides(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=150, warmup=64, drift_detector=None)
        for start in range(0, len(data), 50):
            runner.send(data[start:start + 50])
        window_start = float(runner._buffer[0, 0])
        for event in runner.events:
            if event.end < window_start:
                assert event.status == "closed"

    def test_close_closes_open_events_and_fires_callback(self, fitted):
        sintel, data = fitted
        seen = []
        runner = StreamRunner(sintel.pipeline, window_size=600, warmup=64,
                              drift_detector=None, on_event=seen.append)
        for start in range(0, len(data), 50):
            runner.send(data[start:start + 50])
        runner.close()
        assert runner.events
        assert all(event.status == "closed" for event in runner.events)
        assert {event.event_id for event in seen} == {
            event.event_id for event in runner.events
        }
        assert runner.close() == []  # idempotent

    def test_event_serialization(self, fitted):
        sintel, data = fitted
        runner = sintel.stream(window_size=600, warmup=64, drift_detector=None)
        for start in range(0, len(data), 50):
            runner.send(data[start:start + 50])
        event = runner.events[0]
        payload = event.to_dict()
        assert payload["id"] == event.event_id
        assert payload["start"] == event.to_tuple()[0]


def _one_lane(pipeline, policy=None, clock=time.monotonic, **options):
    """A one-lane scheduler refitting inline: the single-stream refit path."""
    scheduler = StreamScheduler(policy=policy, refit_budget=1,
                                refit_sync=True, clock=clock)
    return scheduler, scheduler.add_stream(pipeline, **options)


class TestDriftRetrain:
    """Drift-triggered refits of one stream through a one-lane scheduler."""

    def _drifting_data(self, n=900, shift_at=500):
        rng = np.random.default_rng(3)
        values = rng.normal(0.0, 0.3, n)
        values[shift_at:] += 6.0
        return np.column_stack([np.arange(n, dtype=float), values])

    @staticmethod
    def _replay(scheduler, lane, data, start=300, step=40):
        for offset in range(start, len(data), step):
            scheduler.ingest(lane.lane_id, data[offset:offset + step])
            scheduler.run_round()

    def test_drift_triggers_background_retrain_and_swap(self):
        data = self._drifting_data()
        sintel = Sintel("azure", k=4.0)
        sintel.fit(data[:300])
        scheduler, lane = _one_lane(
            sintel, window_size=300, warmup=64,
            drift_detector=PageHinkley(threshold=15.0, min_samples=30))
        before = lane.runner.pipeline
        self._replay(scheduler, lane, data)
        scheduler.close_stream(lane.lane_id)
        state = lane.runner.state()
        assert state["drift"]["points"]
        assert state["retrains"] == 1  # one drift, one refit
        assert state["retrain_error"] is None
        assert lane.runner.pipeline is not before
        assert lane.runner.pipeline.fitted
        # No batch was dropped while the swap happened.
        assert state["samples_seen"] == len(data) - 300

    def test_monitor_reset_after_retrain(self):
        data = self._drifting_data()
        sintel = Sintel("azure", k=4.0)
        sintel.fit(data[:300])
        detector = PageHinkley(threshold=15.0, min_samples=30)
        scheduler, lane = _one_lane(sintel, window_size=300, warmup=64,
                                    drift_detector=detector)
        self._replay(scheduler, lane, data)
        scheduler.close_stream(lane.lane_id)
        assert lane.runner.retrains == 1
        # The detector restarted its cold-start warm-up after the swap.
        assert detector._count < len(data) - 300

    def test_no_retrain_when_disabled(self):
        data = self._drifting_data()
        sintel = Sintel("azure", k=4.0)
        sintel.fit(data[:300])
        scheduler, lane = _one_lane(
            sintel, window_size=300, warmup=64,
            drift_detector=PageHinkley(threshold=15.0, min_samples=30),
            retrain=False)
        before = lane.runner.pipeline
        self._replay(scheduler, lane, data)
        assert lane.tier == "hot"  # the drift is seen, never consumed
        scheduler.close_stream(lane.lane_id)
        assert lane.runner.retrains == 0
        assert lane.runner.pipeline is before
        assert lane.runner.state()["drift"]["points"]

    def test_retrain_failure_is_reported_not_raised(self, fitted):
        sintel, data = fitted
        scheduler, lane = _one_lane(sintel, window_size=200, warmup=8,
                                    drift_detector=None)
        scheduler.ingest(lane.lane_id, data[:100])
        scheduler.run_round()
        serving = lane.runner.pipeline
        # An empty snapshot fails inside fit.
        scheduler._refit("hot", lane, scheduler.standby.acquire(serving),
                         data[:0])
        assert lane.runner.retrain_error is not None
        assert lane.runner.retrains == 0
        assert lane.runner.pipeline is serving
        # Serving continues on the previous pipeline.
        scheduler.ingest(lane.lane_id, data[100:150])
        scheduler.run_round()
        assert lane.error is None
        assert lane.runner.samples_seen == 150


class TestRefitPlanReuse:
    """Refits of a one-lane scheduler reuse compiled plans.

    The scheduler's standby cache hands a singleton lane the pipeline
    its previous refit displaced, so the lane ping-pongs between two
    pipeline objects, and after the first two refit cycles neither of
    them ever lowers a plan again.
    """

    @staticmethod
    def _rows(start, count):
        timestamps = np.arange(start, start + count, dtype=float)
        return np.column_stack([timestamps, np.sin(timestamps / 9.0)])

    def _refitting_lane(self):
        """A lane that blows its SLA every cycle; ``cycle()`` refits it."""
        sintel = Sintel("azure")
        sintel.fit(self._rows(0, 300))
        clock = {"now": 0.0}
        scheduler, lane = _one_lane(
            sintel, policy=TierPolicy(sla_deadline=10.0),
            clock=lambda: clock["now"], window_size=64, warmup=32,
            drift_detector=None)
        cursor = [300]

        def cycle():
            # One detection round on the serving pipeline, then a refit.
            scheduler.ingest(lane.lane_id, self._rows(cursor[0], 40))
            cursor[0] += 40
            clock["now"] += 20.0
            scheduler.run_round()

        return scheduler, lane, cycle

    def test_compilation_count_constant_across_refits(self):
        scheduler, lane, cycle = self._refitting_lane()
        # Two warm-up cycles: the standby is cloned and both pipelines
        # compile their fit and stream-batch plans once.
        cycle()
        standby = lane.runner.pipeline
        cycle()
        serving = lane.runner.pipeline
        compiled = (serving.plan_compilations, standby.plan_compilations)
        for _ in range(3):
            cycle()
            # The same two pipeline objects keep swapping roles...
            assert lane.runner.pipeline in (serving, standby)
        assert lane.runner.retrains == 5
        assert lane.runner.retrain_error is None
        assert scheduler.stats()["standby"]["misses"] == 1
        # ...and neither ever compiled another plan.
        assert (serving.plan_compilations,
                standby.plan_compilations) == compiled

    def test_swap_ping_pongs_serving_and_standby(self):
        scheduler, lane, cycle = self._refitting_lane()
        original = lane.runner.pipeline
        cycle()
        first = lane.runner.pipeline
        assert first is not original  # a cold clone took over...
        assert scheduler.standby.size == 1  # ...and the original waits
        cycle()
        assert lane.runner.pipeline is original  # swapped straight back
        cycle()
        assert lane.runner.pipeline is first
        assert lane.runner.retrain_error is None

    def test_refitted_stream_still_detects(self):
        scheduler, lane, cycle = self._refitting_lane()
        for _ in range(4):
            cycle()
        assert lane.runner.pipeline.fitted
        scheduler.ingest(lane.lane_id, self._rows(300 + 4 * 40, 40))
        scheduler.fleet.run_round()
        assert lane.error is None
        assert lane.runner.samples_seen == 5 * 40
        scheduler.close_stream(lane.lane_id)
