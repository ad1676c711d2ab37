"""Tests for the live stream ingestion API (/streams)."""

import json
import sys
import threading

import numpy as np
import pytest

from repro.api import SintelAPI
from repro.api.streams import StreamManager, build_drift_detector
from repro.data import generate_signal
from repro.db import SintelExplorer
from repro.streaming import DistributionDriftDetector, PageHinkley


@pytest.fixture
def api():
    api = SintelAPI(SintelExplorer())
    yield api
    api.close()


def _signal_data(length=600, seed=5):
    signal = generate_signal("live", length=length, n_anomalies=2,
                             random_state=seed, flavour="periodic",
                             anomaly_types=("collective",))
    return signal.to_array()


def _open_stream(api, data, **extra):
    body = {
        "pipeline": "azure",
        "data": data[:200].tolist(),
        "pipeline_options": {"k": 4.0},
        "stream_options": {"window_size": 400, "warmup": 64},
        "drift": False,
    }
    body.update(extra)
    return api.post("/streams", body)


class TestStreamLifecycle:
    def test_open_push_poll_close(self, api):
        data = _signal_data()
        created = _open_stream(api, data)
        assert created.status == 201
        stream_id = created.body["id"]
        assert created.body["status"] == "open"

        for start in range(200, 600, 50):
            accepted = api.post(f"/streams/{stream_id}/data",
                                {"data": data[start:start + 50].tolist()})
            assert accepted.status == 202
        api.streams.wait_idle(stream_id, timeout=60)

        state = api.get(f"/streams/{stream_id}")
        assert state.ok
        assert state.body["samples_seen"] == 400
        assert state.body["lag"] == {"batches": 0, "samples": 0}
        assert state.body["events"]
        for key in ("retrains", "retrain_in_flight", "last_retrain_at",
                    "retrain_error", "fleet"):
            assert key in state.body
        json.dumps(state.body)  # the whole payload is JSON-serializable

        assert api.delete(f"/streams/{stream_id}").status == 204
        assert api.get(f"/streams/{stream_id}").body["status"] == "closed"

    def test_listing_and_status_filter(self, api):
        data = _signal_data()
        stream_id = _open_stream(api, data).body["id"]
        assert len(api.get("/streams").body["streams"]) == 1
        api.delete(f"/streams/{stream_id}")
        assert api.get("/streams",
                       query={"status": "open"}).body["streams"] == []
        assert len(api.get("/streams",
                           query={"status": "closed"}).body["streams"]) == 1

    def test_push_to_closed_stream_400(self, api):
        data = _signal_data()
        stream_id = _open_stream(api, data).body["id"]
        api.delete(f"/streams/{stream_id}")
        rejected = api.post(f"/streams/{stream_id}/data",
                            {"data": data[200:250].tolist()})
        assert rejected.status == 400

    def test_unknown_stream_404(self, api):
        assert api.get("/streams/stream-99").status == 404
        assert api.delete("/streams/stream-99").status == 404
        assert api.post("/streams/stream-99/data", {"data": []}).status == 404

    def test_unknown_pipeline_400(self, api):
        response = api.post("/streams", {"pipeline": "no-such",
                                         "data": [[0, 1], [1, 2]]})
        assert response.status == 400

    def test_bad_batch_marks_session_error(self, api):
        data = _signal_data()
        stream_id = _open_stream(api, data).body["id"]
        # Replaying old timestamps is an ingestion error.
        api.post(f"/streams/{stream_id}/data", {"data": data[:50].tolist()})
        api.post(f"/streams/{stream_id}/data", {"data": data[:50].tolist()})
        api.streams.wait_idle(stream_id, timeout=60)
        state = api.get(f"/streams/{stream_id}").body
        assert state["status"] == "error"
        assert "error" in state

    def test_unknown_stream_option_400(self, api):
        data = _signal_data()
        response = _open_stream(
            api, data, stream_options={"window_size": 400, "bogus": 1}
        )
        assert response.status == 400
        assert "bogus" in response.body["error"]["message"]
        # Reserved runner arguments cannot be smuggled through either.
        response = _open_stream(
            api, data, stream_options={"drift_detector": "default"}
        )
        assert response.status == 400
        # Refits belong to the scheduler: the retired hysteresis is gone.
        response = _open_stream(
            api, data, stream_options={"retrain_hysteresis": 5}
        )
        assert response.status == 400
        assert "retrain_hysteresis" in response.body["error"]["message"]

    def test_poll_while_ingesting_never_errors(self, api):
        # GET /streams/<id> from the request thread races the pump's
        # event retraction; the registry lock must keep polls at 200.
        data = _signal_data()
        stream_id = _open_stream(api, data).body["id"]
        for start in range(200, 600, 10):
            api.post(f"/streams/{stream_id}/data",
                     {"data": data[start:start + 10].tolist()})
            response = api.get(f"/streams/{stream_id}")
            assert response.ok, response.body
        api.streams.wait_idle(stream_id, timeout=60)

    def test_capacity_rejection(self, api):
        api.streams.max_sessions = 1
        data = _signal_data()
        assert _open_stream(api, data).status == 201
        rejected = _open_stream(api, data)
        assert rejected.status == 429
        assert rejected.body["error"]["code"] == "capacity_exhausted"
        assert "capacity" in rejected.body["error"]["message"]
        assert rejected.headers["Retry-After"]


class TestStreamOrderingAndPersistence:
    def test_batches_processed_in_order(self, api):
        data = _signal_data()
        stream_id = _open_stream(api, data).body["id"]
        # Push every batch at once; one batch per lane per round must keep
        # order (out-of-order processing would raise on non-monotonic
        # timestamps).
        for start in range(200, 600, 20):
            api.post(f"/streams/{stream_id}/data",
                     {"data": data[start:start + 20].tolist()})
        api.streams.wait_idle(stream_id, timeout=60)
        state = api.get(f"/streams/{stream_id}").body
        assert state["status"] == "open"
        assert state["samples_seen"] == 400

    def test_concurrent_pushes_to_many_sessions_are_all_served(self, api):
        # More pushing threads than cores, with a short switch interval,
        # race the pump's rounds: no batch may be lost, reordered or left
        # queued behind an idle lane.
        data = _signal_data()
        ids = [_open_stream(api, data, fleet_group="stress").body["id"]
               for _ in range(4)]

        def push(stream_id):
            for start in range(200, 600, 20):
                api.post(f"/streams/{stream_id}/data",
                         {"data": data[start:start + 20].tolist()})

        threads = [threading.Thread(target=push, args=(stream_id,))
                   for stream_id in ids]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for stream_id in ids:
            assert api.streams.wait_idle(stream_id, timeout=60)
            state = api.get(f"/streams/{stream_id}").body
            assert state["status"] == "open"
            assert state["samples_seen"] == 400
            assert state["lag"] == {"batches": 0, "samples": 0}

    def test_sessions_and_events_persisted(self, api):
        data = _signal_data()
        stream_id = _open_stream(api, data, signal_id="sig-live").body["id"]
        for start in range(200, 600, 50):
            api.post(f"/streams/{stream_id}/data",
                     {"data": data[start:start + 50].tolist()})
        api.streams.wait_idle(stream_id, timeout=60)
        api.delete(f"/streams/{stream_id}")

        streams = api.explorer.store["streams"].find()
        assert len(streams) == 1
        assert streams[0]["status"] == "closed"
        assert streams[0]["signal_id"] == "sig-live"
        assert streams[0]["stats"]["samples_seen"] == 400

        events = api.explorer.get_events(signal_id="sig-live")
        closed = api.get(f"/streams/{stream_id}").body["events_closed"]
        assert len(events) == closed > 0
        assert all(event["source"] == "machine" for event in events)

    def test_drift_spec_resolution(self):
        assert build_drift_detector(None) == "default"
        assert build_drift_detector(True) == "default"
        assert build_drift_detector(False) is None
        detector = build_drift_detector({"detector": "page_hinkley",
                                         "threshold": 9.0})
        assert isinstance(detector, PageHinkley)
        assert detector.threshold == 9.0
        assert isinstance(build_drift_detector({"detector": "distribution"}),
                          DistributionDriftDetector)
        with pytest.raises(ValueError):
            build_drift_detector({"detector": "quantum"})
        with pytest.raises(ValueError):
            build_drift_detector("nonsense")

    def test_manager_shutdown_closes_sessions(self):
        manager = StreamManager(explorer=None)
        data = _signal_data()
        session = manager.open("azure", data[:200],
                               pipeline_options={"k": 4.0},
                               drift=False, window_size=400, warmup=64)
        manager.push(session.stream_id, data[200:260])
        manager.shutdown()
        assert session.status == "closed"
        with pytest.raises(ValueError):
            manager.push(session.stream_id, data[260:300])

    @staticmethod
    def _open_drifting_stream(api, **stream_options):
        rng = np.random.default_rng(11)
        n = 900
        values = rng.normal(0.0, 0.2, n)
        values[500:] += 5.0
        data = np.column_stack([np.arange(n, dtype=float), values])
        created = api.post("/streams", {
            "pipeline": "azure",
            "data": data[:300].tolist(),
            "pipeline_options": {"k": 4.0},
            "stream_options": {"window_size": 300, "warmup": 64,
                               **stream_options},
            "drift": {"detector": "page_hinkley", "threshold": 15.0,
                      "min_samples": 30},
        })
        stream_id = created.body["id"]
        for start in range(300, n, 40):
            api.post(f"/streams/{stream_id}/data",
                     {"data": data[start:start + 40].tolist()})
        assert api.streams.wait_idle(stream_id, timeout=120)
        return api.get(f"/streams/{stream_id}").body

    def test_stream_with_drift_and_retrain_via_api(self, api):
        # The session is the only lane of the API's scheduler; refitting
        # inline makes the refit land before the lane drains.
        api.streams.scheduler.refit_sync = True
        state = self._open_drifting_stream(api)
        assert state["drift"]["points"]
        assert state["retrains"] == 1
        assert state["retrain_in_flight"] is False
        assert state["last_retrain_at"] is not None

    def test_retrain_false_session_never_refits(self, api):
        api.streams.scheduler.refit_sync = True
        state = self._open_drifting_stream(api, retrain=False)
        assert state["drift"]["points"]
        assert state["retrains"] == 0
        assert state["fleet"]["tier"] == "hot"


class TestFleetSessions:
    def test_fleet_sessions_via_api(self, api):
        data = _signal_data()
        # Every session is a fleet lane; the legacy "fleet" and
        # "executor" keys are accepted and ignored.
        created = _open_stream(
            api, data, fleet=True, executor="process",
            stream_options={"window_size": 400, "warmup": 64})
        assert created.status == 201
        stream_id = created.body["id"]
        assert created.body["fleet"]["tier"] in ("hot", "warm", "cold")

        for start in range(200, 600, 50):
            accepted = api.post(f"/streams/{stream_id}/data",
                                {"data": data[start:start + 50].tolist()})
            assert accepted.status == 202
        assert api.streams.wait_idle(stream_id, timeout=60)

        state = api.get(f"/streams/{stream_id}").body
        assert state["samples_seen"] == 400
        assert state["lag"] == {"batches": 0, "samples": 0}
        assert state["events"]
        assert state["fleet"]["group"] is None
        json.dumps(state)

        assert api.delete(f"/streams/{stream_id}").status == 204
        assert api.get(f"/streams/{stream_id}").body["status"] == "closed"

    def test_fleet_group_shares_one_fitted_pipeline(self, api):
        data = _signal_data()
        first = _open_stream(
            api, data, fleet_group="shared",
            stream_options={"window_size": 400, "warmup": 64})
        second = _open_stream(
            api, data, fleet_group="shared",
            stream_options={"window_size": 400, "warmup": 64})
        assert first.status == second.status == 201
        # One group, one fitted base: the second open skipped fitting.
        assert api.streams.scheduler.fleet.stats()["groups"] == 1

        for start in range(200, 600, 50):
            for created in (first, second):
                api.post(f"/streams/{created.body['id']}/data",
                         {"data": data[start:start + 50].tolist()})
        for created in (first, second):
            assert api.streams.wait_idle(created.body["id"], timeout=60)
            state = api.get(f"/streams/{created.body['id']}").body
            assert state["samples_seen"] == 400
            assert state["fleet"]["group"] == "shared"

        # A conflicting configuration cannot join the group.
        rejected = _open_stream(
            api, data, fleet_group="shared", pipeline_options={"k": 9.0},
            stream_options={"window_size": 400, "warmup": 64})
        assert rejected.status == 400
        assert "different pipeline configuration" \
            in rejected.body["error"]["message"]

    def test_fleet_bad_batch_scopes_error_to_session(self, api):
        data = _signal_data()
        bad = _open_stream(
            api, data, fleet=True,
            stream_options={"window_size": 400, "warmup": 64}).body["id"]
        good = _open_stream(
            api, data, fleet=True,
            stream_options={"window_size": 400, "warmup": 64}).body["id"]
        # Replaying old timestamps is an ingestion error on the lane.
        api.post(f"/streams/{bad}/data", {"data": data[:50].tolist()})
        api.post(f"/streams/{bad}/data", {"data": data[:50].tolist()})
        api.post(f"/streams/{good}/data", {"data": data[200:250].tolist()})
        api.streams.wait_idle(bad, timeout=60)
        api.streams.wait_idle(good, timeout=60)
        assert api.get(f"/streams/{bad}").body["status"] == "error"
        assert api.get(f"/streams/{good}").body["status"] == "open"

    def test_fleet_sessions_persist_through_db(self, api):
        data = _signal_data()
        stream_id = _open_stream(
            api, data, fleet=True, signal_id="sig-fleet",
            stream_options={"window_size": 400, "warmup": 64}).body["id"]
        for start in range(200, 600, 50):
            api.post(f"/streams/{stream_id}/data",
                     {"data": data[start:start + 50].tolist()})
        api.streams.wait_idle(stream_id, timeout=60)
        api.delete(f"/streams/{stream_id}")

        streams = api.explorer.store["streams"].find()
        assert len(streams) == 1
        assert streams[0]["status"] == "closed"
        assert api.explorer.get_events(signal_id="sig-fleet")
