"""Tests for the REST-style API router."""

import json
import threading
import time

import pytest

from repro.api import Response, SintelAPI
from repro.db import SintelExplorer
from repro.exceptions import CapacityError


@pytest.fixture
def api():
    api = SintelAPI(SintelExplorer())
    yield api
    api.close()


@pytest.fixture
def api_with_event(api):
    api.post("/datasets", {"name": "NASA"})
    dataset_id = api.get("/datasets").body["items"][0]["_id"]
    # Register a signal directly through the explorer (no upload endpoint).
    from repro.data import generate_signal

    signal = generate_signal("sig-1", length=100, n_anomalies=1, random_state=0)
    signal_id = api.explorer.add_signal(dataset_id, signal)
    response = api.post("/events", {
        "signal_id": signal_id, "start_time": 10, "stop_time": 20,
        "source": "machine", "signalrun_id": "run-1",
    })
    return api, signal_id, response.body["id"]


class TestRouting:
    def test_unknown_route_404(self, api):
        assert api.get("/spaceships").status == 404

    def test_wrong_method_405(self, api):
        assert api.handle("DELETE", "/datasets").status == 405

    def test_response_json_serialization(self, api):
        response = api.get("/pipelines")
        assert response.ok
        assert "pipelines" in json.loads(response.json())

    def test_pipelines_listed(self, api):
        body = api.get("/pipelines").body
        assert "lstm_dynamic_threshold" in body["pipelines"]


class TestDatasetsAndSignals:
    def test_create_and_list_datasets(self, api):
        created = api.post("/datasets", {"name": "YAHOO"})
        assert created.status == 201
        listed = api.get("/datasets")
        assert listed.body["items"][0]["name"] == "YAHOO"

    def test_duplicate_dataset_400(self, api):
        api.post("/datasets", {"name": "NAB"})
        duplicate = api.post("/datasets", {"name": "NAB"})
        assert duplicate.status == 409
        assert duplicate.body["error"]["code"] == "conflict"

    def test_missing_field_400(self, api):
        assert api.post("/datasets", {}).status == 400

    def test_signals_filtered_by_dataset(self, api_with_event):
        api, signal_id, _ = api_with_event
        response = api.get("/signals")
        assert len(response.body["items"]) == 1
        assert response.body["items"][0]["_id"] == signal_id


class TestEvents:
    def test_create_and_get_event(self, api_with_event):
        api, _, event_id = api_with_event
        fetched = api.get(f"/events/{event_id}")
        assert fetched.ok
        assert fetched.body["start_time"] == 10

    def test_list_events_by_signal(self, api_with_event):
        api, signal_id, _ = api_with_event
        listed = api.get("/events", query={"signal_id": signal_id})
        assert len(listed.body["items"]) == 1
        assert listed.body["total"] == 1

    def test_patch_event(self, api_with_event):
        api, _, event_id = api_with_event
        patched = api.patch(f"/events/{event_id}", {"stop_time": 30})
        assert patched.ok
        assert patched.body["stop_time"] == 30

    def test_patch_invalid_boundaries_400(self, api_with_event):
        api, _, event_id = api_with_event
        assert api.patch(f"/events/{event_id}", {"stop_time": 1}).status == 400

    def test_delete_event(self, api_with_event):
        api, _, event_id = api_with_event
        assert api.delete(f"/events/{event_id}").status == 204
        assert api.get(f"/events/{event_id}").status == 404

    def test_get_missing_event_404(self, api):
        assert api.get("/events/unknown-id").status == 404

    def test_invalid_event_payload_400(self, api_with_event):
        api, signal_id, _ = api_with_event
        response = api.post("/events", {"signal_id": signal_id, "start_time": 5})
        assert response.status == 400


class TestAnnotationsAndComments:
    def test_annotate_event(self, api_with_event):
        api, _, event_id = api_with_event
        created = api.post(f"/events/{event_id}/annotations",
                           {"user": "ada", "tag": "anomaly"})
        assert created.status == 201
        listed = api.get(f"/events/{event_id}/annotations")
        assert len(listed.body["annotations"]) == 1
        assert listed.body["annotations"][0]["tag"] == "anomaly"

    def test_invalid_tag_400(self, api_with_event):
        api, _, event_id = api_with_event
        response = api.post(f"/events/{event_id}/annotations",
                            {"user": "ada", "tag": "meh"})
        assert response.status == 400

    def test_comment_discussion_panel(self, api_with_event):
        api, _, event_id = api_with_event
        api.post(f"/events/{event_id}/comments",
                 {"user": "ada", "text": "eclipse, not an anomaly"})
        api.post(f"/events/{event_id}/comments",
                 {"user": "bob", "text": "agreed"})
        listed = api.get(f"/events/{event_id}/comments")
        assert len(listed.body["comments"]) == 2

    def test_annotation_on_missing_event_404(self, api):
        response = api.post("/events/ghost/annotations",
                            {"user": "ada", "tag": "anomaly"})
        assert response.status == 404

    def test_response_repr_and_ok(self):
        response = Response(204, {})
        assert response.ok
        assert not Response(500, {}).ok


class TestJobs:
    def _detect_body(self):
        from repro.data import generate_signal

        signal = generate_signal("job-sig", length=120, n_anomalies=1,
                                 random_state=3)
        return {"task": "detect", "pipeline": "azure",
                "data": signal.to_array().tolist()}

    def test_detect_job_lifecycle(self, api):
        # Pipelines carry no executor: the legacy key is ignored.
        accepted = api.post("/jobs", dict(self._detect_body(),
                                          executor="process"))
        assert accepted.status == 202
        job_id = accepted.body["id"]
        assert accepted.body["status"] in ("pending", "running")

        api.jobs.wait(job_id, timeout=60)
        fetched = api.get(f"/jobs/{job_id}")
        assert fetched.ok
        assert fetched.body["status"] == "succeeded"
        assert isinstance(fetched.body["result"]["anomalies"], list)
        # The whole job payload must be JSON-serializable.
        json.dumps(fetched.body)

    def test_benchmark_job(self, api):
        accepted = api.post("/jobs", {
            "task": "benchmark", "pipelines": ["azure"], "datasets": ["NAB"],
            "max_signals": 1, "scale": 0.02, "workers": 2,
            "executor": "process",  # the job fan-out
            "pipeline_executor": "process",  # a legacy key, ignored
            "queue_path": "fleet.sqlite",  # a legacy key, ignored
        })
        assert accepted.status == 202
        job = api.jobs.wait(accepted.body["id"], timeout=120)
        assert job.status == "succeeded"
        assert len(job.result["records"]) == 1

    @pytest.mark.parametrize("executor",
                             ["caching", "distributed", "threaded"])
    def test_benchmark_job_unknown_executor_400(self, api, executor):
        response = api.post("/jobs", {
            "task": "benchmark", "pipelines": ["azure"], "datasets": ["NAB"],
            "max_signals": 1, "scale": 0.02, "executor": executor,
        })
        assert response.status == 400
        assert response.body["error"]["code"] == "bad_request"
        assert f"Unknown executor {executor!r}" in \
            response.body["error"]["message"]
        assert api.get("/jobs").body["jobs"] == []

    def test_context_manager_closes_job_pool(self):
        with SintelAPI(SintelExplorer()) as scoped:
            accepted = scoped.post("/jobs", self._detect_body())
            job = scoped.jobs.wait(accepted.body["id"], timeout=60)
            assert job.status == "succeeded"

    def test_post_after_close_returns_503(self):
        api = SintelAPI(SintelExplorer())
        api.close()
        response = api.post("/jobs", self._detect_body())
        assert response.status == 503
        assert response.body["error"]["code"] == "service_unavailable"
        assert "shut down" in response.body["error"]["message"]
        assert response.headers["Retry-After"]
        assert api.get("/jobs").body["jobs"] == []

    def test_failed_job_reports_error(self, api):
        accepted = api.post("/jobs", {
            "task": "detect", "pipeline": "no-such-pipeline",
            "data": [[0, 1], [1, 2]],
        })
        job = api.jobs.wait(accepted.body["id"], timeout=60)
        assert job.status == "failed"
        body = api.get(f"/jobs/{accepted.body['id']}").body
        assert "error" in body

    def test_unknown_task_400(self, api):
        assert api.post("/jobs", {"task": "teleport"}).status == 400

    def test_missing_payload_400(self, api):
        assert api.post("/jobs", {"task": "detect"}).status == 400

    def test_unknown_job_404(self, api):
        assert api.get("/jobs/job-999").status == 404

    def test_list_jobs_with_status_filter(self, api):
        accepted = api.post("/jobs", self._detect_body())
        api.jobs.wait(accepted.body["id"], timeout=60)
        listed = api.get("/jobs")
        assert len(listed.body["jobs"]) == 1
        succeeded = api.get("/jobs", query={"status": "succeeded"})
        assert len(succeeded.body["jobs"]) == 1
        failed = api.get("/jobs", query={"status": "failed"})
        assert failed.body["jobs"] == []

    def test_delete_finished_job(self, api):
        accepted = api.post("/jobs", self._detect_body())
        job_id = accepted.body["id"]
        api.jobs.wait(job_id, timeout=60)
        assert api.delete(f"/jobs/{job_id}").status == 204
        assert api.get(f"/jobs/{job_id}").status == 404

    def test_delete_unknown_job_404(self, api):
        assert api.delete("/jobs/job-999").status == 404

    def test_finished_jobs_pruned_at_capacity(self):
        from repro.api.jobs import JobManager

        manager = JobManager(max_workers=1, max_jobs=2)
        try:
            for _ in range(4):
                job = manager.submit("noop", lambda: None)
                job._done.wait(10)
            assert len(manager.list()) == 2
        finally:
            manager.shutdown()

    def test_delete_running_job_400(self, api):
        import threading

        release = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            release.wait(30)

        job = api.jobs.submit("blocked", blocked)
        try:
            assert started.wait(10)
            response = api.delete(f"/jobs/{job.job_id}")
            assert response.status == 400
            assert "active" in response.body["error"]["message"]
            # The job is still tracked and finishes normally afterwards.
            assert api.get(f"/jobs/{job.job_id}").ok
        finally:
            release.set()
        api.jobs.wait(job.job_id, timeout=30)
        assert api.delete(f"/jobs/{job.job_id}").status == 204

    def test_capacity_rejection_of_active_jobs(self):
        import threading

        from repro.api.jobs import JobManager

        release = threading.Event()
        manager = JobManager(max_workers=1, max_active=2)
        try:
            first = manager.submit("blocked", lambda: release.wait(30))
            manager.submit("blocked", lambda: release.wait(30))
            with pytest.raises(CapacityError, match="capacity"):
                manager.submit("rejected", lambda: None)
            assert len(manager.list()) == 2
            release.set()
            manager.wait(first.job_id, timeout=30)
        finally:
            release.set()
            manager.shutdown()

    def test_max_active_validation(self):
        from repro.api.jobs import JobManager

        with pytest.raises(ValueError):
            JobManager(max_active=0)

    def test_detect_does_not_block_request_path(self, api):
        # Submitting returns immediately; other routes stay responsive
        # while the job runs in the background.
        accepted = api.post("/jobs", self._detect_body())
        assert api.get("/pipelines").ok
        job = api.jobs.wait(accepted.body["id"], timeout=60)
        assert job.status == "succeeded"


class TestDetectBatch:
    def _signals(self, n=3, length=150):
        from repro.data import generate_signal

        return [generate_signal(f"batch-sig-{i}", length=length,
                                n_anomalies=1, random_state=i).to_array()
                for i in range(n)]

    def test_synchronous_batch_detection(self, api):
        signals = self._signals()
        response = api.post("/detect/batch", {
            "pipeline": "azure",
            "data": signals[0].tolist(),
            "signals": [signal.tolist() for signal in signals],
            "executor": "process",  # a legacy key, ignored
        })
        assert response.status == 200
        body = response.body
        assert body["n_signals"] == 3
        assert len(body["anomalies"]) == 3
        # Per-signal results equal the equivalent in-process batch run.
        from repro.core.sintel import Sintel

        sintel = Sintel("azure")
        sintel.fit(signals[0])
        expected = sintel.detect_many(signals)
        assert body["anomalies"] == [
            [list(anomaly) for anomaly in per_signal]
            for per_signal in expected
        ]
        json.dumps(body)  # the payload must be JSON-serializable

    def test_batch_without_training_rows_uses_first_signal(self, api):
        signals = self._signals(n=2)
        response = api.post("/detect/batch", {
            "pipeline": "azure",
            "signals": [signal.tolist() for signal in signals],
        })
        assert response.status == 200
        assert response.body["n_signals"] == 2

    def test_empty_batch_400(self, api):
        assert api.post("/detect/batch", {
            "pipeline": "azure", "signals": [],
        }).status == 400

    def test_missing_signals_400(self, api):
        assert api.post("/detect/batch", {"pipeline": "azure"}).status == 400

    def test_malformed_batch_job_rejected_at_submission(self, api):
        # Missing payload must 400 immediately, not surface later as a
        # failed job (parity with the 'detect' task's eager validation).
        assert api.post("/jobs", {"task": "detect_batch"}).status == 400
        assert api.post("/jobs", {
            "task": "detect_batch", "pipeline": "azure", "signals": [],
        }).status == 400

    def test_batch_job_lifecycle(self, api):
        signals = self._signals(n=2)
        accepted = api.post("/jobs", {
            "task": "detect_batch",
            "pipeline": "azure",
            "signals": [signal.tolist() for signal in signals],
        })
        assert accepted.status == 202
        job = api.jobs.wait(accepted.body["id"], timeout=60)
        assert job.status == "succeeded"
        assert job.result["n_signals"] == 2
        assert len(job.result["anomalies"]) == 2


class TestCoalescedDetect:
    """``POST /detect``: compatible requests queued behind an execution
    share one batch."""

    @staticmethod
    def _signals(n=4, length=220):
        from repro.data import generate_signal

        return [generate_signal(f"co-{i}", length=length, n_anomalies=2,
                                random_state=i, flavour="periodic").to_array()
                for i in range(n)]

    @staticmethod
    def _start_held_execution(api, body):
        """Post ``body`` on a thread and hold its execution open.

        Returns ``(thread, release)``: once this returns, the request is
        executing, and its execution finishes only after ``release`` is
        set. Requests with the same key queue up behind it meanwhile.
        """
        entered, release = threading.Event(), threading.Event()
        execute = api.coalescer.execute

        def held(items):
            if not entered.is_set():
                entered.set()
                release.wait(timeout=60)
            return execute(items)

        api.coalescer.execute = held
        thread = threading.Thread(target=api.post, args=("/detect", body))
        thread.start()
        assert entered.wait(timeout=60)
        return thread, release

    @staticmethod
    def _post_all(api, bodies, held, release):
        """Post ``bodies`` concurrently behind the ``held`` execution.

        Every request is queued before ``release`` lets the held execution
        finish, so the burst's batches are fixed by ``max_batch`` alone.
        Returns the responses in ``bodies`` order.
        """
        responses = [None] * len(bodies)

        def post(index):
            responses[index] = api.post("/detect", bodies[index])

        queued = api.coalescer.stats()["requests"] + len(bodies)
        threads = [threading.Thread(target=post, args=(index,))
                   for index in range(len(bodies))]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60
        while api.coalescer.stats()["requests"] < queued:
            assert time.monotonic() < deadline, "the burst never queued"
        release.set()
        for thread in [held] + threads:
            thread.join(timeout=60)
        return responses

    @pytest.fixture
    def coalescing_api(self):
        # max_batch == burst size: a burst queued behind one held
        # execution fills exactly one batch.
        api = SintelAPI(SintelExplorer(), coalesce_max_batch=4)
        yield api
        api.close()

    def test_concurrent_requests_execute_one_batch(self, coalescing_api):
        signals = self._signals(4)
        train = signals[0].tolist()
        held, release = self._start_held_execution(coalescing_api, {
            "pipeline": "azure", "data": train, "train": train})
        responses = self._post_all(coalescing_api, [
            {"pipeline": "azure", "data": signal.tolist(), "train": train}
            for signal in signals], held, release)

        for response in responses:
            assert response is not None and response.status == 200
            # Every response reports the shared underlying batch.
            assert response.body["batch_size"] == 4
        stats = coalescing_api.coalescer.stats()
        assert stats["requests"] == 5  # the held request, then the burst
        assert stats["executions"] == 2  # one detect_batch pass per batch
        assert stats["coalesced_requests"] == 4

        # Per-request demux matches a direct per-signal Sintel run.
        from repro.core.sintel import Sintel

        sintel = Sintel("azure")
        sintel.fit(signals[0])
        for index, response in enumerate(responses):
            expected = [list(anomaly) for anomaly in sintel.detect(signals[index])]
            assert response.body["anomalies"] == expected

    def test_incompatible_requests_do_not_coalesce(self):
        signals = self._signals(2)
        responses = [None] * 2
        api = SintelAPI(SintelExplorer(), coalesce_max_batch=4)

        def post(index, k):
            responses[index] = api.post("/detect", {
                "pipeline": "azure",
                "data": signals[index].tolist(),
                "train": signals[0].tolist(),
                "hyperparameters": {"fixed_threshold": {"k": k}},
            })

        threads = [threading.Thread(target=post, args=(0, 3.0)),
                   threading.Thread(target=post, args=(1, 4.0))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(r.status == 200 for r in responses)
        # Different hyperparameters -> different group keys -> two passes,
        # each a batch of one.
        stats = api.coalescer.stats()
        assert stats["executions"] == 2
        assert all(r.body["batch_size"] == 1 for r in responses)
        api.close()

    def test_requests_differing_only_in_executor_coalesce(self):
        signals = self._signals(2)
        train = signals[0].tolist()
        # max_batch == burst size: the two queued requests share a pass
        # only if they share a group key.
        api = SintelAPI(SintelExplorer(), coalesce_max_batch=2)
        held, release = self._start_held_execution(api, {
            "pipeline": "azure", "data": train, "train": train})
        responses = self._post_all(api, [
            {"pipeline": "azure", "data": signals[index].tolist(),
             "train": train, "executor": executor}
            for index, executor in enumerate(("serial", "process"))],
            held, release)
        assert all(r.status == 200 for r in responses)
        assert api.coalescer.stats()["executions"] == 2  # held + one batch
        assert all(r.body["batch_size"] == 2 for r in responses)
        api.close()

    def test_int_and_float_spellings_of_train_share_a_batch(self):
        signals = self._signals(2)
        train = signals[0].tolist()
        assert all(row[0] == int(row[0]) for row in train)
        as_ints = [[int(row[0])] + row[1:] for row in train]
        api = SintelAPI(SintelExplorer(), coalesce_max_batch=2)
        held, release = self._start_held_execution(api, {
            "pipeline": "azure", "data": train, "train": train})
        responses = self._post_all(api, [
            {"pipeline": "azure", "data": signals[index].tolist(),
             "train": spelling}
            for index, spelling in enumerate((as_ints, train))],
            held, release)
        assert all(r.status == 200 for r in responses)
        assert api.coalescer.stats()["executions"] == 2  # held + one batch
        assert all(r.body["batch_size"] == 2 for r in responses)
        api.close()

    def test_non_numeric_train_is_400_before_batching(self, api):
        signal = self._signals(1)[0]
        for train in ([["a", "b"]], {"rows": 1}):
            response = api.post("/detect", {
                "pipeline": "azure", "data": signal.tolist(),
                "train": train})
            assert response.status == 400
            assert api.coalescer.stats()["executions"] == 0
            assert "train" in str(response.body["error"])

    def test_single_request_still_served(self, api):
        signal = self._signals(1)[0]
        response = api.post("/detect", {"pipeline": "azure",
                                        "data": signal.tolist()})
        assert response.status == 200
        assert response.body["batch_size"] == 1
        assert api.coalescer.stats()["executions"] == 1

    def test_validation_errors_400(self, api):
        signal = self._signals(1)[0]
        assert api.post("/detect", {"data": signal.tolist()}).status == 400
        assert api.post("/detect", {"pipeline": "azure"}).status == 400
        assert api.post("/detect", {"pipeline": "azure", "data": []}).status == 400

    def test_zero_window_disables_coalescing(self):
        from repro.api.jobs import RequestCoalescer

        sizes = []

        def execute(items):
            sizes.append(len(items))
            return list(items)

        coalescer = RequestCoalescer(execute, max_batch=8)
        results = [coalescer.submit("key", index) for index in range(4)]
        # Every request found nothing of its key in flight, so each
        # executed alone, at once.
        assert results == [0, 1, 2, 3]
        assert sizes == [1, 1, 1, 1]
        assert coalescer.stats()["executions"] == 4
        assert coalescer.stats()["coalesced_requests"] == 0

    def test_execution_error_propagates_to_every_caller(self):
        signal = self._signals(1)[0]
        body = {"pipeline": "no-such-pipeline", "data": signal.tolist()}
        api = SintelAPI(SintelExplorer(), coalesce_max_batch=2)
        held, release = self._start_held_execution(api, body)
        responses = self._post_all(api, [body, body], held, release)
        # The leader's execution error fans out to every caller in the
        # batch: both get a 400, never a hang.
        assert all(r is not None and r.status == 400 for r in responses)
        assert all("no-such-pipeline" in str(r.body["error"])
                   for r in responses)
        stats = api.coalescer.stats()
        assert stats["executions"] == 2  # held + one batch
        assert stats["coalesced_requests"] == 2
        api.close()
