"""Tests for the production gateway: middleware pipeline, /v1 surface,
admission control, tenant isolation and /metrics."""

import json
import threading
import time

import pytest

from repro.api import Gateway, SintelAPI, parse_prometheus
from repro.api.gateway import AdmissionController, normalize_route
from repro.api.tenants import TenantRegistry
from repro.db import SintelExplorer


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def gateway():
    gw = Gateway(SintelAPI(SintelExplorer()))
    yield gw
    gw.close()


@pytest.fixture
def tenant_key(gateway):
    _, key = gateway.tenants.create("acme", rate=10_000, burst=10_000)
    return key


def _headers(key):
    return {"X-API-Key": key}


class TestMiddlewareBasics:
    def test_request_id_on_every_response(self, gateway, tenant_key):
        seen = set()
        for _ in range(3):
            response = gateway.get("/v1/pipelines", headers=_headers(tenant_key))
            rid = response.headers["X-Request-ID"]
            assert rid and rid not in seen
            seen.add(rid)
        # Error responses carry one too, and it matches the envelope.
        response = gateway.get("/v1/nowhere", headers=_headers(tenant_key))
        assert response.headers["X-Request-ID"] == \
            response.body["error"]["request_id"]

    def test_request_id_in_every_log_line(self, gateway, tenant_key):
        gateway.get("/v1/pipelines", headers=_headers(tenant_key))
        gateway.get("/v1/nowhere", headers=_headers(tenant_key))
        assert len(gateway.log_records) == 2
        assert all(record["request_id"] for record in gateway.log_records)

    def test_unauthenticated_gets_401_envelope(self, gateway):
        response = gateway.get("/v1/pipelines")
        assert response.status == 401
        envelope = response.body["error"]
        assert envelope["code"] == "unauthenticated"
        assert envelope["request_id"] == response.headers["X-Request-ID"]

    def test_bearer_token_accepted(self, gateway, tenant_key):
        response = gateway.get(
            "/v1/pipelines", headers={"Authorization": f"Bearer {tenant_key}"})
        assert response.status == 200

    def test_revoked_key_401(self, gateway):
        tenant, key = gateway.tenants.create("victim")
        assert gateway.get("/v1/pipelines", headers=_headers(key)).ok
        gateway.tenants.revoke(tenant.tenant_id)
        assert gateway.get("/v1/pipelines",
                           headers=_headers(key)).status == 401

    def test_health_and_metrics_are_public(self, gateway):
        assert gateway.get("/health").status == 200
        assert gateway.get("/v1/health").status == 200
        metrics = gateway.get("/metrics")
        assert metrics.status == 200
        assert metrics.headers["Content-Type"].startswith("text/plain")

    def test_auth_optional_mode(self):
        gw = Gateway(SintelAPI(SintelExplorer()), require_auth=False)
        try:
            response = gw.get("/v1/pipelines")
            assert response.status == 200
            assert gw.log_records[-1]["tenant"] == "anonymous"
        finally:
            gw.close()

    def test_structured_log_record_shape(self, gateway, tenant_key):
        gateway.get("/v1/pipelines", headers=_headers(tenant_key))
        record = gateway.log_records[-1]
        for field in ("ts", "request_id", "tenant", "method", "path",
                      "route", "status", "outcome", "latency_ms",
                      "deprecated"):
            assert field in record, field
        assert record["tenant"] == "acme"
        assert record["outcome"] == "ok"
        assert record["latency_ms"] >= 0
        json.dumps(record)  # JSON-serializable by construction

    def test_log_stream_mirrors_json_lines(self):
        import io

        stream = io.StringIO()
        gw = Gateway(SintelAPI(SintelExplorer()), log_stream=stream)
        try:
            _, key = gw.tenants.create("acme")
            gw.get("/v1/pipelines", headers=_headers(key))
        finally:
            gw.close()
        lines = [json.loads(line)
                 for line in stream.getvalue().splitlines() if line]
        assert lines and lines[0]["route"] == "/v1/pipelines"


class TestVersionedSurface:
    def test_v1_routes_match_legacy_handlers(self, gateway, tenant_key):
        created = gateway.post("/v1/datasets", {"name": "NASA"},
                               headers=_headers(tenant_key))
        assert created.status == 201
        listed = gateway.get("/v1/datasets", headers=_headers(tenant_key))
        assert listed.body["items"][0]["name"] == "NASA"

    def test_legacy_alias_deprecated(self, gateway, tenant_key):
        response = gateway.get("/datasets", headers=_headers(tenant_key))
        assert response.status == 200
        assert response.headers["Deprecation"] == "true"
        assert gateway.log_records[-1]["deprecated"] is True
        # The versioned path is not flagged.
        response = gateway.get("/v1/datasets", headers=_headers(tenant_key))
        assert "Deprecation" not in response.headers
        assert gateway.log_records[-1]["deprecated"] is False

    def test_deprecated_counter_increments(self, gateway, tenant_key):
        gateway.get("/datasets", headers=_headers(tenant_key))
        samples = parse_prometheus(gateway.get("/metrics").body)
        assert samples[("sintel_deprecated_requests_total",
                        (("route", "/datasets"),))] == 1

    def test_405_with_allow_through_gateway(self, gateway, tenant_key):
        response = gateway.handle("DELETE", "/v1/datasets",
                                  headers=_headers(tenant_key))
        assert response.status == 405
        assert response.headers["Allow"] == "GET, POST"
        assert response.body["error"]["details"]["allowed"] == ["GET", "POST"]

    def test_normalize_route(self):
        assert normalize_route("/v1/events/ev-12") == "/v1/events/{id}"
        assert (normalize_route("/v1/events/ev-12/comments")
                == "/v1/events/{id}/comments")
        assert (normalize_route("/streams/stream-3/data")
                == "/streams/{id}/data")
        assert normalize_route("/v1/pipelines") == "/v1/pipelines"


class TestPagination:
    def _seed_events(self, gateway, key, count):
        explorer = gateway.api.explorer
        dataset_id = explorer.add_dataset("NASA")
        from repro.data import generate_signal

        signal_id = explorer.add_signal(
            dataset_id, generate_signal("pg-1", length=60, n_anomalies=1,
                                        random_state=0))
        for index in range(count):
            gateway.post("/v1/events", {
                "signal_id": signal_id, "signalrun_id": "run-1",
                "start_time": index, "stop_time": index + 1,
                "source": "machine",
            }, headers=_headers(key))

    def test_limit_offset_and_next_offset(self, gateway, tenant_key):
        self._seed_events(gateway, tenant_key, 7)
        page = gateway.get("/v1/events", query={"limit": 3},
                           headers=_headers(tenant_key)).body
        assert [len(page["items"]), page["total"], page["next_offset"]] == \
            [3, 7, 3]
        middle = gateway.get("/v1/events", query={"limit": 3, "offset": 3},
                             headers=_headers(tenant_key)).body
        assert middle["next_offset"] == 6
        last = gateway.get("/v1/events", query={"limit": 3, "offset": 6},
                           headers=_headers(tenant_key)).body
        assert len(last["items"]) == 1 and last["next_offset"] is None
        # Pages are disjoint and ordered: together they cover every event.
        ids = [e["_id"] for e in page["items"] + middle["items"] + last["items"]]
        assert len(set(ids)) == 7
        assert ids == sorted(ids, key=lambda i: int(i.split("-")[-1]))

    def test_default_and_bounded_limits(self, gateway, tenant_key):
        self._seed_events(gateway, tenant_key, 2)
        body = gateway.get("/v1/events", headers=_headers(tenant_key)).body
        assert body["limit"] == 100
        assert gateway.get("/v1/events", query={"limit": 0},
                           headers=_headers(tenant_key)).status == 400
        assert gateway.get("/v1/events", query={"limit": 99999},
                           headers=_headers(tenant_key)).status == 400
        assert gateway.get("/v1/events", query={"offset": -1},
                           headers=_headers(tenant_key)).status == 400
        assert gateway.get("/v1/events", query={"limit": "abc"},
                           headers=_headers(tenant_key)).status == 400


class TestRateLimiting:
    def test_bucket_exhaustion_gives_429_retry_after(self):
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        gw = Gateway(SintelAPI(SintelExplorer()), tenants=registry)
        try:
            _, key = registry.create("small", rate=10.0, burst=2)
            assert gw.get("/v1/pipelines", headers=_headers(key)).ok
            assert gw.get("/v1/pipelines", headers=_headers(key)).ok
            limited = gw.get("/v1/pipelines", headers=_headers(key))
            assert limited.status == 429
            assert limited.body["error"]["code"] == "rate_limited"
            assert float(limited.headers["Retry-After"]) > 0
            # Tokens refill with time; the tenant is admitted again.
            clock.advance(1.0)
            assert gw.get("/v1/pipelines", headers=_headers(key)).ok
        finally:
            gw.close()

    def test_mixed_tenant_isolation_under_saturation(self):
        """One tenant saturating its bucket must not raise another's
        rejection rate or latency (the no-noisy-neighbour property)."""
        clock = FakeClock()
        registry = TenantRegistry(clock=clock)
        gw = Gateway(SintelAPI(SintelExplorer()), tenants=registry,
                     max_concurrent=8, max_queue=32)
        try:
            _, hog_key = registry.create("hog", rate=5.0, burst=5)
            _, quiet_key = registry.create("quiet", rate=10_000.0,
                                           burst=10_000)

            # Baseline: the quiet tenant alone.
            baseline = []
            for _ in range(40):
                started = time.perf_counter()
                assert gw.get("/v1/pipelines", headers=_headers(quiet_key)).ok
                baseline.append(time.perf_counter() - started)
            baseline_p95 = sorted(baseline)[int(0.95 * len(baseline))]

            # Overload: the hog fires 4x its admitted budget concurrently
            # with the quiet tenant's steady traffic.
            statuses = {"hog": [], "quiet": []}
            latencies = []

            def hog():
                for _ in range(20):
                    response = gw.get("/v1/pipelines",
                                      headers=_headers(hog_key))
                    statuses["hog"].append(response.status)

            def quiet():
                for _ in range(40):
                    started = time.perf_counter()
                    response = gw.get("/v1/pipelines",
                                      headers=_headers(quiet_key))
                    latencies.append(time.perf_counter() - started)
                    statuses["quiet"].append(response.status)

            threads = [threading.Thread(target=hog),
                       threading.Thread(target=quiet)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)

            # The hog is shed (its bucket holds 5), the quiet tenant is not.
            assert statuses["hog"].count(429) == 15
            assert statuses["quiet"].count(200) == 40
            overload_p95 = sorted(latencies)[int(0.95 * len(latencies))]
            # p95 stays within an absolute collapse-detection band: shed
            # traffic must not queue the quiet tenant behind the hog.
            assert overload_p95 < max(baseline_p95 * 10, 0.05)
        finally:
            gw.close()


class TestAdmissionControl:
    def test_controller_sheds_beyond_queue(self):
        controller = AdmissionController(max_concurrent=1, max_queue=0,
                                         queue_timeout=0.1)
        assert controller.acquire() == (True, 0.0)
        admitted, retry_after = controller.acquire()
        assert not admitted and retry_after > 0
        assert controller.stats()["shed_total"] == 1
        controller.release()
        assert controller.acquire()[0]

    def test_queued_request_admitted_when_slot_frees(self):
        controller = AdmissionController(max_concurrent=1, max_queue=1,
                                         queue_timeout=5.0)
        assert controller.acquire()[0]
        results = []

        def waiter():
            results.append(controller.acquire())

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert controller.stats()["waiting"] == 1
        controller.release()
        thread.join(timeout=10)
        assert results == [(True, 0.0)]

    def test_queue_timeout_sheds(self):
        controller = AdmissionController(max_concurrent=1, max_queue=4,
                                         queue_timeout=0.05)
        controller.acquire()
        admitted, _ = controller.acquire()
        assert not admitted
        assert controller.stats()["timed_out_total"] == 1

    def test_gateway_sheds_with_429_under_concurrency(self, gateway,
                                                      tenant_key):
        gateway.admission = AdmissionController(max_concurrent=1,
                                                max_queue=0,
                                                queue_timeout=0.1)
        release = threading.Event()
        entered = threading.Event()
        inner_handle = gateway.api.handle

        def slow_handle(method, path, *args, **kwargs):
            entered.set()
            release.wait(10)
            return inner_handle(method, path, *args, **kwargs)

        gateway.api.handle = slow_handle
        try:
            slow = threading.Thread(
                target=lambda: gateway.get("/v1/pipelines",
                                           headers=_headers(tenant_key)))
            slow.start()
            assert entered.wait(10)
            shed = gateway.get("/v1/pipelines", headers=_headers(tenant_key))
            assert shed.status == 429
            assert shed.body["error"]["code"] == "admission_shed"
            assert float(shed.headers["Retry-After"]) > 0
        finally:
            release.set()
            slow.join(timeout=10)
            gateway.api.handle = inner_handle
        samples = parse_prometheus(gateway.get("/metrics").body)
        assert samples[("sintel_admission_shed_total",
                        (("tenant", "acme"),))] == 1

    def test_internal_error_becomes_500_envelope(self, gateway, tenant_key):
        def broken_handle(*args, **kwargs):
            raise RuntimeError("boom")

        inner_handle = gateway.api.handle
        gateway.api.handle = broken_handle
        try:
            response = gateway.get("/v1/pipelines",
                                   headers=_headers(tenant_key))
        finally:
            gateway.api.handle = inner_handle
        assert response.status == 500
        assert response.body["error"]["code"] == "internal"
        # The admission slot was released despite the crash.
        assert gateway.admission.stats()["active"] == 0


class TestErrorEnvelope:
    """Every error shape on every route conforms to the one schema."""

    def test_envelope_conformance_table(self, gateway, tenant_key):
        gateway.post("/v1/datasets", {"name": "NAB"},
                     headers=_headers(tenant_key))
        cases = [
            # (method, path, body, headers, expected_status, expected_code)
            ("GET", "/v1/spaceships", None, _headers(tenant_key),
             404, "not_found"),
            ("GET", "/v1/events/ghost", None, _headers(tenant_key),
             404, "not_found"),
            ("POST", "/v1/datasets", {}, _headers(tenant_key),
             400, "bad_request"),
            ("POST", "/v1/datasets", {"name": "NAB"}, _headers(tenant_key),
             409, "conflict"),
            ("DELETE", "/v1/datasets", None, _headers(tenant_key),
             405, "method_not_allowed"),
            ("GET", "/v1/pipelines", None, None,
             401, "unauthenticated"),
            ("POST", "/v1/detect", {"pipeline": "azure"},
             _headers(tenant_key), 400, "bad_request"),
            ("GET", "/v1/events", None, {"X-API-Key": "sk-bogus"},
             401, "unauthenticated"),
        ]
        for method, path, body, headers, status, code in cases:
            response = gateway.handle(method, path, body=body,
                                      headers=headers)
            assert response.status == status, (method, path, response.body)
            envelope = response.body["error"]
            assert set(envelope) == {"code", "message", "details",
                                     "request_id"}, (method, path)
            assert envelope["code"] == code
            assert isinstance(envelope["message"], str) and envelope["message"]
            assert isinstance(envelope["details"], dict)
            assert envelope["request_id"] == response.headers["X-Request-ID"]

    def test_503_envelope_after_shutdown(self):
        gw = Gateway(SintelAPI(SintelExplorer()))
        _, key = gw.tenants.create("acme")
        gw.api.jobs.shutdown()
        response = gw.post(
            "/v1/jobs",
            {"task": "detect", "pipeline": "azure", "data": [[0, 1]]},
            headers=_headers(key))
        gw.close()
        assert response.status == 503
        assert response.body["error"]["code"] == "service_unavailable"
        assert response.headers["Retry-After"]

    def test_429_capacity_envelope(self):
        gw = Gateway(SintelAPI(SintelExplorer()))
        try:
            _, key = gw.tenants.create("acme")
            gw.api.jobs.max_active = 0
            response = gw.post(
                "/v1/jobs",
                {"task": "detect", "pipeline": "azure", "data": [[0, 1]]},
                headers=_headers(key))
            assert response.status == 429
            assert response.body["error"]["code"] == "capacity_exhausted"
        finally:
            gw.close()


class TestMetricsEndpoint:
    def test_scrape_covers_every_layer(self, gateway, tenant_key):
        from repro.data import generate_signal

        # Drive a detection so executor timings and coalescer stats exist.
        signal = generate_signal("gm-1", length=120, n_anomalies=1,
                                 random_state=0)
        response = gateway.post("/v1/detect", {
            "pipeline": "azure", "data": signal.to_array().tolist(),
        }, headers=_headers(tenant_key))
        assert response.status == 200

        text = gateway.get("/metrics").body
        samples = parse_prometheus(text)  # must parse cleanly
        names = {name for name, _ in samples}
        # Gateway layer.
        assert "sintel_requests_total" in names
        assert "sintel_request_latency_seconds" in names
        assert "sintel_inflight_requests" in names
        # Executor timings (fed by the detection above).
        assert "sintel_executor_step_seconds_total" in names
        # Coalescer, stream, jobs.
        assert samples[("sintel_coalescer_requests_total", ())] >= 1
        assert ("sintel_stream_sessions", (("status", "open"),)) in samples
        assert ("sintel_jobs", (("status", "succeeded"),)) in samples

    def test_requests_total_by_tenant_and_code(self, gateway, tenant_key):
        gateway.get("/v1/pipelines", headers=_headers(tenant_key))
        gateway.get("/v1/nowhere", headers=_headers(tenant_key))
        samples = parse_prometheus(gateway.get("/metrics").body)
        assert samples[("sintel_requests_total",
                        (("code", "200"), ("route", "/v1/pipelines"),
                         ("tenant", "acme")))] == 1
        assert samples[("sintel_requests_total",
                        (("code", "404"), ("route", "/v1/nowhere"),
                         ("tenant", "acme")))] == 1
