"""Production gateway around :class:`~repro.api.rest.SintelAPI`.

Every request — versioned or legacy — passes through one middleware
pipeline, applied in a fixed order:

1. **Request-id stamping** — a unique id generated per request, present in
   the ``X-Request-ID`` response header, every error envelope, and the
   structured log line.
2. **API-key authentication** — ``X-API-Key`` (or ``Authorization:
   Bearer``) resolved against the :class:`~repro.api.tenants.TenantRegistry`;
   protected routes without a valid key get the unified ``401`` envelope.
3. **Per-tenant rate limiting** — a token bucket per tenant; exhausted
   buckets shed with ``429`` + ``Retry-After`` and never touch the
   handlers, so one tenant's burst cannot spend another tenant's budget.
4. **Admission control** — a bounded concurrency gate with a bounded wait
   queue in front of the handlers: at most ``max_concurrent`` requests
   execute, at most ``max_queue`` wait (up to ``queue_timeout`` seconds),
   and everything beyond that sheds with ``429`` + ``Retry-After``
   instead of queueing unboundedly and collapsing.
5. **Structured JSON request logging** — one record per request with
   latency, status, outcome class, tenant and deprecation flag, kept in a
   bounded ring buffer and optionally mirrored to a stream.

Routes are mounted under ``/v1/...``; the legacy unversioned paths keep
working through an aliasing shim that marks the request ``deprecated`` in
the log record and stamps a ``Deprecation`` response header.

``GET /metrics`` (public, unauthenticated, also ``/v1/metrics``) renders
the gateway's :class:`~repro.api.metrics.MetricsRegistry` in Prometheus
text format: request counters and latency summaries by route, rate-limit
and shed counters by tenant, plus collectors over the stats the stack
already keeps — plan step timings, coalescer requests-vs-executions,
stream session state and background jobs. ``GET /health`` is a public
liveness probe.
"""

from __future__ import annotations

import itertools
import json
import secrets
import threading
import time
from collections import deque
from typing import Dict, Optional, Tuple

from repro.api.metrics import (
    ExecutorTimingCollector,
    MetricsRegistry,
    coalescer_collector,
    fleet_collector,
    jobs_collector,
    stream_collector,
)
from repro.api.rest import Response, SintelAPI, error_envelope
from repro.api.tenants import TenantRegistry
from repro.core.plan import set_timing_sink
from repro.exceptions import AuthenticationError

__all__ = ["Gateway", "AdmissionController", "normalize_route"]

#: Routes served without authentication (liveness and scraping).
PUBLIC_ROUTES = frozenset({("GET", "/metrics"), ("GET", "/health")})

#: Collection segments whose following path segment is an opaque id.
_COLLECTION_SEGMENTS = frozenset({"events", "jobs", "streams", "datasets",
                                  "signals", "tenants"})


def normalize_route(path: str) -> str:
    """Collapse resource ids so metrics labels stay low-cardinality.

    ``/v1/events/ev-42/comments`` → ``/v1/events/{id}/comments``.
    """
    parts = path.split("/")
    out = []
    previous = ""
    for part in parts:
        if previous in _COLLECTION_SEGMENTS and part:
            out.append("{id}")
        else:
            out.append(part)
        previous = part
    return "/".join(out)


class AdmissionController:
    """Bounded concurrency gate with a bounded, time-limited wait queue.

    ``acquire`` admits immediately while fewer than ``max_concurrent``
    requests are executing; otherwise the caller waits (FIFO, bounded by
    ``max_queue`` and ``queue_timeout``) for a slot. When the queue is
    full or the wait times out, the request is *shed*: the caller gets
    ``(False, retry_after)`` and must answer ``429`` — overload degrades
    into fast rejections, never into an unbounded pile-up.
    """

    def __init__(self, max_concurrent: int = 8, max_queue: int = 16,
                 queue_timeout: float = 1.0):
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be non-negative")
        self.max_concurrent = max_concurrent
        self.max_queue = max_queue
        self.queue_timeout = queue_timeout
        self._lock = threading.Lock()
        self._slot_freed = threading.Condition(self._lock)
        self.active = 0
        self.waiting = 0
        self.shed_total = 0
        self.timed_out_total = 0

    def acquire(self) -> Tuple[bool, float]:
        """Try to enter; returns ``(admitted, retry_after)``."""
        deadline = None
        with self._lock:
            if self.active < self.max_concurrent:
                self.active += 1
                return True, 0.0
            if self.waiting >= self.max_queue:
                self.shed_total += 1
                return False, max(0.1, self.queue_timeout)
            self.waiting += 1
            deadline = time.monotonic() + self.queue_timeout
            try:
                while self.active >= self.max_concurrent:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.timed_out_total += 1
                        self.shed_total += 1
                        return False, max(0.1, self.queue_timeout)
                    self._slot_freed.wait(remaining)
                self.active += 1
                return True, 0.0
            finally:
                self.waiting -= 1

    def release(self) -> None:
        """Leave the gate, waking one queued request."""
        with self._lock:
            self.active -= 1
            self._slot_freed.notify()

    def stats(self) -> dict:
        """Current occupancy and lifetime shed counters."""
        with self._lock:
            return {
                "active": self.active,
                "waiting": self.waiting,
                "shed_total": self.shed_total,
                "timed_out_total": self.timed_out_total,
                "max_concurrent": self.max_concurrent,
                "max_queue": self.max_queue,
            }


class Gateway:
    """The multi-tenant production front door over :class:`SintelAPI`.

    Args:
        api: the inner route table (a fresh :class:`SintelAPI` by default).
        tenants: tenant registry (a fresh in-memory one by default; pass a
            registry built over a ``DocumentStore`` for persistence).
        max_concurrent: requests executing handlers at once.
        max_queue: requests allowed to wait for a handler slot.
        queue_timeout: seconds a queued request waits before shedding.
        require_auth: when ``False`` (trusted internal deployments),
            unauthenticated requests are admitted under the ``anonymous``
            tenant with the registry's default rate limits.
        log_capacity: structured log records retained in memory.
        log_stream: optional writable text stream mirroring every record
            as one JSON line.
    """

    def __init__(self, api: Optional[SintelAPI] = None,
                 tenants: Optional[TenantRegistry] = None, *,
                 max_concurrent: int = 8, max_queue: int = 16,
                 queue_timeout: float = 1.0, require_auth: bool = True,
                 log_capacity: int = 1000, log_stream=None):
        self.api = api or SintelAPI()
        self.tenants = tenants or TenantRegistry()
        self.require_auth = require_auth
        self.admission = AdmissionController(max_concurrent, max_queue,
                                             queue_timeout)
        self.log_records: deque = deque(maxlen=log_capacity)
        self._log_stream = log_stream
        self._log_lock = threading.Lock()
        self._request_counter = itertools.count(1)
        self._instance = secrets.token_hex(3)
        self._anonymous_bucket = None

        self.metrics = MetricsRegistry()
        self._requests_total = self.metrics.counter(
            "sintel_requests_total",
            "Requests by tenant, route template and status code")
        self._latency = self.metrics.summary(
            "sintel_request_latency_seconds",
            "End-to-end request latency by route template")
        self._rate_limited = self.metrics.counter(
            "sintel_rate_limited_total",
            "Requests refused by a tenant's token bucket")
        self._shed = self.metrics.counter(
            "sintel_admission_shed_total",
            "Requests shed by the admission controller")
        self._deprecated = self.metrics.counter(
            "sintel_deprecated_requests_total",
            "Requests served through the legacy unversioned alias")
        self.metrics.add_collector(self._collect_gateway_gauges)
        self.metrics.add_collector(coalescer_collector(self.api.coalescer))
        self.metrics.add_collector(jobs_collector(self.api.jobs))
        self.metrics.add_collector(stream_collector(self.api.streams))
        self.metrics.add_collector(fleet_collector(self.api.streams))
        # Executor step timings flow in through the process-wide sink.
        self._timing_collector = ExecutorTimingCollector()
        self.metrics.add_collector(self._timing_collector.collect)
        self._previous_sink = set_timing_sink(self._timing_collector)

    # ------------------------------------------------------------------ #
    # wiring
    # ------------------------------------------------------------------ #
    def _collect_gateway_gauges(self, registry: MetricsRegistry) -> None:
        stats = self.admission.stats()
        registry.gauge("sintel_inflight_requests",
                       "Requests currently executing handlers"
                       ).set(stats["active"])
        registry.gauge("sintel_admission_queue_depth",
                       "Requests waiting for a handler slot"
                       ).set(stats["waiting"])
        registry.gauge("sintel_admission_queue_capacity",
                       "Bound on waiting requests").set(stats["max_queue"])
        registry.gauge("sintel_admission_max_concurrent",
                       "Bound on concurrently executing requests"
                       ).set(stats["max_concurrent"])

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self, wait: bool = True) -> None:
        """Detach the timing sink and stop the inner API's workers."""
        set_timing_sink(self._previous_sink)
        self.api.close(wait=wait)

    def __enter__(self) -> "Gateway":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # request path
    # ------------------------------------------------------------------ #
    def handle(self, method: str, path: str, body: Optional[dict] = None,
               query: Optional[dict] = None,
               headers: Optional[dict] = None) -> Response:
        """Run one request through the full middleware pipeline."""
        started = time.perf_counter()
        method = method.upper()
        request_id = f"req-{self._instance}-{next(self._request_counter)}"
        headers = {str(key).lower(): value
                   for key, value in (headers or {}).items()}
        inner_path, deprecated = self._resolve_path(path)
        route = normalize_route(path)
        tenant_name = "-"

        def finish(response: Response, outcome: str) -> Response:
            response.headers.setdefault("X-Request-ID", request_id)
            if deprecated:
                response.headers.setdefault("Deprecation", "true")
            latency = time.perf_counter() - started
            self._requests_total.inc(tenant=tenant_name, route=route,
                                     code=str(response.status))
            self._latency.observe(latency, route=route)
            self._log(request_id=request_id, tenant=tenant_name,
                      method=method, path=path, route=route,
                      status=response.status, outcome=outcome,
                      latency_ms=round(latency * 1000.0, 3),
                      deprecated=deprecated)
            return response

        # Public routes: no auth, no rate limiting, no admission gate —
        # scraping and liveness must work even under full overload.
        if (method, inner_path) in PUBLIC_ROUTES:
            return finish(self._serve_public(inner_path), "ok")

        # Authentication.
        try:
            tenant, bucket = self._authenticate(headers)
        except AuthenticationError as error:
            response = Response(401, error_envelope(
                "unauthenticated", str(error), request_id))
            return finish(response, "unauthenticated")
        tenant_name = tenant

        # Per-tenant rate limiting.
        if bucket is not None:
            admitted, retry_after = bucket.try_acquire()
            if not admitted:
                self._rate_limited.inc(tenant=tenant_name)
                response = Response(
                    429,
                    error_envelope(
                        "rate_limited",
                        f"Tenant {tenant_name!r} exceeded its request rate",
                        request_id,
                        details={"retry_after": round(retry_after, 3)},
                    ),
                    headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
                )
                return finish(response, "rate_limited")

        # Admission control.
        admitted, retry_after = self.admission.acquire()
        if not admitted:
            self._shed.inc(tenant=tenant_name)
            response = Response(
                429,
                error_envelope(
                    "admission_shed",
                    "Server is at capacity; the wait queue is full",
                    request_id,
                    details={"retry_after": round(retry_after, 3)},
                ),
                headers={"Retry-After": f"{max(retry_after, 0.001):.3f}"},
            )
            return finish(response, "shed")

        # Dispatch to the versioned route surface.
        try:
            response = self.api.handle(method, inner_path, body=body,
                                       query=query, request_id=request_id)
        except Exception as error:  # noqa: BLE001 - the 500 boundary
            response = Response(500, error_envelope(
                "internal", f"Unhandled error: {error}", request_id))
        finally:
            self.admission.release()
        if deprecated:
            self._deprecated.inc(route=route)
        if response.status >= 500:
            outcome = "server_error"
        elif response.status >= 400:
            outcome = "client_error"
        else:
            outcome = "ok"
        return finish(response, outcome)

    # Convenience verb helpers ------------------------------------------------
    def get(self, path: str, query: Optional[dict] = None,
            headers: Optional[dict] = None) -> Response:
        """Issue a GET request through the middleware pipeline."""
        return self.handle("GET", path, query=query, headers=headers)

    def post(self, path: str, body: Optional[dict] = None,
             headers: Optional[dict] = None) -> Response:
        """Issue a POST request through the middleware pipeline."""
        return self.handle("POST", path, body=body, headers=headers)

    def patch(self, path: str, body: Optional[dict] = None,
              headers: Optional[dict] = None) -> Response:
        """Issue a PATCH request through the middleware pipeline."""
        return self.handle("PATCH", path, body=body, headers=headers)

    def delete(self, path: str, headers: Optional[dict] = None) -> Response:
        """Issue a DELETE request through the middleware pipeline."""
        return self.handle("DELETE", path, headers=headers)

    # ------------------------------------------------------------------ #
    # middleware pieces
    # ------------------------------------------------------------------ #
    @staticmethod
    def _resolve_path(path: str) -> Tuple[str, bool]:
        """Map an external path to the inner route table.

        ``/v1/...`` is the stable contract; bare legacy paths are aliased
        onto the same handlers and flagged as deprecated.
        """
        if path in ("/metrics", "/health"):
            # Observability endpoints are version-less by convention.
            return path, False
        if path == "/v1" or path == "/v1/":
            return "/", False
        if path.startswith("/v1/"):
            return path[len("/v1"):], False
        return path, True

    def _authenticate(self, headers: Dict[str, str]):
        """Resolve the request's tenant; returns ``(name, bucket)``."""
        api_key = headers.get("x-api-key")
        if not api_key:
            authorization = headers.get("authorization", "")
            if authorization.lower().startswith("bearer "):
                api_key = authorization[7:].strip()
        if not api_key and not self.require_auth:
            if self._anonymous_bucket is None:
                from repro.api.tenants import TokenBucket

                self._anonymous_bucket = TokenBucket(
                    self.tenants.default_rate, self.tenants.default_burst)
            return "anonymous", self._anonymous_bucket
        tenant = self.tenants.authenticate(api_key)
        return tenant.name, self.tenants.bucket(tenant.tenant_id)

    def _serve_public(self, path: str) -> Response:
        if path == "/health":
            return Response(200, {"status": "ok"})
        return Response(
            200, self.metrics.render(),
            headers={"Content-Type": "text/plain; version=0.0.4"},
        )

    def _log(self, **record) -> None:
        record["ts"] = time.time()
        with self._log_lock:
            self.log_records.append(record)
            if self._log_stream is not None:
                try:
                    self._log_stream.write(json.dumps(record) + "\n")
                except Exception:  # noqa: BLE001 - logging is best-effort
                    pass
