"""An in-process REST-style API over the knowledge base.

The paper exposes the database and the HIL operations through a RESTful
web server consumed by the visualization tool. This module reproduces the
API surface — resources, verbs, JSON payloads, status codes — as an
in-process router so the endpoint logic can be exercised and tested without
a network stack or a web framework.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.jobs import JobManager, RequestCoalescer
from repro.api.streams import StreamManager
from repro.db.explorer import SintelExplorer
from repro.exceptions import (
    CapacityError,
    DuplicateKeyError,
    NotFoundError,
    ReproError,
    ServiceUnavailableError,
)

__all__ = ["Response", "SintelAPI", "error_envelope",
           "DEFAULT_PAGE_LIMIT", "MAX_PAGE_LIMIT"]

#: Default and maximum ``limit`` accepted by paginated list endpoints.
DEFAULT_PAGE_LIMIT = 100
MAX_PAGE_LIMIT = 1000


class Response:
    """A minimal HTTP-like response object."""

    def __init__(self, status: int, body, headers: Optional[dict] = None):
        self.status = status
        self.body = body
        self.headers: Dict[str, str] = dict(headers or {})

    @property
    def ok(self) -> bool:
        """Whether the status code indicates success."""
        return 200 <= self.status < 300

    def json(self) -> str:
        """The body serialized as JSON."""
        return json.dumps(self.body, default=str)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Response(status={self.status})"


def error_envelope(code: str, message: str, request_id: Optional[str] = None,
                   details: Optional[dict] = None) -> dict:
    """The one error body shape every handler returns.

    ``{"error": {"code", "message", "details", "request_id"}}`` — ``code``
    is a stable machine-readable slug (clients switch on it), ``message``
    is human-readable, ``details`` carries structured context, and
    ``request_id`` correlates the response with the gateway's log line.
    """
    return {"error": {
        "code": code,
        "message": message,
        "details": details or {},
        "request_id": request_id,
    }}


class SintelAPI:
    """Route table + handlers for the Sintel REST API.

    This is the transport-agnostic core; production deployments wrap it
    in :class:`repro.api.gateway.Gateway`, which adds the ``/v1``
    versioned surface, authentication, per-tenant rate limiting,
    admission control and ``GET /metrics``.

    Routes (mirroring the open-source sintel API):

    * ``GET  /datasets``                 — list datasets
    * ``POST /datasets``                 — register a dataset
    * ``GET  /signals``                  — list signals
    * ``GET  /events``                   — list events (``?signal_id=`` filter)
    * ``POST /events``                   — create a (human) event
    * ``GET  /events/<id>``              — fetch one event
    * ``PATCH /events/<id>``             — modify an event's boundaries
    * ``DELETE /events/<id>``            — remove an event
    * ``POST /events/<id>/annotations``  — annotate an event
    * ``GET  /events/<id>/annotations``  — list an event's annotations
    * ``POST /events/<id>/comments``     — comment on an event
    * ``GET  /events/<id>/comments``     — list an event's comments
    * ``GET  /pipelines``                — list registered pipelines
    * ``POST /detect``                   — single-signal detection (coalesced)
    * ``POST /detect/batch``             — batched multi-signal detection
    * ``POST /jobs``                     — submit a background job
    * ``GET  /jobs``                     — list jobs
    * ``GET  /jobs/<id>``                — poll one job's status / result
    * ``DELETE /jobs/<id>``              — forget a finished job
    * ``POST /streams``                  — open a live stream session
    * ``GET  /streams``                  — list stream sessions
    * ``POST /streams/<id>/data``        — push a micro-batch (``202``)
    * ``GET  /streams/<id>``             — poll state + incremental anomalies
    * ``DELETE /streams/<id>``           — close a stream session

    Every handler failure maps to one error envelope —
    ``{"error": {"code", "message", "details", "request_id"}}`` — and a
    matched path with the wrong method answers ``405`` with an ``Allow``
    header. The list routes (``/datasets``, ``/signals``, ``/events``)
    paginate: bounded ``limit``/``offset`` query parameters (default
    ``100``) over a stable sort, returning
    ``{"items", "total", "limit", "offset", "next_offset"}``.

    Long-running work (detection, benchmarks) goes through the ``/jobs``
    resource: ``POST /jobs`` returns ``202 Accepted`` immediately with a job
    id, and clients poll ``GET /jobs/<id>`` until the status is
    ``succeeded`` or ``failed``. ``self.jobs.wait(job_id)`` joins a job
    deterministically from in-process callers.

    ``POST /detect/batch`` is the request-batching front door to the batch
    data plane: one request carries ``signals`` (a list of row arrays) and
    the fitted pipeline runs them all through a single
    ``Pipeline.detect_batch`` pass — N signals per round trip instead of N
    round trips, with per-signal results in input order. The same payload
    submitted as a ``detect_batch`` job (``POST /jobs``) runs
    asynchronously for large batches. An optional ``exact: false`` opts
    into the fused (tolerance-parity) batch plane.

    ``POST /detect`` serves clients that ask about *one* signal at a time
    — but the server still batches them: a request with no compatible
    execution in flight (same pipeline, hyperparameters, options, exact
    flag and training rows) executes at once, and compatible requests
    that arrive while one executes queue up and execute together, as
    **one** ``detect_batch`` pass of at most ``coalesce_max_batch``
    requests, right after it. Each response carries only its own
    signal's anomalies. ``self.coalescer`` exposes ``stats()`` (requests
    vs underlying executions) for observability. ``/detect``,
    ``/detect/batch`` and the ``detect`` / ``detect_batch`` jobs all fit
    and detect through one helper (:meth:`_fit_detect`).

    Live signals go through the ``/streams`` resource instead: ``POST
    /streams`` fits the requested pipeline on the supplied training rows
    (or reuses the fitted pipeline of its ``fleet_group``) and opens a
    session, which is a lane on one shared stream scheduler;
    micro-batches pushed to ``/streams/<id>/data`` are acknowledged with
    ``202`` and processed strictly in order by the scheduler's rounds,
    coalesced with other sessions on the same fitted pipeline. The
    scheduler refits sessions by urgency tier (drift, ``sla_deadline``
    staleness, backfill); ``"retrain": false`` opts a session out.
    ``GET /streams/<id>`` reports ingest lag, drift status, retrain
    history, the ``fleet`` tier/group and the incremental anomaly events.
    ``self.streams.wait_idle(stream_id)`` joins the queue deterministically
    from in-process callers.

    Args:
        explorer: knowledge-base facade (a fresh in-memory one by default).
        job_workers: worker threads for background jobs.
        max_streams: capacity bound on concurrently open stream sessions
            (every session, ``fleet_group`` or not, is one lane of it).
        coalesce_max_batch: most ``POST /detect`` requests one
            coalesced ``detect_batch`` pass serves.
    """

    def __init__(self, explorer: Optional[SintelExplorer] = None,
                 job_workers: int = 2, max_streams: int = 64,
                 coalesce_max_batch: int = 8):
        self.explorer = explorer or SintelExplorer()
        self.jobs = JobManager(max_workers=job_workers)
        self.streams = StreamManager(max_sessions=max_streams,
                                     explorer=self.explorer)
        self.coalescer = RequestCoalescer(self._execute_detect_group,
                                          max_batch=coalesce_max_batch)
        self._routes: List[Tuple[str, re.Pattern, Callable]] = []
        self._request_counter = itertools.count(1)
        self._register_routes()

    # ------------------------------------------------------------------ #
    # routing
    # ------------------------------------------------------------------ #
    def _register_routes(self) -> None:
        self._routes = [
            ("GET", re.compile(r"^/datasets$"), self._list_datasets),
            ("POST", re.compile(r"^/datasets$"), self._create_dataset),
            ("GET", re.compile(r"^/signals$"), self._list_signals),
            ("GET", re.compile(r"^/events$"), self._list_events),
            ("POST", re.compile(r"^/events$"), self._create_event),
            ("GET", re.compile(r"^/events/(?P<event_id>[^/]+)$"), self._get_event),
            ("PATCH", re.compile(r"^/events/(?P<event_id>[^/]+)$"), self._update_event),
            ("DELETE", re.compile(r"^/events/(?P<event_id>[^/]+)$"), self._delete_event),
            ("POST", re.compile(r"^/events/(?P<event_id>[^/]+)/annotations$"),
             self._create_annotation),
            ("GET", re.compile(r"^/events/(?P<event_id>[^/]+)/annotations$"),
             self._list_annotations),
            ("POST", re.compile(r"^/events/(?P<event_id>[^/]+)/comments$"),
             self._create_comment),
            ("GET", re.compile(r"^/events/(?P<event_id>[^/]+)/comments$"),
             self._list_comments),
            ("GET", re.compile(r"^/pipelines$"), self._list_pipelines),
            ("POST", re.compile(r"^/detect$"), self._detect),
            ("POST", re.compile(r"^/detect/batch$"), self._detect_batch),
            ("POST", re.compile(r"^/jobs$"), self._create_job),
            ("GET", re.compile(r"^/jobs$"), self._list_jobs),
            ("GET", re.compile(r"^/jobs/(?P<job_id>[^/]+)$"), self._get_job),
            ("DELETE", re.compile(r"^/jobs/(?P<job_id>[^/]+)$"), self._delete_job),
            ("POST", re.compile(r"^/streams$"), self._create_stream),
            ("GET", re.compile(r"^/streams$"), self._list_streams),
            ("POST", re.compile(r"^/streams/(?P<stream_id>[^/]+)/data$"),
             self._push_stream_data),
            ("GET", re.compile(r"^/streams/(?P<stream_id>[^/]+)$"),
             self._get_stream),
            ("DELETE", re.compile(r"^/streams/(?P<stream_id>[^/]+)$"),
             self._delete_stream),
        ]

    def handle(self, method: str, path: str, body: Optional[dict] = None,
               query: Optional[dict] = None,
               request_id: Optional[str] = None) -> Response:
        """Dispatch a request to the matching handler.

        Every error response uses the unified envelope (see
        :func:`error_envelope`); ``request_id`` is stamped into the
        envelope and the ``X-Request-ID`` response header. The gateway
        passes its own id; direct callers get a generated one.
        """
        method = method.upper()
        if request_id is None:
            request_id = f"req-{next(self._request_counter)}"
        response = self._dispatch(method, path, body, query, request_id)
        response.headers.setdefault("X-Request-ID", request_id)
        return response

    def _dispatch(self, method: str, path: str, body, query,
                  request_id: str) -> Response:
        allowed: List[str] = []
        for route_method, pattern, handler in self._routes:
            match = pattern.match(path)
            if not match:
                continue
            if route_method != method:
                allowed.append(route_method)
                continue
            try:
                return handler(body or {}, query or {}, **match.groupdict())
            except NotFoundError as error:
                return Response(404, error_envelope(
                    "not_found", str(error), request_id))
            except DuplicateKeyError as error:
                return Response(409, error_envelope(
                    "conflict", str(error), request_id))
            except CapacityError as error:
                return Response(
                    429,
                    error_envelope("capacity_exhausted", str(error),
                                   request_id),
                    headers={"Retry-After": f"{error.retry_after:g}"},
                )
            except ServiceUnavailableError as error:
                return Response(
                    503,
                    error_envelope("service_unavailable", str(error),
                                   request_id),
                    headers={"Retry-After": "1"},
                )
            except KeyError as error:
                field = error.args[0] if error.args else str(error)
                return Response(400, error_envelope(
                    "bad_request", f"Missing required field {field!r}",
                    request_id, details={"missing_field": str(field)}))
            except (ReproError, ValueError) as error:
                return Response(400, error_envelope(
                    "bad_request", str(error), request_id))
        if allowed:
            return Response(
                405,
                error_envelope(
                    "method_not_allowed",
                    f"Method {method} not allowed for {path}",
                    request_id,
                    details={"allowed": sorted(set(allowed))},
                ),
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        return Response(404, error_envelope(
            "not_found", f"Unknown route {path}", request_id))

    # Lifecycle ----------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        """Stop the background job and stream workers. Routes keep
        responding, but ``POST /jobs`` and stream ingestion return ``400``
        after this."""
        self.streams.shutdown(wait=wait)
        self.jobs.shutdown(wait=wait)

    def __enter__(self) -> "SintelAPI":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # Convenience verb helpers -------------------------------------------------
    def get(self, path: str, query: Optional[dict] = None) -> Response:
        """Issue a GET request."""
        return self.handle("GET", path, query=query)

    def post(self, path: str, body: Optional[dict] = None) -> Response:
        """Issue a POST request."""
        return self.handle("POST", path, body=body)

    def patch(self, path: str, body: Optional[dict] = None) -> Response:
        """Issue a PATCH request."""
        return self.handle("PATCH", path, body=body)

    def delete(self, path: str) -> Response:
        """Issue a DELETE request."""
        return self.handle("DELETE", path)

    # ------------------------------------------------------------------ #
    # handlers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _doc_sort_key(document: dict) -> tuple:
        # Stable sort for paginated listings: creation time, then id —
        # ids share a ``<kind>-<n>`` shape, so split the numeric suffix
        # to keep e.g. doc-10 after doc-9.
        doc_id = str(document.get("_id", ""))
        prefix, _, suffix = doc_id.rpartition("-")
        number = int(suffix) if suffix.isdigit() else 0
        return (document.get("created_at", 0), prefix, number, doc_id)

    @classmethod
    def _paginate(cls, items: List[dict], query: dict) -> dict:
        """Bounded ``limit``/``offset`` pagination with a stable sort.

        Returns ``{"items", "total", "limit", "offset", "next_offset"}``;
        ``next_offset`` is ``None`` on the last page.
        """
        try:
            limit = int(query.get("limit", DEFAULT_PAGE_LIMIT))
            offset = int(query.get("offset", 0))
        except (TypeError, ValueError):
            raise ValueError("limit and offset must be integers")
        if limit < 1 or limit > MAX_PAGE_LIMIT:
            raise ValueError(
                f"limit must be between 1 and {MAX_PAGE_LIMIT}, got {limit}")
        if offset < 0:
            raise ValueError(f"offset must be non-negative, got {offset}")
        ordered = sorted(items, key=cls._doc_sort_key)
        total = len(ordered)
        page = ordered[offset:offset + limit]
        next_offset = offset + limit if offset + limit < total else None
        return {"items": page, "total": total, "limit": limit,
                "offset": offset, "next_offset": next_offset}

    def _list_datasets(self, body, query) -> Response:
        datasets = self.explorer.store["datasets"].find()
        return Response(200, self._paginate(datasets, query))

    def _create_dataset(self, body, query) -> Response:
        dataset_id = self.explorer.add_dataset(body["name"],
                                               **body.get("metadata", {}))
        return Response(201, {"id": dataset_id})

    def _list_signals(self, body, query) -> Response:
        signals = self.explorer.get_signals(dataset_id=query.get("dataset_id"))
        return Response(200, self._paginate(signals, query))

    def _list_events(self, body, query) -> Response:
        events = self.explorer.get_events(
            signal_id=query.get("signal_id"), source=query.get("source")
        )
        return Response(200, self._paginate(events, query))

    def _create_event(self, body, query) -> Response:
        event_id = self.explorer.add_event(
            signalrun_id=body.get("signalrun_id", "manual"),
            signal_id=body["signal_id"],
            start_time=body["start_time"],
            stop_time=body["stop_time"],
            severity=body.get("severity", 0.0),
            source=body.get("source", "human"),
        )
        return Response(201, {"id": event_id})

    def _get_event(self, body, query, event_id: str) -> Response:
        return Response(200, self.explorer.store["events"].get(event_id))

    def _update_event(self, body, query, event_id: str) -> Response:
        self.explorer.update_event(
            event_id,
            start_time=body.get("start_time"),
            stop_time=body.get("stop_time"),
        )
        return Response(200, self.explorer.store["events"].get(event_id))

    def _delete_event(self, body, query, event_id: str) -> Response:
        self.explorer.delete_event(event_id)
        return Response(204, {})

    def _create_annotation(self, body, query, event_id: str) -> Response:
        annotation_id = self.explorer.add_annotation(
            event_id, user=body["user"], tag=body["tag"],
            comment=body.get("comment", ""),
        )
        return Response(201, {"id": annotation_id})

    def _list_annotations(self, body, query, event_id: str) -> Response:
        annotations = self.explorer.get_annotations(event_id=event_id)
        return Response(200, {"annotations": annotations})

    def _create_comment(self, body, query, event_id: str) -> Response:
        comment_id = self.explorer.add_comment(event_id, user=body["user"],
                                               text=body["text"])
        return Response(201, {"id": comment_id})

    def _list_comments(self, body, query, event_id: str) -> Response:
        comments = self.explorer.store["comments"].find({"event_id": event_id})
        return Response(200, {"comments": comments})

    def _list_pipelines(self, body, query) -> Response:
        # Imported lazily so the API module does not depend on the hub at import time.
        from repro.pipelines import list_pipelines

        return Response(200, {"pipelines": list_pipelines()})

    # ------------------------------------------------------------------ #
    # batched detection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _fit_detect(body, train, signals, exact) -> List[list]:
        """Fit ``body``'s pipeline on ``train`` and detect over ``signals``.

        The one detection path behind ``/detect``, ``/detect/batch`` and
        the ``detect`` / ``detect_batch`` jobs: a fresh pipeline is built
        from ``body``'s ``pipeline``, ``hyperparameters`` and
        ``pipeline_options``, fitted once and run over every signal in
        one ``detect_many`` pass. Returns one JSON-ready anomaly list per
        signal, in input order.
        """
        # Imported lazily to keep the API importable without the core.
        from repro.core.sintel import Sintel

        sintel = Sintel(
            body["pipeline"],
            hyperparameters=body.get("hyperparameters"),
            **body.get("pipeline_options", {}),
        )
        sintel.fit(train)
        return [[list(anomaly) for anomaly in per_signal]
                for per_signal in sintel.detect_many(signals, exact=exact)]

    @staticmethod
    def _validate_detect_batch(body) -> None:
        """Reject malformed batch requests before any work is queued."""
        if "pipeline" not in body:
            raise KeyError("pipeline")
        signals = body["signals"]
        if not isinstance(signals, (list, tuple)) or not signals:
            raise ValueError("signals must be a non-empty list of row arrays")

    @classmethod
    def _run_detect_batch(cls, body) -> dict:
        """Fit the requested pipeline and run one batched detection pass."""
        cls._validate_detect_batch(body)
        signals = body["signals"]
        # Train on the supplied rows, or on the first signal of the batch.
        anomalies = cls._fit_detect(body, body.get("data", signals[0]),
                                    signals, body.get("exact", True))
        return {
            "pipeline": body["pipeline"],
            "n_signals": len(signals),
            "anomalies": anomalies,
        }

    def _detect_batch(self, body, query) -> Response:
        return Response(200, self._run_detect_batch(body))

    # ------------------------------------------------------------------ #
    # coalesced single-signal detection
    # ------------------------------------------------------------------ #
    @staticmethod
    def _rows(body, name: str) -> np.ndarray:
        """``body[name]`` as float64 rows; a 400 when it does not convert."""
        try:
            return np.asarray(body[name], dtype=float)
        except (TypeError, ValueError) as error:
            raise ValueError(f"{name} must hold numeric rows: {error}") from None

    @staticmethod
    def _detect_group_key(body, train: np.ndarray) -> str:
        """Coalescing compatibility key of one ``POST /detect`` request.

        Requests may only share a batch when the *whole* pipeline
        configuration — name, hyperparameters, options, exact flag — and
        the float64 training rows are identical; the (potentially large)
        training rows enter the key as a digest of their shape and bytes,
        so ``[[0, 1]]`` and ``[[0.0, 1.0]]`` share a key.
        """
        digest = hashlib.sha256(repr(train.shape).encode() + train.tobytes())
        return json.dumps({
            "pipeline": body["pipeline"],
            "hyperparameters": body.get("hyperparameters"),
            "pipeline_options": body.get("pipeline_options", {}),
            "exact": bool(body.get("exact", True)),
            "train": digest.hexdigest(),
        }, sort_keys=True, default=str)

    def _execute_detect_group(self, items: List[dict]) -> List[dict]:
        """Serve one coalesced batch with a single ``detect_batch`` pass."""
        first = items[0]
        batches = self._fit_detect(first, first["train"],
                                   [item["data"] for item in items],
                                   first.get("exact", True))
        return [{"pipeline": first["pipeline"], "anomalies": anomalies,
                 "batch_size": len(items)} for anomalies in batches]

    def _detect(self, body, query) -> Response:
        if "pipeline" not in body:
            raise KeyError("pipeline")
        if "data" not in body:
            raise KeyError("data")
        if not body["data"]:
            raise ValueError("data must be a non-empty row array")
        # Each request's rows convert once; fit and detect reuse the arrays.
        data = self._rows(body, "data")
        train = self._rows(body, "train") if "train" in body else data
        result = self.coalescer.submit(self._detect_group_key(body, train),
                                       dict(body, data=data, train=train))
        return Response(200, result)

    # ------------------------------------------------------------------ #
    # background jobs
    # ------------------------------------------------------------------ #
    def _create_job(self, body, query) -> Response:
        task = body.get("task")
        if task == "detect":
            runner = self._make_detect_job(body)
        elif task == "detect_batch":
            # Validate at submission (400) rather than at job run time
            # (a later "failed" job), matching the 'detect' task.
            self._validate_detect_batch(body)
            runner = (lambda body=dict(body): self._run_detect_batch(body))
        elif task == "benchmark":
            runner = self._make_benchmark_job(body)
        else:
            raise ValueError(
                f"Unknown job task {task!r}; expected 'detect', "
                "'detect_batch' or 'benchmark'"
            )
        return Response(202, self.jobs.submit(task, runner).accepted)

    @classmethod
    def _make_detect_job(cls, body) -> Callable:
        # Read the required fields now, so a missing one is a 400 at
        # submission rather than a later "failed" job.
        body = dict(body)
        pipeline, data = body["pipeline"], body["data"]

        def run() -> dict:
            # Fit on the signal and detect in it; a detect job is always
            # exact, whatever the body says.
            [anomalies] = cls._fit_detect(body, data, [data], exact=True)
            return {"pipeline": pipeline, "anomalies": anomalies}

        return run

    @staticmethod
    def _make_benchmark_job(body) -> Callable:
        from repro.core.executor import get_executor

        # Resolve the fan-out at submission, so an unknown executor is a
        # 400 rather than a later "failed" job (as 'detect_batch' does).
        get_executor(body.get("executor"))
        options = {
            key: body[key]
            for key in ("pipelines", "datasets", "method", "scale",
                        "max_signals", "pipeline_options", "workers",
                        "executor", "shard_index", "shard_count",
                        "checkpoint_dir", "resume")
            if key in body
        }
        options.setdefault("profile_memory", False)

        def run() -> dict:
            from repro.benchmark.runner import benchmark

            result = benchmark(**options)
            return {"records": result.records}

        return run

    def _list_jobs(self, body, query) -> Response:
        jobs = [job.to_dict() for job in self.jobs.list()]
        if query.get("status"):
            jobs = [job for job in jobs if job["status"] == query["status"]]
        return Response(200, {"jobs": jobs})

    def _get_job(self, body, query, job_id: str) -> Response:
        return Response(200, self.jobs.get(job_id).to_dict())

    def _delete_job(self, body, query, job_id: str) -> Response:
        self.jobs.delete(job_id)
        return Response(204, {})

    # ------------------------------------------------------------------ #
    # live streams
    # ------------------------------------------------------------------ #
    def _create_stream(self, body, query) -> Response:
        session = self.streams.open(
            body["pipeline"],
            body["data"],
            hyperparameters=body.get("hyperparameters"),
            pipeline_options=body.get("pipeline_options"),
            signal_id=body.get("signal_id"),
            drift=body.get("drift"),
            fleet_group=body.get("fleet_group"),
            **body.get("stream_options", {}),
        )
        return Response(201, session.to_dict(include_events=False))

    def _list_streams(self, body, query) -> Response:
        sessions = [session.to_dict(include_events=False)
                    for session in self.streams.list()]
        if query.get("status"):
            sessions = [session for session in sessions
                        if session["status"] == query["status"]]
        return Response(200, {"streams": sessions})

    def _push_stream_data(self, body, query, stream_id: str) -> Response:
        return Response(202, self.streams.push(stream_id, body["data"]))

    def _get_stream(self, body, query, stream_id: str) -> Response:
        return Response(200, self.streams.get(stream_id).to_dict())

    def _delete_stream(self, body, query, stream_id: str) -> Response:
        self.streams.close(stream_id)
        return Response(204, {})
