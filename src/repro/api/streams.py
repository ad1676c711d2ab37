"""Live stream session management for the REST API.

Every *stream session* is a lane on the manager's one
:class:`~repro.core.fleet.StreamScheduler`, following the
:class:`~repro.api.jobs.JobManager` pattern: the manager tracks each
session's lifecycle (``open`` → ``closed`` | ``error``) under one
capacity bound. Pushed micro-batches queue on the session's lane and a
single pump thread serves them in scheduling rounds — one batch per lane
per round, so each session's batches are processed strictly in arrival
order, while sessions sharing a fitted pipeline are coalesced into one
stream-batch plan. Refits (drift, SLA staleness, backfill) are launched
by the scheduler's :class:`~repro.core.fleet.TierPolicy`. ``POST``
returns immediately with the queue lag and clients poll
``GET /streams/<id>`` for incremental anomalies, drift status and retrain
history.

When the manager is given a :class:`~repro.db.explorer.SintelExplorer`,
sessions and the events they emit are persisted through the knowledge
base: one ``streams`` document per session, one ``events`` document per
closed stream event.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional

from repro.exceptions import (
    CapacityError,
    DatabaseError,
    NotFoundError,
    ServiceUnavailableError,
    StreamError,
)

__all__ = ["StreamSession", "StreamManager", "build_drift_detector"]

LOGGER = logging.getLogger(__name__)

#: Lane options clients may set through the API; anything else (including
#: ``drift_detector``/``on_event``, which the manager passes itself) is a
#: client error, not a TypeError deep inside the constructor.
STREAM_OPTIONS = frozenset({
    "window_size", "warmup", "drift_cooldown", "retrain", "sla_deadline",
})


def build_drift_detector(spec):
    """Resolve a JSON drift specification into a detector instance.

    ``None``/``True``/``"default"`` select the stock Page–Hinkley detector;
    ``False`` disables drift monitoring; a dictionary selects a detector by
    name (``page_hinkley`` or ``distribution``) with the remaining keys
    forwarded as constructor arguments.
    """
    # Imported lazily so the API module loads without the streaming stack.
    from repro.streaming.drift import DistributionDriftDetector, PageHinkley

    if spec in (None, True, "default"):
        return "default"
    if spec is False:
        return None
    if not isinstance(spec, dict):
        raise ValueError(f"Cannot build a drift detector from {spec!r}")
    kind = spec.get("detector", "page_hinkley")
    params = {key: value for key, value in spec.items() if key != "detector"}
    if kind == "page_hinkley":
        return PageHinkley(**params)
    if kind in ("distribution", "ks"):
        return DistributionDriftDetector(**params)
    raise ValueError(f"Unknown drift detector {kind!r}")


class StreamSession:
    """One live ingestion session: a lane on the manager's scheduler.

    ``status`` is ``open`` until the session is closed, or ``error`` once
    its lane failed (a malformed batch or a raising ``on_event`` hook);
    the lane's error message is the session's ``error``.
    """

    def __init__(self, stream_id: str, lane, pipeline_name: str,
                 db_id: Optional[str] = None,
                 fleet_group: Optional[str] = None):
        self.stream_id = stream_id
        self.lane = lane
        self.runner = lane.runner
        self.pipeline_name = pipeline_name
        self.db_id = db_id
        self.fleet_group = fleet_group
        self.created_at = time.time()
        self.closed_at: Optional[float] = None
        self.batches_pushed = 0

    @property
    def status(self) -> str:
        if self.closed_at is not None:
            return "closed"
        return "error" if self.lane.error else "open"

    @property
    def error(self) -> Optional[str]:
        return self.lane.error

    @property
    def lag(self) -> dict:
        """Batches and samples queued but not yet processed."""
        pending = list(self.lane.pending)
        return {"batches": len(pending),
                "samples": sum(len(batch) for batch, _ in pending)}

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until the ingest queue is drained (or ``timeout``)."""
        return self.lane.idle.wait(timeout)

    def to_dict(self, include_events: bool = True) -> dict:
        """JSON-serializable view of the session."""
        payload = {
            "id": self.stream_id,
            "pipeline": self.pipeline_name,
            "status": self.status,
            "created_at": self.created_at,
            "closed_at": self.closed_at,
            "batches_pushed": self.batches_pushed,
            "lag": self.lag,
        }
        if self.error:
            payload["error"] = self.error
        payload.update(self.runner.state())
        payload["retrain_in_flight"] = self.lane.refit_in_flight
        payload["fleet"] = {
            "tier": self.lane.tier,
            "group": self.fleet_group,
            "sla_deadline": self.lane.sla_deadline,
        }
        if include_events:
            payload["events"] = [event.to_dict() for event in self.runner.events]
        return payload


class StreamManager:
    """Open, feed, observe and close live stream sessions.

    Each session is a lane on one :class:`~repro.core.fleet.StreamScheduler`:
    its micro-batches are coalesced with other sessions sharing its
    fitted pipeline into stream-batch plans, and its refits are allocated
    by urgency tier. Sessions opened with the same ``fleet_group`` name
    share the first session's fitted pipeline (later opens skip fitting
    entirely) and are batched together; any other open fits its own
    pipeline and lands in a singleton group.

    Args:
        max_sessions: capacity bound on concurrently registered sessions
            (the scheduler's lane capacity) — opening beyond it is
            rejected (the JobManager pattern applied to long-lived
            resources).
        explorer: optional knowledge-base facade; when present, sessions
            and closed events are persisted through it.
        scheduler: optional :class:`~repro.core.fleet.StreamScheduler`
            serving every session (a default one is created otherwise).
    """

    def __init__(self, max_sessions: int = 64, explorer=None,
                 scheduler=None):
        # Imported lazily to keep the API importable without the core.
        from repro.core.fleet import StreamScheduler

        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.scheduler = scheduler if scheduler is not None \
            else StreamScheduler()
        self.max_sessions = max_sessions
        self.explorer = explorer
        self._sessions: Dict[str, StreamSession] = {}
        self._lock = threading.Lock()
        self._counter = 0
        self._fleet_bases: Dict[str, tuple] = {}
        self._pool = ThreadPoolExecutor(max_workers=1,
                                        thread_name_prefix="sintel-stream")
        self._pumping = False

    @property
    def max_sessions(self) -> int:
        """Capacity bound on open sessions (the scheduler's lane capacity)."""
        return self.scheduler.fleet.max_streams

    @max_sessions.setter
    def max_sessions(self, value: int) -> None:
        self.scheduler.fleet.max_streams = int(value)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def open(self, pipeline, train_data, hyperparameters: Optional[dict] = None,
             pipeline_options: Optional[dict] = None,
             signal_id: Optional[str] = None, drift=None,
             fleet_group: Optional[str] = None,
             **stream_options) -> StreamSession:
        """Fit ``pipeline`` on ``train_data`` and open a stream over it.

        Sessions sharing a ``fleet_group`` reuse the first session's
        fitted pipeline and are batched through one stream-batch plan.
        """
        # Imported lazily to keep the API importable without the core.
        from repro.core.sintel import Sintel

        unknown = set(stream_options) - STREAM_OPTIONS
        if unknown:
            raise ValueError(
                f"Unknown stream options {sorted(unknown)}; "
                f"allowed: {sorted(STREAM_OPTIONS)}"
            )
        if len(self.scheduler.fleet.lanes()) >= self.max_sessions:
            raise CapacityError(
                f"Stream capacity reached ({self.max_sessions} open "
                "sessions); close one before opening another"
            )
        with self._lock:
            self._counter += 1
            stream_id = f"stream-{self._counter}"

        identity = json.dumps(
            {"pipeline": pipeline, "hyperparameters": hyperparameters or {},
             "pipeline_options": pipeline_options or {}},
            sort_keys=True, default=repr)
        sintel = None
        if fleet_group is not None:
            with self._lock:
                entry = self._fleet_bases.get(fleet_group)
            if entry is not None:
                stored_identity, sintel = entry
                if stored_identity != identity:
                    raise ValueError(
                        f"Fleet group {fleet_group!r} serves a different "
                        "pipeline configuration"
                    )
        if sintel is None:
            sintel = Sintel(pipeline, hyperparameters=hyperparameters,
                            **(pipeline_options or {}))
            sintel.fit(train_data)
            if fleet_group is not None:
                with self._lock:
                    self._fleet_bases[fleet_group] = (identity, sintel)

        db_id, on_event = self._persistence_hooks(
            stream_id, sintel.pipeline_name, signal_id)
        try:
            lane = self.scheduler.add_stream(
                sintel.pipeline, stream_id=stream_id,
                drift_detector=build_drift_detector(drift),
                on_event=on_event, **stream_options)
        except StreamError as error:
            raise CapacityError(str(error)) from error
        session = StreamSession(stream_id, lane,
                                pipeline_name=sintel.pipeline_name,
                                db_id=db_id, fleet_group=fleet_group)
        with self._lock:
            self._sessions[stream_id] = session
        return session

    def _persistence_hooks(self, stream_id: str, pipeline_name: str,
                           signal_id: Optional[str]):
        """``(db_id, on_event)`` for knowledge-base persistence (or Nones)."""
        db_id = None
        if self.explorer is not None:
            try:
                db_id = self.explorer.add_stream(
                    pipeline_name, signal_id=signal_id, api_id=stream_id
                )
            except DatabaseError:
                db_id = None
        on_event = None
        if db_id is not None:
            explorer = self.explorer
            captured_db_id = db_id

            def _persist_event(event):
                try:
                    explorer.add_stream_event(captured_db_id, event)
                except DatabaseError:
                    pass

            on_event = _persist_event
        return db_id, on_event

    def get(self, stream_id: str) -> StreamSession:
        """Return the session with ``stream_id`` or raise NotFoundError."""
        with self._lock:
            if stream_id not in self._sessions:
                raise NotFoundError(f"Unknown stream {stream_id!r}")
            return self._sessions[stream_id]

    def list(self) -> List[StreamSession]:
        """All known sessions in creation order."""
        with self._lock:
            return list(self._sessions.values())

    def close(self, stream_id: str, drain: bool = True,
              timeout: Optional[float] = 60.0) -> StreamSession:
        """Close a session: drain pending batches, close the runner."""
        session = self.get(stream_id)
        if session.status == "closed":
            return session
        if drain and session.status == "open":
            session.wait_idle(timeout)
        session.closed_at = time.time()
        try:
            self.scheduler.close_stream(stream_id)
        except StreamError:  # pragma: no cover - already removed
            session.runner.close()
        if self.explorer is not None and session.db_id is not None:
            try:
                state = session.runner.state()
                self.explorer.end_stream(
                    session.db_id,
                    samples_seen=state["samples_seen"],
                    events=state["events_closed"],
                    retrains=state["retrains"],
                )
            except DatabaseError:
                pass
        return session

    def shutdown(self, wait: bool = True) -> None:
        """Close every open session and stop the pump and the scheduler."""
        for session in self.list():
            if session.status == "open":
                try:
                    self.close(session.stream_id, drain=wait, timeout=10.0)
                except StreamError:  # pragma: no cover - defensive
                    pass
        self.scheduler.close()
        self._pool.shutdown(wait=wait)

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def push(self, stream_id: str, batch) -> dict:
        """Queue one micro-batch; returns the session's current lag."""
        session = self.get(stream_id)
        if session.status != "open":
            raise ValueError(f"Stream {stream_id!r} is {session.status}")
        self.scheduler.ingest(stream_id, batch)
        session.batches_pushed += 1
        self._kick()
        return {"id": stream_id, "status": session.status, "lag": session.lag,
                "batches_pushed": session.batches_pushed}

    def _kick(self) -> None:
        """Ensure the single pump thread is running scheduling rounds."""
        with self._lock:
            if self._pumping:
                return
            self._pumping = True
        try:
            self._pool.submit(self._pump)
        except RuntimeError as error:
            with self._lock:
                self._pumping = False
            raise ServiceUnavailableError(
                "The stream manager is shut down; no new batches are accepted"
            ) from error

    def _pump(self) -> None:
        # Single active pumper: rounds run strictly sequentially, and the
        # flag is only dropped after re-checking for pending work under
        # the manager lock so a concurrent push can never strand a batch.
        try:
            while True:
                if self.scheduler.has_pending():
                    self.scheduler.run_round()
                    continue
                with self._lock:
                    if not self.scheduler.has_pending():
                        self._pumping = False
                        return
        except Exception:  # pragma: no cover - defensive
            # Nobody reads the pump's future: report here, and let the
            # next push start a fresh pump.
            LOGGER.exception("Stream scheduling round failed")
            with self._lock:
                self._pumping = False

    def wait_idle(self, stream_id: str, timeout: Optional[float] = None) -> bool:
        """Block until a session has processed every queued batch."""
        return self.get(stream_id).wait_idle(timeout)
