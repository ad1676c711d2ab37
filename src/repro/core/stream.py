"""Streaming execution over fitted pipelines (paper §5, "streaming data").

The paper deploys Sintel pipelines against live signals and calls for
updating them "when drift is observed in the streaming data". This module
provides the per-stream half of that execution path:

* :class:`StreamRunner` wraps a *fitted* :class:`~repro.core.pipeline.Pipeline`
  and consumes a signal as a sequence of micro-batches. It maintains a
  sliding window of raw rows and owns its *lane row*: its own copies of
  the pipeline's incremental (``supports_stream``) primitives, taken from
  the pipeline's current fit, beside the pipeline's shared instance of
  every other step. Streaming therefore never changes what the
  pipeline's ``detect`` answers, and streams that share a pipeline never
  share running state;
* :func:`detect_windows` binds the rows of one or more runners to the
  pipeline's cached stream-batch :class:`~repro.core.plan.ExecutionPlan`
  and runs it over their windows in the caller — a lone runner's
  :meth:`StreamRunner.send` as a group of one on the exact plane, a
  fleet group (:mod:`repro.core.fleet`) with every participating lane;
* detections from overlapping windows are reconciled into
  :class:`StreamEvent` records with **stable ids** — an anomaly spanning
  many micro-batches keeps one id while its boundaries refine, and the
  event *closes* once the window has slid past it;
* a :class:`~repro.streaming.drift.DriftMonitor` watches the raw values
  and flags confirmed drift. The runner never refits itself: refits are
  owned by a :class:`~repro.core.fleet.StreamScheduler`, which refits a
  standby over the runner's window and swaps it in atomically through
  :meth:`StreamRunner.adopt_pipeline`.
"""

from __future__ import annotations

import copy
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.pipeline import Pipeline
from repro.exceptions import NotFittedError, StreamError
from repro.streaming.drift import DriftMonitor, PageHinkley

__all__ = ["StreamEvent", "StreamRunner", "detect_windows"]


def detect_windows(pipeline: Pipeline, runners: list, exact: bool = True,
                   precision: Optional[str] = None) -> List[List[tuple]]:
    """Run ``pipeline``'s stream-batch plan over the runners' windows.

    Each runner is one lane: its row of primitives is bound to the plan's
    :class:`~repro.core.plan.LaneRegistry`, so incremental steps fold the
    lane's window into that runner's own copies while stateless steps run
    once over the stacked windows. Every runner must serve ``pipeline``.
    Returns one ``(start, end, severity)`` detection list per runner, in
    order; the run's per-step timings land on ``pipeline``. An unfitted
    ``pipeline`` raises :class:`~repro.exceptions.NotFittedError`.

    The registry belongs to the cached plan, so runs over one pipeline and
    plane must not overlap: a lone stream must not run during a fleet
    round on the same pipeline.
    """
    plan = pipeline.compiled_plan("stream_batch", exact=exact,
                                  precision=precision)
    plan.lane_registry.set_rows([runner._lane_row(pipeline)
                                 for runner in runners])
    return pipeline._run_signals(plan, [runner.window for runner in runners])[0]


@dataclass
class StreamEvent:
    """One anomaly surfaced by a stream, with a stable identity.

    An event is *open* while the sliding window still covers (part of) it:
    subsequent micro-batches may refine its boundaries or retract it if the
    re-examined window no longer flags it. Once the window slides past the
    event's end it becomes *closed* and is immutable.
    """

    event_id: str
    start: float
    end: float
    severity: float
    status: str = "open"
    first_batch: int = 0
    last_batch: int = 0
    metadata: dict = field(default_factory=dict)

    def to_tuple(self) -> tuple:
        """The ``(start, end, severity)`` view used by batch consumers."""
        return (self.start, self.end, self.severity)

    def to_dict(self) -> dict:
        """JSON-serializable view of the event."""
        payload = {
            "id": self.event_id,
            "start": self.start,
            "end": self.end,
            "severity": self.severity,
            "status": self.status,
            "first_batch": self.first_batch,
            "last_batch": self.last_batch,
        }
        if "channel" in self.metadata:
            # Channel attribution from a multivariate pipeline.
            payload["channel"] = self.metadata["channel"]
        return payload


class StreamRunner:
    """Incremental anomaly detection over a fitted pipeline.

    Args:
        pipeline: a fitted :class:`~repro.core.pipeline.Pipeline` (or a
            :class:`~repro.core.sintel.Sintel`, unwrapped automatically).
        window_size: raw rows retained in the sliding window.
        warmup: minimum buffered rows before detection starts.
        drift_detector: optional detector (``update(value) -> bool`` plus
            ``reset()``) fed the first value channel of every batch. Pass
            ``None`` to disable drift monitoring; pass ``"default"`` for a
            :class:`~repro.streaming.drift.PageHinkley` with stock settings.
        drift_cooldown: samples the monitor ignores after a confirmed drift.
        retrain: whether a :class:`~repro.core.fleet.StreamScheduler` may
            refit this stream (``False`` means "never refit").
        on_event: optional callback invoked with every :class:`StreamEvent`
            at the moment it closes (used for persistence).
    """

    def __init__(self, pipeline, window_size: int = 500, warmup: int = 32,
                 drift_detector="default", drift_cooldown: int = 50,
                 retrain: bool = True,
                 on_event: Optional[Callable[[StreamEvent], None]] = None):
        pipeline = getattr(pipeline, "pipeline", pipeline)
        if not isinstance(pipeline, Pipeline):
            raise StreamError(
                f"StreamRunner needs a Pipeline, got {type(pipeline).__name__}"
            )
        if not pipeline.fitted:
            raise NotFittedError("StreamRunner requires a fitted pipeline")
        if window_size < 8:
            raise StreamError("window_size must be at least 8 rows")
        if not 1 <= warmup <= window_size:
            raise StreamError("warmup must be in [1, window_size]")

        self._pipeline = pipeline
        # The fitted primitives the lane row (``_row``) was copied from;
        # the first detection builds the row (see _lane_row).
        self._row_source: list = []
        self.window_size = int(window_size)
        self.warmup = int(warmup)
        self.on_event = on_event

        if drift_detector == "default":
            drift_detector = PageHinkley()
        self.monitor: Optional[DriftMonitor] = None
        if drift_detector is not None:
            self.monitor = DriftMonitor(
                drift_detector, on_drift=self._on_drift, cooldown=drift_cooldown
            )

        self.retrain = bool(retrain)
        self.retrains = 0
        self.last_retrain_at: Optional[float] = None
        self.retrain_error: Optional[str] = None

        self._buffer: Optional[np.ndarray] = None
        self._samples_seen = 0
        self._batches = 0
        self._events: dict = {}
        self._event_counter = 0
        self._closed = False

        self._swap_lock = threading.Lock()
        # Guards the event registry: _reconcile mutates it on the ingest
        # thread while pollers snapshot it from request threads.
        self._events_lock = threading.Lock()
        self._drift_pending = False
        self._monitor_reset_pending = False

    # ------------------------------------------------------------------ #
    # properties
    # ------------------------------------------------------------------ #
    @property
    def pipeline(self) -> Pipeline:
        """The pipeline currently serving micro-batches (may be swapped)."""
        with self._swap_lock:
            return self._pipeline

    @property
    def samples_seen(self) -> int:
        """Total raw rows ingested so far."""
        return self._samples_seen

    @property
    def ready(self) -> bool:
        """Whether the buffer holds enough rows for detection (warmup met)."""
        return self._buffer is not None and len(self._buffer) >= self.warmup

    @property
    def window(self) -> Optional[np.ndarray]:
        """The buffered sliding window (rows of ``timestamp, values...``)."""
        return self._buffer

    @property
    def drift_pending(self) -> bool:
        """Whether the monitor confirmed drift that no refit consumed yet."""
        return self._drift_pending

    def clear_drift(self) -> None:
        """Mark pending drift as consumed (a scheduler launched a refit)."""
        self._drift_pending = False

    @property
    def events(self) -> List[StreamEvent]:
        """Every live event (open and closed), ordered by start time."""
        with self._events_lock:
            snapshot = list(self._events.values())
        return sorted(snapshot, key=lambda event: event.start)

    def anomalies(self) -> List[tuple]:
        """All events as ``(start, end, severity)`` tuples."""
        return [event.to_tuple() for event in self.events]

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def send(self, batch) -> List[StreamEvent]:
        """Ingest one micro-batch of ``(timestamp, values...)`` rows.

        Returns the events that changed in this batch (created, updated or
        closed). Calls must be serialized by the caller — the runner
        guarantees in-order processing, not concurrent ``send`` safety.
        """
        if not self._ingest(batch) or not self.ready:
            return []
        # A concurrent adopt_pipeline waits until this window is detected.
        with self._swap_lock:
            [detections] = detect_windows(self._pipeline, [self])
        return self._reconcile(detections)

    def _ingest(self, batch) -> bool:
        """Validate + buffer one micro-batch; True when rows were buffered.

        This is the ingestion half of :meth:`send` — buffer maintenance,
        counters and drift monitoring, but no detection. The fleet plane
        (:mod:`repro.core.fleet`) calls it directly and runs
        :func:`detect_windows` once over every participating lane instead
        of once per runner, feeding the results back through
        :meth:`apply_detections` so the event registry behaves
        identically.

        A batch is rejected with :class:`~repro.exceptions.StreamError`
        before anything is buffered when its timestamps are not finite or
        not strictly increasing past the window, or when its column count
        differs from the window's.
        """
        if self._closed:
            raise StreamError("The stream has been closed")
        batch = np.asarray(batch, dtype=float)
        if batch.ndim == 1:
            batch = batch.reshape(1, -1)
        if batch.ndim != 2 or batch.shape[1] < 2:
            raise StreamError(
                "A micro-batch must be a 2D (timestamp, values...) array"
            )
        if len(batch) == 0:
            return False
        timestamps = batch[:, 0]
        if self._buffer is not None:
            if batch.shape[1] != self._buffer.shape[1]:
                raise StreamError(
                    f"A batch of {batch.shape[1]} columns cannot extend a "
                    f"window of {self._buffer.shape[1]} columns")
            timestamps = np.concatenate([self._buffer[-1:, 0], timestamps])
        if not (np.isfinite(timestamps).all()
                and np.all(np.diff(timestamps) > 0)):
            raise StreamError("Batch timestamps must be finite and strictly "
                              "increasing past the buffered window")

        if self._buffer is None:
            self._buffer = batch.copy()
        else:
            self._buffer = np.vstack([self._buffer, batch])
        if len(self._buffer) > self.window_size:
            self._buffer = self._buffer[-self.window_size:]
        self._samples_seen += len(batch)
        self._batches += 1

        if self.monitor is not None:
            # An adopted refit requests the reset; it is applied here, on
            # the ingest thread, so it can never race a consume().
            if self._monitor_reset_pending:
                self._monitor_reset_pending = False
                self._drift_pending = False
                self.monitor.reset()
            self.monitor.consume(batch[:, 1])
        return True

    def apply_detections(self, detections: List[tuple]) -> List[StreamEvent]:
        """Reconcile externally computed detections for the current window.

        ``detections`` must be this runner's entry of a
        :func:`detect_windows` run over the buffered window — the fleet
        plane runs it once across many runners and demuxes each runner's
        share here, so event ids, refinement and closing are bitwise
        identical to an independent :meth:`send` loop.
        """
        if self._buffer is None or not len(self._buffer):
            return []
        return self._reconcile(detections)

    def close(self) -> List[StreamEvent]:
        """Close the stream: close every open event."""
        if self._closed:
            return []
        self._closed = True
        if self.monitor is not None and self._monitor_reset_pending:
            self._monitor_reset_pending = False
            self.monitor.reset()
        closed = []
        for event in self.events:
            if event.status == "open":
                self._close_event(event)
                closed.append(event)
        return closed

    # ------------------------------------------------------------------ #
    # event reconciliation
    # ------------------------------------------------------------------ #
    def _reconcile(self, detections: List[tuple]) -> List[StreamEvent]:
        """Merge one window's detections into the stable event registry.

        The current window's detection is the authoritative estimate for
        the range it covers: open events fully inside the window are
        re-anchored to their matching detection or retracted when no longer
        flagged; events reaching back before the window keep their frozen
        prefix and only extend forward. Events the window has slid past are
        closed and become immutable.
        """
        with self._events_lock:
            return self._reconcile_locked(detections)

    def _reconcile_locked(self, detections: List[tuple]) -> List[StreamEvent]:
        window_start = float(self._buffer[0, 0])
        changed: List[StreamEvent] = []
        open_events = [event for event in self._events.values()
                       if event.status == "open"]
        matched_events = set()
        matched_detections = set()

        for position, detection in enumerate(detections):
            start, end, severity = detection[:3]
            best = None
            best_overlap = -np.inf
            for event in open_events:
                if event.event_id in matched_events:
                    continue
                overlap = min(end, event.end) - max(start, event.start)
                if overlap >= 0 and overlap > best_overlap:
                    best = event
                    best_overlap = overlap
            if best is None:
                continue
            matched_events.add(best.event_id)
            matched_detections.add(position)
            new_start = best.start if best.start < window_start else start
            if (new_start, end, severity) != (best.start, best.end, best.severity):
                best.start = new_start
                best.end = end
                best.severity = max(best.severity, severity)
                best.last_batch = self._batches
                if len(detection) > 3:
                    best.metadata["channel"] = int(detection[3])
                changed.append(best)

        for event in open_events:
            if event.event_id in matched_events:
                continue
            if event.start >= window_start:
                # Fully re-examined and no longer flagged: retract.
                del self._events[event.event_id]
            else:
                # The window slid past it (or its visible part cleared):
                # freeze what was seen.
                self._close_event(event)
                changed.append(event)

        for position, detection in enumerate(detections):
            if position in matched_detections:
                continue
            start, end, severity = detection[:3]
            self._event_counter += 1
            event = StreamEvent(
                event_id=f"evt-{self._event_counter}",
                start=float(start), end=float(end), severity=float(severity),
                first_batch=self._batches, last_batch=self._batches,
                metadata={"channel": int(detection[3])}
                if len(detection) > 3 else {},
            )
            self._events[event.event_id] = event
            changed.append(event)

        # Close events whose whole extent has left the window.
        for event in self._events.values():
            if event.status == "open" and event.end < window_start:
                self._close_event(event)
                if event not in changed:
                    changed.append(event)
        return changed

    def _close_event(self, event: StreamEvent) -> None:
        event.status = "closed"
        event.last_batch = self._batches
        if self.on_event is not None:
            self.on_event(event)

    # ------------------------------------------------------------------ #
    # drift + scheduler-owned refits
    # ------------------------------------------------------------------ #
    def _on_drift(self, index: int) -> None:
        self._drift_pending = True

    def _lane_row(self, pipeline: Pipeline) -> list:
        """This stream's primitives for ``pipeline``'s current fit.

        ``supports_stream`` primitives fold every window into running
        statistics that belong to exactly one stream, so the runner
        deep-copies them from the fitted pipeline — whose cells streaming
        never advances — and keeps advancing its copies until the cells
        hold another fit (an adopted refit, or the pipeline refitted in
        place); every other step is the pipeline's shared instance.
        """
        fitted = [primitive for _, primitive in pipeline._primitives]
        # The held references keep the source ids from being reused.
        if list(map(id, fitted)) != list(map(id, self._row_source)):
            self._row = [copy.deepcopy(primitive) if primitive.supports_stream
                         else primitive for primitive in fitted]
            self._row_source = fitted
        return self._row

    def adopt_pipeline(self, fitted: Pipeline) -> Pipeline:
        """Atomically swap in a refitted pipeline.

        Called by the stream scheduler (:mod:`repro.core.fleet`), whose
        tiered refit loop owns the standby pipelines refits are trained
        on. Returns the previous serving pipeline so the caller can
        recycle it as a warm standby, and records the refit (counter,
        timestamp, monitor reset request applied on the next ingest).
        """
        if not fitted.fitted:
            raise NotFittedError("adopt_pipeline requires a fitted pipeline")
        with self._swap_lock:
            previous, self._pipeline = self._pipeline, fitted
        self.retrains += 1
        self.last_retrain_at = time.time()
        self.retrain_error = None
        if self.monitor is not None:
            self._monitor_reset_pending = True
        return previous

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #
    def state(self) -> dict:
        """JSON-serializable snapshot of the stream's health."""
        events = self.events
        drift: Optional[dict] = None
        if self.monitor is not None:
            drift = {
                "points": list(self.monitor.drift_points),
                "pending": self._drift_pending,
            }
        return {
            "closed": self._closed,
            "samples_seen": self._samples_seen,
            "batches": self._batches,
            "window": 0 if self._buffer is None else len(self._buffer),
            "window_size": self.window_size,
            "events_open": sum(1 for e in events if e.status == "open"),
            "events_closed": sum(1 for e in events if e.status == "closed"),
            "drift": drift,
            "retrains": self.retrains,
            "last_retrain_at": self.last_retrain_at,
            "retrain_error": self.retrain_error,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StreamRunner(pipeline={self._pipeline.name!r}, "
                f"samples={self._samples_seen}, events={len(self._events)})")
