"""Background job management for the REST API.

Long-running operations (fitting and detecting over a full signal, or an
entire benchmark sweep) must not block the request path. ``POST /jobs``
submits the work to a :class:`JobManager`, which runs it on a worker pool
and tracks its lifecycle; ``GET /jobs/<id>`` polls status and, once the job
has finished, its result.

A detect job's ``executor`` and a benchmark job's ``pipeline_executor``
accept any registered executor name; every executor runs a pipeline's
steps in order in the thread that runs the job. Benchmark jobs may fan
further out through their ``executor``: ``"process"`` spreads the
(pipeline, signal) jobs across a multiprocessing pool, ``"distributed"``
enqueues them into a durable work queue served by stateless
``python -m repro.worker`` processes (benchmark jobs then also honour
``queue_path``). Benchmark jobs also take ``shard_index`` /
``shard_count`` / ``checkpoint_dir`` / ``resume`` for sharded, resumable
sweeps (see :mod:`repro.benchmark.runner`).

Job lifecycle: ``pending`` → ``running`` → ``succeeded`` | ``failed``.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

from repro.exceptions import (
    CapacityError,
    NotFoundError,
    ServiceUnavailableError,
)

__all__ = ["Job", "JobManager", "RequestCoalescer"]


class Job:
    """One unit of background work and its observable state."""

    def __init__(self, job_id: str, kind: str):
        self.job_id = job_id
        self.kind = kind
        self.status = "pending"
        self.result = None
        self.error: Optional[str] = None
        self.submitted_at = time.time()
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self._done = threading.Event()

    def to_dict(self) -> dict:
        """JSON-serializable view of the job."""
        payload = {
            "id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.status == "succeeded":
            payload["result"] = self.result
        if self.status == "failed":
            payload["error"] = self.error
        return payload


class _CoalesceBatch:
    """One in-flight accumulation window of compatible requests."""

    __slots__ = ("items", "closed", "done", "results", "error", "cond")

    def __init__(self, lock: threading.Lock):
        self.items: List[object] = []
        self.closed = False          # no longer accepting joiners
        self.done = threading.Event()
        self.results: Optional[List[object]] = None
        self.error: Optional[BaseException] = None
        # Shares the coalescer lock so the leader can wait for joiners
        # while submit() appends under the same mutex.
        self.cond = threading.Condition(lock)


class RequestCoalescer:
    """Accumulate concurrent compatible requests into one batched call.

    The request-coalescing front door of the batch data plane: the first
    request for a given ``key`` becomes the *leader* and opens a small
    accumulation window (``window`` seconds, at most ``max_batch``
    requests). Concurrent requests with the same key join the window and
    block; when the window closes — full, or timed out — the leader runs
    ``execute(items)`` **once** over every accumulated payload and each
    caller receives its own slice of the result, in submission order. An
    execution error propagates to every caller in the batch.

    Requests with different keys (different pipeline, hyperparameters,
    training data...) never share a batch; they coalesce independently.

    The window is a deliberate latency/throughput trade-off: a request
    that finds no peers still waits out the window before executing, so
    the worst case adds ``window`` seconds to every lone request in
    exchange for collapsing bursts into single executions. Size it to the
    burstiness of the traffic, and set ``window=0`` for latency-sensitive
    deployments — coalescing is then fully disabled (every request
    executes alone, guaranteed, without changing the call shape).

    Args:
        execute: ``execute(items) -> results`` — must return one result
            per item, aligned by position.
        window: seconds the leader waits for additional requests. ``0``
            disables accumulation.
        max_batch: requests that force an immediate flush when reached.
    """

    def __init__(self, execute: Callable[[List[object]], List[object]],
                 window: float = 0.01, max_batch: int = 8):
        if window < 0:
            raise ValueError("window must be non-negative")
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.execute = execute
        self.window = float(window)
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        self._pending: Dict[object, _CoalesceBatch] = {}
        self._stats = {"requests": 0, "executions": 0,
                       "coalesced_requests": 0, "largest_batch": 0}

    def stats(self) -> dict:
        """Counters: requests seen, underlying executions, batch shapes.

        ``coalesced_requests`` counts requests that shared a batch with at
        least one other request — the round trips saved by coalescing are
        ``requests - executions``.
        """
        with self._lock:
            snapshot = dict(self._stats)
        snapshot["window"] = self.window
        snapshot["max_batch"] = self.max_batch
        return snapshot

    def submit(self, key, payload):
        """Run ``payload`` through the coalesced batch for ``key``.

        Blocks until the batch executes (bounded by ``window`` plus the
        execution itself) and returns this request's result.
        """
        with self._lock:
            self._stats["requests"] += 1
            batch = self._pending.get(key)
            leader = batch is None or batch.closed
            if leader:
                batch = _CoalesceBatch(self._lock)
                self._pending[key] = batch
            index = len(batch.items)
            batch.items.append(payload)
            # A zero window means no accumulation at all: close the batch
            # while still holding the lock so no concurrent request can
            # ever join it.
            if len(batch.items) >= self.max_batch or self.window <= 0:
                batch.closed = True
                batch.cond.notify_all()

        if leader:
            # Everything after leadership is assumed runs under one
            # try/finally: whatever happens to this thread — including an
            # async exception while waiting on the condition — the batch
            # is unpinned from ``_pending`` and ``done`` is set, so
            # joiners can never be stranded in ``wait()``.
            try:
                deadline = time.monotonic() + self.window
                with self._lock:
                    while not batch.closed:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            break
                        batch.cond.wait(remaining)
                    batch.closed = True
                    if self._pending.get(key) is batch:
                        del self._pending[key]
                    items = list(batch.items)
                    self._stats["executions"] += 1
                    self._stats["largest_batch"] = max(
                        self._stats["largest_batch"], len(items))
                    if len(items) > 1:
                        self._stats["coalesced_requests"] += len(items)
                results = self.execute(items)
                if results is None or len(results) != len(items):
                    raise ValueError(
                        "coalesced execute() must return one result per "
                        f"request (got {0 if results is None else len(results)} "
                        f"for {len(items)})"
                    )
                batch.results = list(results)
            except BaseException as error:  # noqa: BLE001 - fanned back out
                batch.error = error
            finally:
                with self._lock:
                    batch.closed = True
                    if self._pending.get(key) is batch:
                        del self._pending[key]
                batch.done.set()
        else:
            batch.done.wait()

        error = batch.error
        if error is not None:
            if not leader:
                # Joiners raise their own instance where possible: N
                # threads raising the one shared object would race on its
                # __traceback__. The type is preserved so callers' error
                # mapping (e.g. the API router's 400 classes) still works.
                try:
                    error = type(error)(*error.args)
                except Exception:  # noqa: BLE001 - fall back to shared
                    error = batch.error
            raise error
        return batch.results[index]


class JobManager:
    """Submit, track and join background jobs.

    Finished jobs (and their results) are retained for polling, but the
    registry is bounded: once it exceeds ``max_jobs``, the oldest finished
    jobs are pruned. Pending and running jobs are never pruned; instead,
    ``max_active`` bounds how many jobs may be pending or running at once —
    submissions beyond it are rejected with :class:`ValueError` so a burst
    of clients cannot queue unbounded work.

    Args:
        max_workers: size of the shared worker thread pool.
        max_jobs: retention bound on the job registry.
        max_active: capacity bound on concurrently active (pending or
            running) jobs; ``None`` means unbounded.
    """

    def __init__(self, max_workers: int = 2, max_jobs: int = 1000,
                 max_active: Optional[int] = None):
        if max_jobs < 1:
            raise ValueError("max_jobs must be at least 1")
        if max_active is not None and max_active < 1:
            raise ValueError("max_active must be at least 1")
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="sintel-job"
        )
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.Lock()
        self._counter = itertools.count(1)
        self.max_jobs = max_jobs
        self.max_active = max_active

    def _prune(self) -> None:
        # Called with the lock held. Dict preserves insertion order, so the
        # first finished entries are the oldest.
        excess = len(self._jobs) - self.max_jobs
        if excess <= 0:
            return
        for job_id in [job.job_id for job in self._jobs.values()
                       if job.status in ("succeeded", "failed")][:excess]:
            del self._jobs[job_id]

    def submit(self, kind: str, function: Callable[[], object]) -> Job:
        """Queue ``function`` for execution and return its :class:`Job`.

        Raises:
            CapacityError: when ``max_active`` jobs are already pending or
                running (capacity rejection — HTTP 429).
            ServiceUnavailableError: after :meth:`shutdown` (HTTP 503).
        """
        with self._lock:
            if self.max_active is not None:
                active = sum(1 for job in self._jobs.values()
                             if job.status in ("pending", "running"))
                if active >= self.max_active:
                    raise CapacityError(
                        f"Job capacity reached ({self.max_active} active "
                        "jobs); retry once one finishes"
                    )
            job = Job(f"job-{next(self._counter)}", kind)
            self._jobs[job.job_id] = job
            self._prune()

        def run() -> None:
            job.status = "running"
            job.started_at = time.time()
            try:
                job.result = function()
                job.status = "succeeded"
            except Exception as error:  # noqa: BLE001 - reported via the job
                job.error = str(error)
                job.status = "failed"
            finally:
                job.finished_at = time.time()
                job._done.set()

        try:
            self._pool.submit(run)
        except RuntimeError as error:
            # The pool was shut down: withdraw the registered job and report
            # a client-level error instead of leaking the RuntimeError.
            with self._lock:
                del self._jobs[job.job_id]
            raise ServiceUnavailableError(
                "The job manager is shut down; no new jobs are accepted"
            ) from error
        return job

    def get(self, job_id: str) -> Job:
        """Return the job with ``job_id`` or raise :class:`NotFoundError`."""
        with self._lock:
            if job_id not in self._jobs:
                raise NotFoundError(f"Unknown job {job_id!r}")
            return self._jobs[job_id]

    def list(self) -> List[Job]:
        """All known jobs in submission order."""
        with self._lock:
            return list(self._jobs.values())

    def delete(self, job_id: str) -> None:
        """Forget a finished job. Running jobs cannot be deleted."""
        with self._lock:
            if job_id not in self._jobs:
                raise NotFoundError(f"Unknown job {job_id!r}")
            if self._jobs[job_id].status in ("pending", "running"):
                raise ValueError(f"Job {job_id!r} is still active")
            del self._jobs[job_id]

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Job:
        """Block until the job finishes (or ``timeout`` elapses)."""
        job = self.get(job_id)
        job._done.wait(timeout)
        return job

    def shutdown(self, wait: bool = True) -> None:
        """Stop the worker pool."""
        self._pool.shutdown(wait=wait)
