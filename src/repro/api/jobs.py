"""Background job management for the REST API.

Long-running operations (fitting and detecting over a full signal, or an
entire benchmark sweep) must not block the request path. ``POST /jobs``
submits the work to a :class:`JobManager`, which runs it on a worker pool
and tracks its lifecycle; ``GET /jobs/<id>`` polls status and, once the job
has finished, its result.

A detect job runs its pipeline's steps in order in the thread that runs
the job. Pipelines carry no executor, so a detect job ignores an
``executor`` key, and a benchmark job any pipeline-level executor key.
Benchmark jobs may fan further out through their ``executor``
(``"serial"`` or ``"process"``; any other name is a 400 at submission):
``"process"``, or ``workers`` above 1 without an executor, spreads the
(pipeline, signal) jobs across a multiprocessing pool of ``workers``
processes. Benchmark jobs also take ``shard_index`` /
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
        #: The job as it was accepted, before any worker could run it: the
        #: body of ``POST /jobs``'s 202, whatever the job's status is by
        #: the time the response is built.
        self.accepted = self.to_dict()

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
    """One batch of compatible requests: queued, then executed once."""

    __slots__ = ("items", "closed", "done", "results", "error")

    def __init__(self):
        self.items: List[object] = []
        self.closed = False          # executing: no longer accepting joiners
        self.done = threading.Event()
        self.results: Optional[List[object]] = None
        self.error: Optional[BaseException] = None


class RequestCoalescer:
    """Batch the concurrent compatible requests queued behind an execution.

    The request-coalescing front door of the batch data plane. The first
    request for a given ``key`` executes at once, on the submitting
    thread, as a batch of one. Requests with the same key that arrive
    while it runs queue up as the *next* batch (at most ``max_batch``
    requests; a full batch starts another behind it), and that batch's
    first request runs ``execute(items)`` **once** over every queued
    payload as soon as the batch before it has finished. Each caller
    receives its own slice of the result, in submission order. An
    execution error propagates to every caller in the batch, and the key
    stays usable for the next one.

    Nothing waits on a timer: a lone request never waits, and a burst
    coalesces exactly as far as it outpaces the execution ahead of it.
    Requests with different keys (different pipeline, hyperparameters,
    training data...) never share a batch and never wait for each other.

    Args:
        execute: ``execute(items) -> results`` — must return one result
            per item, aligned by position.
        max_batch: most requests one execution serves.
    """

    def __init__(self, execute: Callable[[List[object]], List[object]],
                 max_batch: int = 8):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        self.execute = execute
        self.max_batch = int(max_batch)
        self._lock = threading.Lock()
        # The newest batch of each key with work in flight, executing or
        # queued behind the one executing.
        self._tail: Dict[object, _CoalesceBatch] = {}
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
        snapshot["max_batch"] = self.max_batch
        return snapshot

    def submit(self, key, payload):
        """Run ``payload`` through the coalesced batch for ``key``.

        Blocks until the batch executes — at once when nothing of ``key``
        is in flight, else after the executions queued ahead of it — and
        returns this request's result.
        """
        with self._lock:
            self._stats["requests"] += 1
            previous = self._tail.get(key)
            leader = (previous is None or previous.closed
                      or len(previous.items) >= self.max_batch)
            if leader:
                batch = _CoalesceBatch()
                self._tail[key] = batch
            else:
                batch = previous
            index = len(batch.items)
            batch.items.append(payload)

        if leader:
            # Everything after leadership is assumed runs under one
            # try/finally: whatever happens to this thread — including an
            # async exception while waiting for the batch ahead — the batch
            # is unpinned from ``_tail`` and ``done`` is set, so joiners
            # can never be stranded in ``wait()``.
            try:
                if previous is not None:
                    previous.done.wait()
                with self._lock:
                    batch.closed = True
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
                    if self._tail.get(key) is batch:
                        del self._tail[key]
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
