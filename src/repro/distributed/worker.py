"""The stateless queue worker: ``python -m repro.worker``.

A worker owns no state beyond its process: it opens the queue file it
was pointed at, claims one work unit at a time, executes it through the
existing executor stack, acknowledges the result, and exits cleanly when
the queue drains (or on SIGTERM). Everything that must survive the
worker — the unit, its delivery count, its result — lives in the queue,
so a fleet scales by simply starting more workers against the same path
and any worker can be killed at any instant without losing work: its
lease expires and the unit is redelivered elsewhere.

While a unit executes, a background heartbeat renews the lease at a
third of the visibility timeout, so long jobs are not redelivered
mid-flight; a worker that dies stops heartbeating and the normal expiry
path takes over.

Work-unit dictionaries are dispatched on their ``task`` field:

* ``mapped`` — ``unit["function"](unit["item"])``, the generic
  :meth:`Executor.map` payload (module-level picklable functions);
* ``benchmark_job`` — one benchmark (pipeline, signal) job dictionary,
  run through :func:`repro.benchmark.runner._execute_benchmark_job`
  (which honours the job's own ``pipeline_executor``);
* ``detect_batch`` — a ``POST /detect/batch`` body, run through the API
  layer's batched detection.

With ``--checkpoint-dir`` every finished *record-shaped* result is also
appended to a per-worker JSONL checkpoint (``worker-<id>.jsonl``) before
the queue acknowledgement, giving the fleet the same crash-resumable
audit trail the sharded benchmark runner keeps — re-delivered units may
produce duplicate lines across files, which
:func:`repro.benchmark.results.merge_shard_checkpoints` deduplicates by
job key.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import threading
import time
from typing import List, Optional

from repro.distributed.queue import Lease, WorkQueue

__all__ = ["main", "drain_queue", "execute_work_unit", "WORKER_CRASH_ENV"]

#: Test/fault-injection hook (also a CLI flag): the worker calls
#: ``os._exit`` — no cleanup, indistinguishable from SIGKILL — right
#: after its N-th successful claim, while still holding the lease. The
#: CI ``bench-distributed`` leg uses it to prove crashed leases are
#: redelivered without loss or duplication.
WORKER_CRASH_ENV = "REPRO_WORKER_CRASH_AFTER_CLAIMS"


def execute_work_unit(unit: dict) -> object:
    """Execute one work unit and return its picklable result."""
    task = unit.get("task")
    if task == "mapped":
        return unit["function"](unit["item"])
    if task == "benchmark_job":
        from repro.benchmark.runner import _execute_benchmark_job

        return _execute_benchmark_job(unit["job"])
    if task == "detect_batch":
        from repro.api.rest import SintelAPI

        return SintelAPI._run_detect_batch(unit["body"])
    raise ValueError(f"Unknown work-unit task {task!r}")


class _LeaseHeartbeat:
    """Background lease renewal while one unit executes."""

    def __init__(self, queue: WorkQueue, lease: Lease):
        self.queue = queue
        self.lease = lease
        self.interval = max(queue.visibility_timeout / 3.0, 0.01)
        self.lost = threading.Event()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="lease-heartbeat", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            if not self.queue.heartbeat(self.lease):
                # The lease expired and was redelivered: the queue will
                # reject our eventual complete(); stop renewing.
                self.lost.set()
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


def _checkpoint_record(handle, key: str, result: object) -> None:
    """Append one benchmark-style checkpoint line for a finished unit."""
    if handle is None or not isinstance(result, dict):
        return
    handle.write(json.dumps(
        {"kind": "record", "key": key, "record": result},
        default=float) + "\n")
    handle.flush()


def drain_queue(queue: WorkQueue, worker_id: Optional[str] = None,
                max_jobs: Optional[int] = None, poll_interval: float = 0.05,
                checkpoint_dir: Optional[str] = None,
                stop: Optional[threading.Event] = None,
                crash_after_claims: Optional[int] = None) -> int:
    """Pull and execute units until the queue drains; returns completions.

    The loop exits when (a) no unit is claimable *and* nothing is leased
    to any worker — i.e. the queue is truly finished, not merely waiting
    on a sibling's in-flight lease — (b) ``max_jobs`` completions were
    reached, or (c) ``stop`` is set (the SIGTERM path: the in-flight
    unit is finished and acknowledged first, so a drained stop never
    abandons work).

    Execution errors are reported through :meth:`WorkQueue.fail` — the
    unit retries elsewhere or dead-letters; the worker itself keeps
    going. Checkpoint lines are written *before* the acknowledgement, so
    a crash between the two produces (at worst) a duplicate line that
    merge-time deduplication removes — never a lost record.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    stop = stop or threading.Event()
    completed = 0
    claims = 0
    checkpoint = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        checkpoint = open(
            os.path.join(checkpoint_dir, f"worker-{worker_id}.jsonl"), "a")
    try:
        while not stop.is_set():
            lease = queue.claim(worker=worker_id)
            if lease is None:
                if queue.unfinished(sweep=False) == 0:
                    break
                # Siblings hold leases (or backoff timers are pending):
                # wait for completion or expiry rather than exiting and
                # stranding a redelivery with no worker to pick it up.
                time.sleep(poll_interval)
                continue
            claims += 1
            if crash_after_claims is not None \
                    and claims >= crash_after_claims:
                # Fault injection: die like SIGKILL, lease still held.
                os._exit(137)
            heartbeat = _LeaseHeartbeat(queue, lease)
            try:
                result = execute_work_unit(lease.unit)
            except Exception as error:  # noqa: BLE001 - queue-level retry
                heartbeat.stop()
                queue.fail(lease, f"{type(error).__name__}: {error}")
                continue
            heartbeat.stop()
            if not heartbeat.lost.is_set():
                _checkpoint_record(checkpoint, lease.key, result)
            if queue.complete(lease, result):
                completed += 1
                if max_jobs is not None and completed >= max_jobs:
                    break
    finally:
        if checkpoint is not None:
            checkpoint.close()
    return completed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.worker",
        description="Stateless work-queue worker: pulls units from a "
                    "durable queue, executes them, exits on drain or "
                    "SIGTERM.",
    )
    parser.add_argument("--queue", required=True,
                        help="path of the WorkQueue SQLite file")
    parser.add_argument("--worker-id", default=None,
                        help="identity recorded on leases "
                             "(default: <hostname>-<pid>)")
    parser.add_argument("--max-jobs", type=int, default=None,
                        help="exit after completing this many units")
    parser.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between claim attempts while "
                             "siblings hold leases (default: 0.05)")
    parser.add_argument("--checkpoint-dir", default=None,
                        help="append finished records to "
                             "worker-<id>.jsonl in this directory")
    parser.add_argument("--crash-after-claims", type=int, default=None,
                        help="fault injection: os._exit(137) right after "
                             "the N-th claim, lease still held (also via "
                             f"the {WORKER_CRASH_ENV} environment "
                             "variable)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Worker process entry point; returns the exit code."""
    args = build_parser().parse_args(argv)

    # Reclaim shared-memory segments a previously killed worker on this
    # host may have stranded (the names embed the creator pid, so only
    # segments of dead processes are swept).
    from repro.core.executor import sweep_orphan_segments

    sweep_orphan_segments()

    crash_after = args.crash_after_claims
    if crash_after is None and os.environ.get(WORKER_CRASH_ENV):
        crash_after = int(os.environ[WORKER_CRASH_ENV])

    stop = threading.Event()

    def _terminate(signum, frame):  # pragma: no cover - signal path
        stop.set()

    try:
        signal.signal(signal.SIGTERM, _terminate)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    queue = WorkQueue(args.queue)
    completed = drain_queue(
        queue,
        worker_id=args.worker_id,
        max_jobs=args.max_jobs,
        poll_interval=args.poll_interval,
        checkpoint_dir=args.checkpoint_dir,
        stop=stop,
        crash_after_claims=crash_after,
    )
    counts = queue.counts()
    print(f"worker done: completed={completed} queue={counts}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
