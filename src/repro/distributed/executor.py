"""The fleet executor: :meth:`Executor.map` over a durable work queue.

``DistributedExecutor`` keeps the established executor contract — take a
picklable function and a list of picklable items, return results in item
order, report completions through the ``progress`` hook — but routes the
fan-out through a :class:`~repro.distributed.queue.WorkQueue` instead of
an in-process pool. Each item becomes a durable work unit; N stateless
worker processes (``python -m repro.worker``) pull, execute and
acknowledge units against the shared queue file while the parent watches
the queue, streams progress, and respawns workers that die. The payoff
over :class:`~repro.core.executor.ProcessExecutor` is not raw speed on
one healthy host — it is *survivability and horizontal scale*: a
SIGKILL'd worker costs one lease timeout, not the fan-out; a re-run
against the same ``queue_path`` resumes from the finished units; and the
queue file is the only coordination point, so workers on other hosts
sharing the path join the same fleet.

``max_workers=0`` is the inline degenerate mode: the parent drains the
queue itself, in process — the cheapest way to exercise the full
enqueue/lease/complete machinery (tests, single-core CI) with zero
subprocess overhead.

Items that are dictionaries with a string ``"key"`` (benchmark jobs) are
enqueued under that key, making enqueue idempotent across re-runs; other
items get positional ``map-NNNNNN`` keys. Units that exhaust their
delivery attempts dead-letter, and the map raises
:class:`~repro.exceptions.ExecutorError` naming them rather than
returning partial results.
"""

from __future__ import annotations

import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from typing import Callable, Dict, Iterable, List, Optional

import repro
from repro.core.executor import (
    EXECUTORS,
    Executor,
    SerialExecutor,
    sweep_orphan_segments,
)
from repro.distributed.queue import WorkQueue
from repro.distributed.worker import drain_queue
from repro.exceptions import ExecutorError

__all__ = ["DistributedExecutor", "INJECT_CRASH_ENV"]

#: Fault injection for the fleet: ``"<worker-index>:<nth-claim>"`` makes
#: the initial worker with that index die (``os._exit``, SIGKILL-like)
#: right after its N-th claim, lease still held. Respawned replacements
#: never inherit the flag, so the run proves crash *recovery*: the lease
#: expires, the unit redelivers, and the final results are identical to
#: an uninjected run.
INJECT_CRASH_ENV = "REPRO_DIST_INJECT_CRASH"


class DistributedExecutor(Executor):
    """Fan ``map`` out over stateless workers via a durable work queue.

    Plans run like on every executor: in order, in the caller.

    Args:
        max_workers: worker processes to spawn (default 2); ``0`` drains
            the queue inline in the parent process.
        queue_path: path of the shared queue file. Default: a temporary
            file, removed after the map. Pass an explicit path to make
            the run resumable (finished units are skipped on re-run) or
            to share the queue with externally started workers.
        checkpoint_dir: when given, workers also append every finished
            record-shaped result to ``worker-<id>.jsonl`` files here
            (merged via ``merge_shard_checkpoints(..., dedupe=True)``).
        visibility_timeout / max_attempts / retry_backoff: queue tuning
            (see :class:`~repro.distributed.queue.WorkQueue`).
        poll_interval: seconds between the parent's queue polls and the
            workers' claim retries.
        respawn_limit: replacement workers the parent may start after
            crashes before giving up (default ``2 * max_workers + 2``).
    """

    name = "distributed"

    def __init__(self, max_workers: Optional[int] = None,
                 queue_path: Optional[str] = None,
                 checkpoint_dir: Optional[str] = None,
                 visibility_timeout: Optional[float] = None,
                 max_attempts: Optional[int] = None,
                 retry_backoff: Optional[float] = None,
                 poll_interval: float = 0.05,
                 respawn_limit: Optional[int] = None):
        if max_workers is None:
            max_workers = 2
        if max_workers < 0:
            raise ExecutorError("max_workers must be non-negative")
        self.max_workers = max_workers
        self.queue_path = queue_path
        self.checkpoint_dir = checkpoint_dir
        self.visibility_timeout = visibility_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.poll_interval = poll_interval
        if respawn_limit is None:
            respawn_limit = 2 * max_workers + 2
        self.respawn_limit = respawn_limit

    # -- subprocess handles must never ride along with a pickled pipeline
    def __getstate__(self) -> dict:
        return dict(self.__dict__)

    # ------------------------------------------------------------------ #
    # the Executor contract
    # ------------------------------------------------------------------ #
    def map(self, function: Callable, items: Iterable,
            progress: Optional[Callable[[int, object], None]] = None) -> List:
        items = list(items)
        if not items:
            return []
        try:
            pickle.dumps(function)
        except Exception:
            warnings.warn(
                "DistributedExecutor.map received an unpicklable function; "
                "running serially. Use a module-level function to "
                "distribute across workers.",
                RuntimeWarning, stacklevel=2,
            )
            return SerialExecutor().map(function, items, progress=progress)

        owns_queue = self.queue_path is None
        if owns_queue:
            tempdir = tempfile.mkdtemp(prefix="repro-queue-")
            path = os.path.join(tempdir, "queue.sqlite")
        else:
            path = self.queue_path
        queue = WorkQueue(path,
                          visibility_timeout=self.visibility_timeout,
                          max_attempts=self.max_attempts,
                          retry_backoff=self.retry_backoff)
        try:
            keys = self._unit_keys(items)
            for key, item in zip(keys, items):
                queue.put("mapped", {"task": "mapped", "function": function,
                                     "item": item}, key=key)
            reported: set = set()
            if self.max_workers == 0:
                drain_queue(queue, worker_id="inline",
                            poll_interval=self.poll_interval,
                            checkpoint_dir=self.checkpoint_dir)
                self._report_progress(queue, keys, progress, reported)
            else:
                self._drive_fleet(queue, path, keys, progress, reported)
            return self._collect(queue, keys)
        finally:
            if owns_queue:
                shutil.rmtree(tempdir, ignore_errors=True)

    # ------------------------------------------------------------------ #
    # unit keys, progress, results
    # ------------------------------------------------------------------ #
    @staticmethod
    def _unit_keys(items: List) -> List[str]:
        """Stable queue keys, one per item, unique within the call.

        Dictionary items carrying a string ``"key"`` (benchmark jobs) keep
        it — the property that makes re-enqueue and resume idempotent;
        anything else is keyed by position. A duplicated item key is
        disambiguated with its position so no item silently disappears.
        """
        keys: List[str] = []
        seen: set = set()
        for index, item in enumerate(items):
            key = None
            if isinstance(item, dict):
                candidate = item.get("key")
                if isinstance(candidate, str) and candidate:
                    key = candidate
            if key is None:
                key = f"map-{index:06d}"
            elif key in seen:
                key = f"{key}#{index}"
            seen.add(key)
            keys.append(key)
        return keys

    @staticmethod
    def _report_progress(queue: WorkQueue, keys: List[str],
                         progress: Optional[Callable], reported: set) -> None:
        if progress is None:
            return
        index_of = {key: index for index, key in enumerate(keys)}
        for key in queue.finished_keys():
            if key in reported or key not in index_of:
                continue
            reported.add(key)
            progress(index_of[key], queue.result(key))

    def _collect(self, queue: WorkQueue, keys: List[str]) -> List:
        wanted = set(keys)
        dead = [letter for letter in queue.dead_letters()
                if letter["key"] in wanted]
        if dead:
            summary = "; ".join(
                f"{letter['key']} (attempts={letter['attempts']}): "
                f"{letter['error']}" for letter in dead[:5])
            raise ExecutorError(
                f"{len(dead)} work unit(s) exhausted their delivery "
                f"attempts and were dead-lettered: {summary}")
        results = queue.results()
        missing = [key for key in keys if key not in results]
        if missing:
            raise ExecutorError(
                f"{len(missing)} work unit(s) never completed "
                f"(first: {missing[0]!r}) — queue state: {queue.counts()}")
        return [results[key] for key in keys]

    # ------------------------------------------------------------------ #
    # the worker fleet
    # ------------------------------------------------------------------ #
    def _crash_injection(self) -> Dict[int, int]:
        """Parse :data:`INJECT_CRASH_ENV` into ``{worker_index: claims}``."""
        raw = os.environ.get(INJECT_CRASH_ENV, "").strip()
        if not raw:
            return {}
        injected: Dict[int, int] = {}
        for spec in raw.split(","):
            index, _, claims = spec.partition(":")
            injected[int(index)] = int(claims or 1)
        return injected

    def _spawn(self, path: str, sequence: int,
               crash_after: Optional[int]) -> tuple:
        """Start one worker subprocess; returns ``(process, log_path)``."""
        env = dict(os.environ)
        env.pop(INJECT_CRASH_ENV, None)
        src_root = os.path.dirname(
            os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(
            part for part in (src_root, env.get("PYTHONPATH", "")) if part)
        command = [sys.executable, "-m", "repro.worker",
                   "--queue", path,
                   "--worker-id", f"w{sequence}",
                   "--poll-interval", str(self.poll_interval)]
        if self.checkpoint_dir:
            command += ["--checkpoint-dir", self.checkpoint_dir]
        if crash_after is not None:
            command += ["--crash-after-claims", str(crash_after)]
        log_path = f"{path}.w{sequence}.log"
        with open(log_path, "ab") as log:
            process = subprocess.Popen(command, env=env,
                                       stdout=log, stderr=log)
        return process, log_path

    @staticmethod
    def _log_tail(log_path: str, limit: int = 2000) -> str:
        try:
            with open(log_path, "rb") as handle:
                data = handle.read()
        except OSError:
            return ""
        return data[-limit:].decode("utf-8", "replace").strip()

    def _drive_fleet(self, queue: WorkQueue, path: str, keys: List[str],
                     progress: Optional[Callable], reported: set) -> None:
        sweep_orphan_segments()
        crash = self._crash_injection()
        workers = [self._spawn(path, index, crash.get(index))
                   for index in range(self.max_workers)]
        sequence = self.max_workers
        respawns = 0
        try:
            # unfinished() sweeps expired leases, so even a fully crashed
            # fleet keeps redelivery moving while the parent watches.
            while queue.unfinished() > 0:
                self._report_progress(queue, keys, progress, reported)
                alive = [entry for entry in workers
                         if entry[0].poll() is None]
                while len(alive) < self.max_workers \
                        and respawns < self.respawn_limit:
                    respawns += 1
                    alive.append(self._spawn(path, sequence, None))
                    sequence += 1
                if not alive:
                    dead_log = self._log_tail(workers[-1][1])
                    raise ExecutorError(
                        "Every distributed worker died and the respawn "
                        f"budget ({self.respawn_limit}) is spent. Last "
                        f"worker log:\n{dead_log}")
                workers = alive
                time.sleep(self.poll_interval)
            # Drained: workers exit on their own once nothing is claimable.
            deadline = time.time() + max(30.0, queue.visibility_timeout)
            for process, log_path in workers:
                remaining = max(0.1, deadline - time.time())
                try:
                    process.wait(timeout=remaining)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    process.wait(timeout=10.0)
            self._report_progress(queue, keys, progress, reported)
        finally:
            for process, _ in workers:
                if process.poll() is None:
                    process.kill()
                    process.wait()


# Self-registration: `get_executor("distributed")` imports this module
# lazily (see _LAZY_EXECUTORS in repro.core.executor) and the name
# becomes a first-class registry entry from then on.
EXECUTORS[DistributedExecutor.name] = DistributedExecutor
