"""Tests for the queue-backed DistributedExecutor."""

import json

import pytest

from repro.core.executor import (
    EXECUTORS,
    SerialExecutor,
    get_executor,
    list_executors,
)
from repro.core.plan import ExecutionPlan, StepNode
from repro.distributed.executor import INJECT_CRASH_ENV, DistributedExecutor
from repro.distributed.queue import WorkQueue
from repro.exceptions import ExecutorError


def _double(value):
    return value * 2


class TestRegistry:
    def test_distributed_listed_and_lazily_registered(self):
        assert "distributed" in list_executors()
        executor = get_executor("distributed", max_workers=0)
        assert isinstance(executor, DistributedExecutor)
        assert EXECUTORS["distributed"] is DistributedExecutor

    def test_unknown_name_still_rejected(self):
        with pytest.raises(ExecutorError):
            get_executor("teleporting")

    def test_negative_workers_rejected(self):
        with pytest.raises(ExecutorError):
            DistributedExecutor(max_workers=-1)


class TestInlineMode:
    """``max_workers=0``: the parent drains the queue in-process."""

    def test_map_preserves_item_order(self):
        executor = DistributedExecutor(max_workers=0)
        assert executor.map(_double, [3, 1, 2]) == [6, 2, 4]

    def test_map_empty_items(self):
        assert DistributedExecutor(max_workers=0).map(_double, []) == []

    def test_progress_reports_every_completion(self):
        executor = DistributedExecutor(max_workers=0)
        seen = []
        executor.map(_double, [5, 6], progress=lambda i, r: seen.append((i, r)))
        assert sorted(seen) == [(0, 10), (1, 12)]

    def test_unpicklable_function_degrades_to_serial(self):
        executor = DistributedExecutor(max_workers=0)
        offset = 10
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            results = executor.map(lambda v: v + offset, [1, 2])
        assert results == [11, 12]

    def test_dict_items_keyed_by_their_key_field(self, tmp_path):
        queue_path = str(tmp_path / "q.sqlite")
        executor = DistributedExecutor(max_workers=0, queue_path=queue_path)
        items = [{"key": "job-a", "value": 1}, {"key": "job-b", "value": 2}]
        executor.map(_job_value, items)
        assert WorkQueue(queue_path).finished_keys() == ["job-a", "job-b"]

    def test_durable_queue_resume_skips_finished_units(self, tmp_path):
        queue_path = str(tmp_path / "q.sqlite")
        items = [{"key": "job-a", "value": 1}, {"key": "job-b", "value": 2}]
        first = DistributedExecutor(max_workers=0, queue_path=queue_path)
        assert first.map(_job_value, items) == [1, 2]
        # Second run re-enqueues idempotently: nothing is re-executed
        # (attempts stay at 1) and the stored results are returned.
        second = DistributedExecutor(max_workers=0, queue_path=queue_path)
        assert second.map(_job_value, items) == [1, 2]
        queue = WorkQueue(queue_path)
        assert queue.attempts("job-a") == 1
        assert queue.attempts("job-b") == 1

    def test_dead_letter_raises_instead_of_partial_results(self):
        executor = DistributedExecutor(max_workers=0, max_attempts=2,
                                       retry_backoff=0.0)
        with pytest.raises(ExecutorError, match="dead-letter"):
            executor.map(_always_fails, [1])

    def test_failed_units_retry_before_dead_lettering(self, tmp_path):
        queue_path = str(tmp_path / "q.sqlite")
        executor = DistributedExecutor(max_workers=0, queue_path=queue_path,
                                       max_attempts=3, retry_backoff=0.0)
        with pytest.raises(ExecutorError):
            executor.map(_always_fails, [1])
        assert WorkQueue(queue_path).attempts("map-000000") == 3


def _produce(context):
    return {"x": 2}


def _consume(context):
    return {"y": context["x"] * 10}


def _run_plan(plan):
    return plan.run({})


class TestRunPlanFallback:
    def test_run_plan_matches_serial(self):
        # A plan of module-level steps crosses the queue as a work item
        # and runs in the draining worker exactly as in the caller.
        plan = ExecutionPlan([
            StepNode(name="produce", engine="t", execute=_produce),
            StepNode(name="consume", engine="t", execute=_consume),
        ])
        [(context, timings)] = DistributedExecutor(max_workers=0).map(
            _run_plan, [plan])
        [(expected, _)] = SerialExecutor().map(_run_plan, [plan])
        assert context == expected == {"x": 2, "y": 20}
        assert set(timings) == {"produce", "consume"}


class TestFleetMode:
    """Real ``python -m repro.worker`` subprocesses against a shared queue."""

    def test_fleet_map_preserves_order(self):
        executor = DistributedExecutor(max_workers=2, visibility_timeout=10.0)
        assert executor.map(abs, [-3, -1, -2]) == [3, 1, 2]

    def test_single_worker_fleet(self):
        executor = DistributedExecutor(max_workers=1, visibility_timeout=10.0)
        assert executor.map(abs, list(range(-4, 0))) == [4, 3, 2, 1]

    def test_worker_checkpoints_written(self, tmp_path):
        checkpoints = tmp_path / "ckpt"
        executor = DistributedExecutor(max_workers=1, visibility_timeout=10.0,
                                       checkpoint_dir=str(checkpoints))
        executor.map(dict, [[("f1", 0.25)]])
        files = list(checkpoints.glob("worker-*.jsonl"))
        assert files, "worker wrote no checkpoint file"
        lines = [json.loads(line)
                 for path in files
                 for line in path.read_text().splitlines()]
        assert {"kind": "record", "key": "map-000000",
                "record": {"f1": 0.25}} in lines

    def test_injected_crash_recovers_with_identical_results(self, monkeypatch):
        # Initial worker 0 dies SIGKILL-style right after its first claim,
        # holding the lease; recovery = expiry + redelivery + respawn.
        monkeypatch.setenv(INJECT_CRASH_ENV, "0:1")
        executor = DistributedExecutor(max_workers=2, visibility_timeout=1.0,
                                       retry_backoff=0.0, poll_interval=0.05)
        assert executor.map(abs, list(range(-6, 0))) == [6, 5, 4, 3, 2, 1]

    def test_crashed_unit_was_actually_redelivered(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv(INJECT_CRASH_ENV, "0:1")
        queue_path = str(tmp_path / "q.sqlite")
        executor = DistributedExecutor(max_workers=1, queue_path=queue_path,
                                       visibility_timeout=0.5,
                                       retry_backoff=0.0, poll_interval=0.05)
        assert executor.map(abs, [-7]) == [7]
        # Delivered twice: once to the crashed worker, once to a respawn.
        assert WorkQueue(queue_path).attempts("map-000000") == 2


def _job_value(job):
    return job["value"]


def _always_fails(item):
    raise ValueError("synthetic failure")
