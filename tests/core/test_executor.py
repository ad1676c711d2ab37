"""Tests for the execution engine.

Two halves: a compiled plan runs itself, in plan order, in the caller
(:meth:`~repro.core.plan.ExecutionPlan.run`, with its timing and memory
helpers), and executors only fan job lists out (:meth:`Executor.map`).
"""

import time

import numpy as np
import pytest

from repro.core.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
    list_executors,
)
from repro.core.pipeline import Pipeline
from repro.core.plan import ExecutionPlan, StepNode
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import ExecutorError
from repro.pipelines import get_pipeline_spec


# --------------------------------------------------------------------------- #
# test primitives: a diamond DAG
# --------------------------------------------------------------------------- #
@register_primitive
class _SplitPrimitive(Primitive):
    name = "test_executor_split"
    engine = "preprocessing"
    produce_args = ["data"]
    produce_output = ["left", "right"]

    def produce(self, data):
        values = data[:, 1]
        return {"left": values + 1.0, "right": values * 2.0}


@register_primitive
class _LeftBranchPrimitive(Primitive):
    name = "test_executor_left"
    engine = "modeling"
    produce_args = ["left"]
    produce_output = ["left_sum"]

    def produce(self, left):
        return {"left_sum": float(np.sum(left))}


@register_primitive
class _RightBranchPrimitive(Primitive):
    name = "test_executor_right"
    engine = "modeling"
    produce_args = ["right"]
    produce_output = ["right_sum"]

    def produce(self, right):
        return {"right_sum": float(np.sum(right))}


@register_primitive
class _JoinPrimitive(Primitive):
    name = "test_executor_join"
    engine = "postprocessing"
    produce_args = ["left_sum", "right_sum"]
    produce_output = ["anomalies"]

    def produce(self, left_sum, right_sum):
        return {"anomalies": np.array([[0.0, 1.0, left_sum + right_sum]])}


def _diamond_spec():
    return {
        "name": "diamond",
        "steps": [
            {"primitive": "test_executor_split"},
            {"primitive": "test_executor_left"},
            {"primitive": "test_executor_right"},
            {"primitive": "test_executor_join"},
        ],
    }


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_default_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)

    def test_resolve_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("process"), ProcessExecutor)

    def test_instances_pass_through(self):
        executor = ProcessExecutor(max_workers=2)
        assert get_executor(executor) is executor

    def test_resolve_by_class_with_options(self):
        executor = get_executor(ProcessExecutor, max_workers=3)
        assert executor.max_workers == 3

    def test_unknown_name_rejected(self):
        for name in ("quantum", "distributed", "threaded"):
            with pytest.raises(ExecutorError, match="Unknown executor"):
                get_executor(name)

    def test_bad_type_rejected(self):
        with pytest.raises(ExecutorError):
            get_executor(42)

    def test_list_executors(self):
        assert list_executors() == ["process", "serial"]

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ExecutorError):
            ProcessExecutor(max_workers=0)


# --------------------------------------------------------------------------- #
# execution plans
# --------------------------------------------------------------------------- #
def _node(name):
    return StepNode(name=name, engine="preprocessing",
                    execute=lambda context: {})


class TestExecutionPlan:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ExecutorError, match="Duplicate"):
            ExecutionPlan([_node("a"), _node("a")])

    def test_hand_built_plan_runs_in_order(self):
        # Closure plans run like compiled ones: node by node, each one
        # seeing the updates of the nodes before it.
        nodes = [
            StepNode(name="produce", engine="t",
                     execute=lambda context: {"x": 2}),
            StepNode(name="consume", engine="t",
                     execute=lambda context: {"y": context["x"] * 10}),
        ]
        context, timings = ExecutionPlan(nodes).run({})
        assert context == {"x": 2, "y": 20}
        assert list(timings) == ["produce", "consume"]
        assert all(timing["elapsed"] >= 0.0 for timing in timings.values())


# --------------------------------------------------------------------------- #
# job fan-out
# --------------------------------------------------------------------------- #
def _slow_identity(item):
    """Return ``item``, later items first: completion order != item order."""
    time.sleep(0.01 * (4 - item % 5))
    return item


class TestSchedulingEquivalence:
    """``map`` returns results in item order on every executor."""

    def test_map_preserves_item_order(self):
        executor = ProcessExecutor(max_workers=4)
        items = list(range(12))
        assert executor.map(_slow_identity, items) == items

    def test_map_empty(self):
        assert ProcessExecutor().map(_slow_identity, []) == []
        assert SerialExecutor().map(lambda item: item * 2, [1, 2]) == [2, 4]


# --------------------------------------------------------------------------- #
# integration with Sintel
# --------------------------------------------------------------------------- #
class TestSintelIntegration:
    def test_pipelines_take_no_executor(self):
        from repro.core.sintel import Sintel

        with pytest.raises(TypeError, match="executor"):
            Sintel("arima", executor="process", window_size=30)
        with pytest.raises(TypeError, match="executor"):
            Pipeline(_diamond_spec(), executor="process")

    def test_sintel_save_load_with_executor(self, small_signal, tmp_path):
        # A model saved while pipelines held an executor still loads and
        # detects identically: nothing reads the stale attribute.
        from repro.core.sintel import Sintel

        sintel = Sintel("azure")
        sintel.fit_detect(small_signal)
        sintel.pipeline.__dict__["_executor"] = ProcessExecutor(
            max_workers=2)
        path = tmp_path / "sintel.pkl"
        sintel.save(path)
        restored = Sintel.load(path)
        assert restored.detect(small_signal) == sintel.detect(small_signal)

    def test_base_executor_is_abstract(self):
        executor = Executor()
        with pytest.raises(NotImplementedError):
            executor.map(lambda item: item, [])


class TestTraceMemory:
    def test_owns_trace_when_none_active(self):
        import tracemalloc

        from repro.core.plan import trace_memory

        assert not tracemalloc.is_tracing()
        with trace_memory() as probe:
            blob = np.zeros(100_000)
        assert not tracemalloc.is_tracing()
        assert probe.memory > 0
        del blob

    def test_nested_measures_delta_and_keeps_outer_trace(self):
        import tracemalloc

        from repro.core.plan import trace_memory

        with trace_memory() as outer:
            with trace_memory() as inner:
                blob = np.zeros(100_000)
            # The inner probe must not have stopped the outer trace.
            assert tracemalloc.is_tracing()
        assert inner.memory > 0
        assert outer.memory >= inner.memory
        del blob

    def test_disabled_probe_reports_zero(self):
        from repro.core.plan import trace_memory

        with trace_memory(enabled=False) as probe:
            np.zeros(10_000)
        assert probe.memory == 0

    def test_failed_run_clears_previous_step_timings(self, small_signal):
        from repro.exceptions import ReproError

        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(small_signal.to_array())
        assert pipeline.step_timings
        with pytest.raises((ReproError, Exception)):
            pipeline.detect(np.zeros((2, 2)))
        assert pipeline.step_timings == {}
