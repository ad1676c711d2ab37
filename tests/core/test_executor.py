"""Tests for the execution engine.

Two halves: a compiled plan runs itself, in plan order, in the caller
(:meth:`~repro.core.plan.ExecutionPlan.run`, with its timing and memory
helpers), and executors only fan job lists out (:meth:`Executor.map`).
"""

import threading
import time

import numpy as np
import pytest

from repro.core.executor import (
    Executor,
    SerialExecutor,
    ThreadedExecutor,
    get_executor,
    list_executors,
)
from repro.core.pipeline import Pipeline
from repro.core.plan import ExecutionPlan, StepNode
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import ExecutorError
from repro.pipelines import get_pipeline_spec


# --------------------------------------------------------------------------- #
# test primitives: a diamond DAG with an execution-order trace
# --------------------------------------------------------------------------- #
_TRACE = []
_TRACE_LOCK = threading.Lock()


def _record(name, phase):
    with _TRACE_LOCK:
        _TRACE.append((name, phase, time.perf_counter()))


@register_primitive
class _SplitPrimitive(Primitive):
    name = "test_executor_split"
    engine = "preprocessing"
    produce_args = ["data"]
    produce_output = ["left", "right"]

    def produce(self, data):
        _record(self.name, "run")
        values = data[:, 1]
        return {"left": values + 1.0, "right": values * 2.0}


@register_primitive
class _LeftBranchPrimitive(Primitive):
    name = "test_executor_left"
    engine = "modeling"
    produce_args = ["left"]
    produce_output = ["left_sum"]

    def produce(self, left):
        _record(self.name, "start")
        time.sleep(0.05)
        _record(self.name, "end")
        return {"left_sum": float(np.sum(left))}


@register_primitive
class _RightBranchPrimitive(Primitive):
    name = "test_executor_right"
    engine = "modeling"
    produce_args = ["right"]
    produce_output = ["right_sum"]

    def produce(self, right):
        _record(self.name, "start")
        time.sleep(0.05)
        _record(self.name, "end")
        return {"right_sum": float(np.sum(right))}


@register_primitive
class _JoinPrimitive(Primitive):
    name = "test_executor_join"
    engine = "postprocessing"
    produce_args = ["left_sum", "right_sum"]
    produce_output = ["anomalies"]

    def produce(self, left_sum, right_sum):
        _record(self.name, "run")
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


def _data(n=32):
    return np.column_stack([np.arange(n, dtype=float),
                            np.sin(np.arange(n, dtype=float))])


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
class TestRegistry:
    def test_default_is_serial(self):
        assert isinstance(get_executor(None), SerialExecutor)

    def test_resolve_by_name(self):
        assert isinstance(get_executor("serial"), SerialExecutor)
        assert isinstance(get_executor("threaded"), ThreadedExecutor)

    def test_instances_pass_through(self):
        executor = ThreadedExecutor(max_workers=2)
        assert get_executor(executor) is executor

    def test_resolve_by_class_with_options(self):
        executor = get_executor(ThreadedExecutor, max_workers=3)
        assert executor.max_workers == 3

    def test_unknown_name_rejected(self):
        with pytest.raises(ExecutorError, match="Unknown executor"):
            get_executor("quantum")

    def test_bad_type_rejected(self):
        with pytest.raises(ExecutorError):
            get_executor(42)

    def test_list_executors(self):
        assert list_executors() == ["distributed", "process", "serial",
                                    "threaded"]

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ExecutorError):
            ThreadedExecutor(max_workers=0)


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
def _fitted(spec):
    """A pipeline fitted on ``_data()``: one fan-out job."""
    return Pipeline(spec).fit(_data())


def _fit_detect(job):
    """Fit a spec on data and detect on the same data: one fan-out job."""
    spec, data = job
    return Pipeline(spec).fit_detect(data)


class TestSchedulingEquivalence:
    """Pipeline jobs on a thread pool run as they do in the caller."""

    def test_threaded_matches_serial_on_diamond(self):
        jobs = [(_diamond_spec(), _data()) for _ in range(4)]
        expected = SerialExecutor().map(_fit_detect, jobs)
        actual = ThreadedExecutor(max_workers=4).map(_fit_detect, jobs)
        np.testing.assert_allclose(np.asarray(actual), np.asarray(expected))

    def test_threaded_respects_dependency_order(self):
        _TRACE.clear()
        ThreadedExecutor(max_workers=4).map(
            _fit_detect, [(_diamond_spec(), _data())])
        events = {(name, phase): when for name, phase, when in _TRACE}
        split = events[("test_executor_split", "run")]
        join = events[("test_executor_join", "run")]
        for branch in ("test_executor_left", "test_executor_right"):
            assert events[(branch, "start")] >= split
            assert events[(branch, "end")] <= join

    def test_threaded_matches_serial_on_seed_pipeline(self, small_signal):
        # Acceptance criterion: identical anomaly lists on the seed pipelines.
        data = small_signal.to_array()
        jobs = [(get_pipeline_spec("arima", window_size=30), data)
                for _ in range(2)]
        [serial] = SerialExecutor().map(_fit_detect, jobs[:1])
        for threaded in ThreadedExecutor(max_workers=2).map(_fit_detect,
                                                            jobs):
            assert len(serial) == len(threaded)
            np.testing.assert_allclose(np.asarray(threaded),
                                       np.asarray(serial))

    def test_threaded_step_timings_in_plan_order(self):
        [pipeline] = ThreadedExecutor(max_workers=4).map(
            _fitted, [_diamond_spec()])
        assert list(pipeline.step_timings) == [step["name"]
                                               for step in pipeline.steps]

    def test_threaded_propagates_step_errors(self):
        from repro.exceptions import PipelineError

        job = (get_pipeline_spec("arima", window_size=30), np.zeros((3, 0)))
        with pytest.raises((PipelineError, Exception)):
            ThreadedExecutor(max_workers=2).map(_fit_detect, [job])

    def test_map_preserves_item_order(self):
        executor = ThreadedExecutor(max_workers=4)

        def slow_identity(item):
            time.sleep(0.01 * (4 - item % 5))
            return item

        items = list(range(12))
        assert executor.map(slow_identity, items) == items

    def test_map_empty(self):
        assert ThreadedExecutor().map(lambda item: item, []) == []
        assert SerialExecutor().map(lambda item: item * 2, [1, 2]) == [2, 4]


# --------------------------------------------------------------------------- #
# integration with Sintel
# --------------------------------------------------------------------------- #
class TestSintelIntegration:
    def test_pipelines_take_no_executor(self):
        from repro.core.sintel import Sintel

        with pytest.raises(TypeError, match="executor"):
            Sintel("arima", executor="threaded", window_size=30)
        with pytest.raises(TypeError, match="executor"):
            Pipeline(_diamond_spec(), executor="threaded")

    def test_sintel_save_load_with_executor(self, small_signal, tmp_path):
        # A model saved while pipelines held an executor still loads and
        # detects identically: nothing reads the stale attribute.
        from repro.core.sintel import Sintel

        sintel = Sintel("azure")
        sintel.fit_detect(small_signal)
        sintel.pipeline.__dict__["_executor"] = ThreadedExecutor(
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
