"""Tests for the pluggable execution engine."""

import threading
import time

import numpy as np
import pytest

from repro.core.executor import (
    CachingExecutor,
    ExecutionPlan,
    Executor,
    SerialExecutor,
    StepNode,
    ThreadedExecutor,
    get_executor,
    list_executors,
)
from repro.core.pipeline import Pipeline
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


@register_primitive
class _CountingPrimitive(Primitive):
    name = "test_executor_counting"
    engine = "preprocessing"
    produce_args = ["data"]
    produce_output = ["doubled"]
    fixed_hyperparameters = {"offset": 0.0}
    calls = 0

    def produce(self, data):
        type(self).calls += 1
        return {"doubled": data * 2.0 + self.offset}


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


def _counting_spec():
    return {
        "name": "counting",
        "steps": [{"primitive": "test_executor_counting"}],
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
        assert isinstance(get_executor("caching"), CachingExecutor)

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
        assert list_executors() == ["caching", "distributed", "process",
                                    "serial", "threaded"]

    def test_invalid_worker_counts_rejected(self):
        with pytest.raises(ExecutorError):
            ThreadedExecutor(max_workers=0)
        with pytest.raises(ExecutorError):
            CachingExecutor(maxsize=0)


# --------------------------------------------------------------------------- #
# execution plans
# --------------------------------------------------------------------------- #
def _node(name, reads=(), writes=()):
    return StepNode(name=name, engine="preprocessing", reads=tuple(reads),
                    writes=tuple(writes), execute=lambda context, fit: {})


class TestExecutionPlan:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ExecutorError, match="Duplicate"):
            ExecutionPlan([_node("a"), _node("a")])


# --------------------------------------------------------------------------- #
# scheduling correctness
# --------------------------------------------------------------------------- #
class TestSchedulingEquivalence:
    def test_threaded_matches_serial_on_diamond(self):
        serial = Pipeline(_diamond_spec(), executor="serial")
        threaded = Pipeline(_diamond_spec(), executor="threaded")
        expected = serial.fit_detect(_data())
        actual = threaded.fit_detect(_data())
        np.testing.assert_allclose(np.asarray(actual), np.asarray(expected))

    def test_threaded_respects_dependency_order(self):
        _TRACE.clear()
        pipeline = Pipeline(_diamond_spec(), executor=ThreadedExecutor(max_workers=4))
        pipeline.fit_detect(_data())
        events = {(name, phase): when for name, phase, when in _TRACE}
        split = events[("test_executor_split", "run")]
        join = events[("test_executor_join", "run")]
        for branch in ("test_executor_left", "test_executor_right"):
            assert events[(branch, "start")] >= split
            assert events[(branch, "end")] <= join

    def test_threaded_matches_serial_on_seed_pipeline(self, small_signal):
        # Acceptance criterion: identical anomaly lists on the seed pipelines.
        data = small_signal.to_array()
        spec = get_pipeline_spec("arima", window_size=30)
        serial = Pipeline(spec, executor="serial").fit_detect(data)
        threaded = Pipeline(
            get_pipeline_spec("arima", window_size=30),
            executor=ThreadedExecutor(max_workers=4),
        ).fit_detect(data)
        assert len(serial) == len(threaded)
        np.testing.assert_allclose(np.asarray(threaded), np.asarray(serial))

    def test_threaded_step_timings_in_plan_order(self):
        pipeline = Pipeline(_diamond_spec(), executor="threaded")
        pipeline.fit(_data())
        assert list(pipeline.step_timings) == [step["name"]
                                               for step in pipeline.steps]

    def test_threaded_propagates_step_errors(self):
        from repro.exceptions import PipelineError

        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30),
                            executor="threaded")
        with pytest.raises((PipelineError, Exception)):
            pipeline.fit(np.zeros((3, 0)))

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
# caching
# --------------------------------------------------------------------------- #
class TestCachingExecutor:
    def test_repeated_detect_hits_cache(self):
        _CountingPrimitive.calls = 0
        executor = CachingExecutor()
        pipeline = Pipeline(_counting_spec(), executor=executor)
        data = _data()
        pipeline.fit(data)
        assert _CountingPrimitive.calls == 1
        pipeline.detect(data)
        pipeline.detect(data)
        # The stateless step is served from cache for every repeat run.
        assert _CountingPrimitive.calls == 1
        assert executor.hits == 2
        assert pipeline.step_timings["test_executor_counting"]["cached"] is True

    def test_hyperparameter_change_invalidates(self):
        _CountingPrimitive.calls = 0
        executor = CachingExecutor()
        pipeline = Pipeline(_counting_spec(), executor=executor)
        data = _data()
        pipeline.fit(data)
        pipeline.set_hyperparameters(
            {"test_executor_counting": {"offset": 5.0}})
        pipeline.fit(data)
        assert _CountingPrimitive.calls == 2
        assert executor.misses == 2

    def test_input_change_invalidates(self):
        _CountingPrimitive.calls = 0
        pipeline = Pipeline(_counting_spec(), executor=CachingExecutor())
        pipeline.fit(_data(16))
        pipeline.fit(_data(24))
        assert _CountingPrimitive.calls == 2

    def test_cache_shared_across_pipelines(self):
        _CountingPrimitive.calls = 0
        executor = CachingExecutor()
        data = _data()
        Pipeline(_counting_spec(), executor=executor).fit(data)
        Pipeline(_counting_spec(), executor=executor).fit(data)
        assert _CountingPrimitive.calls == 1
        assert executor.hits == 1

    def test_clear_resets_cache_and_counters(self):
        _CountingPrimitive.calls = 0
        executor = CachingExecutor()
        pipeline = Pipeline(_counting_spec(), executor=executor)
        pipeline.fit(_data())
        executor.clear()
        assert executor.hits == 0 and executor.misses == 0
        pipeline.fit(_data())
        assert _CountingPrimitive.calls == 2

    def test_lru_eviction(self):
        executor = CachingExecutor(maxsize=1)
        pipeline = Pipeline(_counting_spec(), executor=executor)
        pipeline.fit(_data(16))
        pipeline.fit(_data(24))
        pipeline.fit(_data(16))  # evicted by the 24-row entry
        assert executor.hits == 0
        assert executor.misses == 3
        assert executor.evictions == 2

    def test_memo_store_stays_bounded(self):
        executor = CachingExecutor(max_entries=4)
        pipeline = Pipeline(_counting_spec(), executor=executor)
        for size in range(16, 16 + 20):
            pipeline.fit(_data(size))
        stats = executor.stats()
        assert stats["entries"] <= 4
        assert stats["max_entries"] == 4
        assert stats["evictions"] == stats["misses"] - stats["entries"]
        assert executor.max_entries == executor.maxsize == 4

    def test_stats_and_clear_reset_evictions(self):
        executor = CachingExecutor(maxsize=1)
        pipeline = Pipeline(_counting_spec(), executor=executor)
        pipeline.fit(_data(16))
        pipeline.fit(_data(24))
        assert executor.stats()["evictions"] == 1
        executor.clear()
        stats = executor.stats()
        zero = {"hits": 0, "misses": 0, "evictions": 0}
        assert stats == {"hits": 0, "misses": 0, "evictions": 0,
                         "entries": 0, "max_entries": 1,
                         "by_mode": {"single": zero, "batch": zero}}

    def test_caching_over_threaded_inner(self):
        executor = CachingExecutor(inner="threaded")
        pipeline = Pipeline(_diamond_spec(), executor=executor)
        expected = pipeline.fit_detect(_data())
        again = Pipeline(_diamond_spec(), executor=executor).fit_detect(_data())
        np.testing.assert_allclose(np.asarray(again), np.asarray(expected))
        assert executor.hits > 0

    def test_cached_results_match_uncached(self, small_signal):
        data = small_signal.to_array()
        spec = get_pipeline_spec("arima", window_size=30)
        expected = Pipeline(spec).fit_detect(data)
        executor = CachingExecutor()
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30),
                            executor=executor)
        pipeline.fit(data)
        first = pipeline.detect(data)
        second = pipeline.detect(data)
        assert first == second
        np.testing.assert_allclose(np.asarray(first), np.asarray(expected))
        assert executor.hits > 0

    def test_pickles_without_cache(self, tmp_path):
        import pickle

        executor = CachingExecutor()
        Pipeline(_counting_spec(), executor=executor).fit(_data())
        restored = pickle.loads(pickle.dumps(executor))
        assert isinstance(restored, CachingExecutor)
        assert len(restored._cache) == 0


# --------------------------------------------------------------------------- #
# integration with Sintel
# --------------------------------------------------------------------------- #
class TestSintelIntegration:
    def test_sintel_executor_option(self, small_signal):
        from repro.core.sintel import Sintel

        sintel = Sintel("arima", executor="threaded", window_size=30)
        assert isinstance(sintel.pipeline.executor, ThreadedExecutor)
        anomalies = sintel.fit_detect(small_signal)
        assert isinstance(anomalies, list)

    def test_sintel_save_load_with_executor(self, small_signal, tmp_path):
        from repro.core.sintel import Sintel

        sintel = Sintel("azure", executor=CachingExecutor())
        sintel.fit_detect(small_signal)
        path = tmp_path / "sintel.pkl"
        sintel.save(path)
        restored = Sintel.load(path)
        assert isinstance(restored.pipeline.executor, CachingExecutor)
        assert restored.detect(small_signal) == sintel.detect(small_signal)

    def test_base_executor_is_abstract(self):
        executor = Executor()
        with pytest.raises(NotImplementedError):
            executor.map(lambda item: item, [])


class TestTraceMemory:
    def test_owns_trace_when_none_active(self):
        import tracemalloc

        from repro.core.executor import trace_memory

        assert not tracemalloc.is_tracing()
        with trace_memory() as probe:
            blob = np.zeros(100_000)
        assert not tracemalloc.is_tracing()
        assert probe.memory > 0
        del blob

    def test_nested_measures_delta_and_keeps_outer_trace(self):
        import tracemalloc

        from repro.core.executor import trace_memory

        with trace_memory() as outer:
            with trace_memory() as inner:
                blob = np.zeros(100_000)
            # The inner probe must not have stopped the outer trace.
            assert tracemalloc.is_tracing()
        assert inner.memory > 0
        assert outer.memory >= inner.memory
        del blob

    def test_disabled_probe_reports_zero(self):
        from repro.core.executor import trace_memory

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
