"""Executor parity and picklability guarantees.

Every executor strategy must produce the same anomalies as the serial
reference for the same plan, run a plan's steps in order in the caller,
and everything ``map`` jobs and saved models carry across a process
boundary — primitives, pipelines — must survive a pickle round-trip.
"""

import os
import pickle
import threading

import numpy as np
import pytest

from repro.core.executor import (
    MP_START_ENV,
    ProcessExecutor,
    SHM_MIN_BYTES,
    _mp_context,
    decode_and_release,
    decode_from_transfer,
    encode_for_transfer,
    encode_result,
    get_executor,
    list_executors,
    release_transfers,
)
from repro.core.pipeline import Pipeline
from repro.core.primitive import (
    Primitive,
    get_primitive,
    list_primitives,
    register_primitive,
)
from repro.core.sintel import Sintel
from repro.exceptions import ExecutorError
from repro.pipelines import get_pipeline_spec

EXECUTORS = ["serial", "threaded", "process", "caching"]

#: Fast, deterministic pipelines exercised by the parity suite.
PIPELINES = [("azure", {}), ("arima", {"window_size": 30})]


def _shm_entries():
    """Current /dev/shm entries (empty set where unsupported)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


# Module-level on purpose: the process executor ships mapped functions by
# reference, so they must be importable from inside pool workers.
def _return_large_array(n):
    return {"payload": np.full(SHM_MIN_BYTES, float(n)), "tag": n}


def _worker_boom(n):
    raise RuntimeError(f"injected worker failure {n}")


@register_primitive
class _WhereProbe(Primitive):
    """Appends ``(step, pid, thread id)`` to the trace it passes on."""

    name = "test_executor_parity_where_probe"
    engine = "preprocessing"
    produce_args = ["events"]
    produce_output = ["events"]
    fixed_hyperparameters = {"step": ""}

    def produce(self, events):
        where = (self.step, os.getpid(), threading.get_ident())
        return {"events": tuple(events or ()) + (where,)}


@pytest.fixture(scope="module")
def reference(small_signal):
    """Serial-executor anomalies per pipeline: the parity ground truth."""
    data = small_signal.to_array()
    outputs = {}
    for name, options in PIPELINES:
        sintel = Sintel(name, **options)
        sintel.fit(data)
        outputs[name] = sintel.detect(data)
    return outputs


class TestExecutorParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    @pytest.mark.parametrize("pipeline,options", PIPELINES)
    def test_identical_anomalies(self, executor, pipeline, options,
                                 small_signal, reference):
        data = small_signal.to_array()
        sintel = Sintel(pipeline, executor=executor, **options)
        sintel.fit(data)
        assert sintel.detect(data) == reference[pipeline]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_step_timings_cover_every_step(self, executor, small_signal):
        data = small_signal.to_array()
        pipeline = Pipeline(get_pipeline_spec("azure"), executor=executor)
        pipeline.fit(data)
        names = {step["name"] for step in pipeline.steps}
        assert set(pipeline.step_timings) == names
        for timing in pipeline.step_timings.values():
            assert timing["elapsed"] >= 0.0

    def test_process_fit_state_absorbed(self, small_signal):
        # A stateful pipeline fitted entirely in worker processes must be
        # detectable afterwards with a *serial* executor: the fitted
        # primitives were grafted back into the parent's pipeline.
        data = small_signal.to_array()
        sintel = Sintel("arima", executor="process", window_size=30)
        sintel.fit(data)
        sintel.set_executor("serial")
        assert sintel.detect(data) == Sintel(
            "arima", window_size=30).fit(data).detect(data)


class TestPlanRunsInCaller:
    @pytest.mark.parametrize("executor", list_executors())
    def test_steps_run_in_plan_order_in_the_caller(self, executor):
        # Every executor runs a plan node by node, in plan order, on the
        # calling thread; executors differ only in how ``map`` fans out.
        steps = ["first", "second", "third"]
        pipeline = Pipeline({
            "name": "where",
            "steps": [{"primitive": _WhereProbe.name,
                       "hyperparameters": {"step": step}}
                      for step in steps],
        }, executor=executor)
        pipeline.fit(np.zeros((8, 2)))
        caller = (os.getpid(), threading.get_ident())
        for mode in ("fit", "detect"):
            context, _ = pipeline.executor.run_plan(
                pipeline.compiled_plan(mode),
                {"data": np.zeros((8, 2)), "events": None},
                fit=mode == "fit")
            assert [where[0] for where in context["events"]] == steps
            assert {where[1:] for where in context["events"]} == {caller}


class TestPrimitivePickling:
    @pytest.mark.parametrize("name", list_primitives())
    def test_round_trip(self, name):
        primitive = get_primitive(name)
        clone = pickle.loads(pickle.dumps(primitive))
        assert type(clone) is type(primitive)
        assert clone.hyperparameters == primitive.hyperparameters

    def test_fitted_pipeline_round_trip(self, small_signal):
        data = small_signal.to_array()
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(data)
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone.detect(data) == pipeline.detect(data)


class TestSharedMemoryTransfer:
    def test_large_arrays_round_trip_through_shm(self):
        rows = SHM_MIN_BYTES // 8 + 16
        original = {"data": np.arange(rows, dtype=float),
                    "small": np.ones(4), "label": "x",
                    "nested": [np.zeros(3), ("tuple", 1)]}
        segments = []
        encoded = encode_for_transfer(original, segments)
        try:
            assert len(segments) == 1  # only the large array moved to shm
            assert not isinstance(encoded["data"], np.ndarray)
            assert isinstance(encoded["small"], np.ndarray)
            decoded = decode_from_transfer(pickle.loads(pickle.dumps(encoded)))
        finally:
            release_transfers(segments)
        np.testing.assert_array_equal(decoded["data"], original["data"])
        np.testing.assert_array_equal(decoded["small"], original["small"])
        assert decoded["label"] == "x"
        assert decoded["nested"][1] == ("tuple", 1)

    def test_release_is_idempotent(self):
        segments = []
        encode_for_transfer(np.zeros(SHM_MIN_BYTES, dtype=np.uint8), segments)
        release_transfers(segments)
        release_transfers(segments)
        assert segments == []


class TestSharedMemoryReturnPath:
    def test_encode_result_round_trip(self):
        original = {"big": np.arange(SHM_MIN_BYTES // 8 + 8, dtype=float),
                    "small": np.ones(3), "label": "x"}
        before = _shm_entries()
        encoded = encode_result(original)
        assert not isinstance(encoded["big"], np.ndarray)  # rides a handle
        assert isinstance(encoded["small"], np.ndarray)
        decoded = decode_and_release(pickle.loads(pickle.dumps(encoded)))
        np.testing.assert_array_equal(decoded["big"], original["big"])
        assert decoded["label"] == "x"
        # decode_and_release unlinked every segment the encode created.
        assert _shm_entries() == before

    def test_map_returns_large_arrays_through_shm(self):
        before = _shm_entries()
        results = ProcessExecutor(max_workers=2).map(
            _return_large_array, [1, 2, 3])
        for i, result in enumerate(results):
            assert result["tag"] == i + 1
            np.testing.assert_array_equal(
                result["payload"], np.full(SHM_MIN_BYTES, float(i + 1)))
        assert _shm_entries() == before

    def test_worker_failure_leaks_no_segments(self):
        # Satellite guarantee: a worker that dies mid-fan-out (here: an
        # exception; encode_result's except path plus the parent's
        # abandoned-future drain cover the partial cases) must leave
        # /dev/shm exactly as it found it.
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            ProcessExecutor(max_workers=2).map(
                _worker_boom, [1, 2, 3, 4])
        assert _shm_entries() == before

    def test_mixed_success_and_failure_leaks_no_segments(self):
        # Successful results abandoned because a sibling failed must have
        # their return segments reclaimed by the parent's drain path.
        before = _shm_entries()
        with pytest.raises(RuntimeError, match="injected worker failure"):
            ProcessExecutor(max_workers=2).map(
                _worker_boom_on_even, list(range(6)))
        assert _shm_entries() == before


def _worker_boom_on_even(n):
    if n % 2 == 0:
        return {"payload": np.full(SHM_MIN_BYTES, float(n))}
    raise RuntimeError(f"injected worker failure {n}")


class TestStartMethodEnv:
    def test_env_selects_context(self, monkeypatch):
        monkeypatch.delenv(MP_START_ENV, raising=False)
        assert _mp_context() is None
        monkeypatch.setenv(MP_START_ENV, "spawn")
        assert _mp_context().get_start_method() == "spawn"
        monkeypatch.setenv(MP_START_ENV, "")
        assert _mp_context() is None

    def test_map_runs_under_spawn(self, monkeypatch):
        monkeypatch.setenv(MP_START_ENV, "spawn")
        results = ProcessExecutor(max_workers=2).map(
            _return_large_array, [5, 6])
        assert [result["tag"] for result in results] == [5, 6]


class TestProcessExecutor:
    def test_registered(self):
        assert isinstance(get_executor("process"), ProcessExecutor)
        with pytest.raises(ExecutorError):
            ProcessExecutor(max_workers=0)

    def test_map_preserves_order_and_reports_progress(self):
        executor = ProcessExecutor(max_workers=2)
        seen = []
        results = executor.map(abs, [-3, 1, -2],
                               progress=lambda i, r: seen.append((i, r)))
        assert results == [3, 1, 2]
        assert sorted(seen) == [(0, 3), (1, 1), (2, 2)]

    def test_map_empty(self):
        assert ProcessExecutor().map(abs, []) == []

    def test_unpicklable_function_falls_back_to_serial(self):
        # Closures cannot cross the process boundary; map must still run
        # them — serially, with a warning — instead of failing the fan-out.
        executor = ProcessExecutor(max_workers=1)
        offset = 10
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            results = executor.map(lambda item: item + offset, [1, 2])
        assert results == [11, 12]

    def test_closure_plan_falls_back_to_serial(self, small_signal):
        # Hand-built closure plans run like compiled ones: in order, in
        # the caller.
        from repro.core.executor import ExecutionPlan, StepNode

        node = StepNode(name="double", engine="preprocessing",
                        reads=("data",), writes=("data",),
                        execute=lambda context, fit: {
                            "data": context["data"] * 2})
        context, timings = ProcessExecutor().run_plan(
            ExecutionPlan([node]), {"data": np.ones(4)})
        np.testing.assert_array_equal(context["data"], np.full(4, 2.0))
        assert "double" in timings

    def test_pickle_drops_nothing_needed(self):
        executor = ProcessExecutor(max_workers=3)
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.max_workers == 3
