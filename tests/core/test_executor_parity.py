"""Executor parity and picklability guarantees.

A pipeline job reproduces its anomalies exactly on every fan-out
executor, and its plans run their steps in order on the thread that runs
the job; every executor returns ``map`` results in order and stops a
failed fan-out early. Everything ``map`` jobs and saved models carry
across a process boundary — primitives, pipelines — must survive a
pickle round-trip.
"""

import os
import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.executor import (
    MP_START_ENV,
    ProcessExecutor,
    _mp_context,
    get_executor,
    list_executors,
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

EXECUTORS = ["serial", "process"]

#: Fast, deterministic pipelines exercised by the parity suite.
PIPELINES = [("azure", {}), ("arima", {"window_size": 30})]

#: Rows of a 1 MiB float64 array: a large payload for ``map`` results.
LARGE_ROWS = 1 << 17


# Module-level on purpose: the process executor ships mapped functions by
# reference, so they must be importable from inside pool workers.
def _return_large_array(n):
    return {"payload": np.full(LARGE_ROWS, float(n)), "tag": n}


def _worker_boom(n):
    raise RuntimeError(f"injected worker failure {n}")


def _fit(job):
    """Fit a hub pipeline: one fan-out job returning the fitted model."""
    name, options, data = job
    return Sintel(name, **options).fit(data)


def _fit_detect(job):
    """Fit a hub pipeline and detect on the same data: one fan-out job."""
    name, options, data = job
    return _fit(job).detect(data)


def _fit_step_timings(data):
    """Fit azure; return its step names and the fit's step timings."""
    pipeline = Pipeline(get_pipeline_spec("azure"))
    pipeline.fit(data)
    return [step["name"] for step in pipeline.steps], pipeline.step_timings


def _run_where_plans(steps):
    """Run a probe pipeline's fit and batch plans inside a job.

    Returns each plan's trace of ``(step, pid, thread id)`` and the
    ``(pid, thread id)`` of the job itself.
    """
    pipeline = Pipeline({
        "name": "where",
        "steps": [{"primitive": _WhereProbe.name,
                   "hyperparameters": {"step": step}}
                  for step in steps],
    })
    pipeline.fit(np.zeros((8, 2)))
    fit, _ = pipeline.compiled_plan("fit").run(
        {"data": [np.zeros((8, 2))], "events": [None]})
    batch, _ = pipeline.compiled_plan("batch").run(
        {"data": [np.zeros((8, 2))], "events": [None]})
    traces = [fit["events"][0], batch["events"][0]]
    return traces, (os.getpid(), threading.get_ident())


def _mark_then_fail_first(job):
    """Leave a marker file per job that ran; job 0 fails at once."""
    directory, index = job
    open(os.path.join(directory, f"{index}.ran"), "w").close()
    if index == 0:
        raise RuntimeError("injected first-job failure")
    time.sleep(0.05)
    return index


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
    """Anomalies of a first fit per pipeline: the parity ground truth."""
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
        # A fit+detect job returns the same anomalies on every fan-out.
        data = small_signal.to_array()
        [anomalies] = get_executor(executor).map(
            _fit_detect, [(pipeline, options, data)])
        assert anomalies == reference[pipeline]

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_step_timings_cover_every_step(self, executor, small_signal):
        [(names, timings)] = get_executor(executor).map(
            _fit_step_timings, [small_signal.to_array()])
        assert set(timings) == set(names)
        for timing in timings.values():
            assert timing["elapsed"] >= 0.0

    def test_process_fit_state_absorbed(self, small_signal):
        # A stateful pipeline fitted entirely in a worker process must be
        # detectable afterwards in the parent: the fitted primitives come
        # back with the job's result.
        data = small_signal.to_array()
        [sintel] = ProcessExecutor(max_workers=1).map(
            _fit, [("arima", {"window_size": 30}, data)])
        assert sintel.detect(data) == Sintel(
            "arima", window_size=30).fit(data).detect(data)


class TestPlanRunsInCaller:
    @pytest.mark.parametrize("executor", list_executors())
    def test_steps_run_in_plan_order_in_the_caller(self, executor):
        # Whichever executor fans a job out, the job's plans run node by
        # node, in plan order, on the thread that runs the job.
        steps = ["first", "second", "third"]
        [(traces, caller)] = get_executor(executor).map(
            _run_where_plans, [steps])
        for events in traces:
            assert [where[0] for where in events] == steps
            assert {where[1:] for where in events} == {caller}


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


class TestSharedMemoryReturnPath:
    """Large results and worker errors on ``ProcessExecutor.map``'s way back."""

    def test_map_returns_large_arrays_through_shm(self):
        results = ProcessExecutor(max_workers=2).map(
            _return_large_array, [1, 2, 3])
        for i, result in enumerate(results):
            assert result["tag"] == i + 1
            np.testing.assert_array_equal(
                result["payload"], np.full(LARGE_ROWS, float(i + 1)))

    def test_worker_failure_leaks_no_segments(self):
        # A worker's exception surfaces from ``map`` unchanged.
        with pytest.raises(RuntimeError, match="injected worker failure"):
            ProcessExecutor(max_workers=2).map(
                _worker_boom, [1, 2, 3, 4])

    def test_mixed_success_and_failure_leaks_no_segments(self):
        # A failure surfaces even when sibling jobs returned large results.
        with pytest.raises(RuntimeError, match="injected worker failure"):
            ProcessExecutor(max_workers=2).map(
                _worker_boom_on_even, list(range(6)))


def _worker_boom_on_even(n):
    if n % 2 == 0:
        return {"payload": np.full(LARGE_ROWS, float(n))}
    raise RuntimeError(f"injected worker failure {n}")


class TestMapStopsOnFailure:
    @pytest.mark.parametrize("executor", ["process"])
    def test_first_failure_cancels_jobs_not_started(self, executor,
                                                    tmp_path):
        jobs = [(str(tmp_path), index) for index in range(20)]
        with pytest.raises(RuntimeError, match="injected first-job failure"):
            get_executor(executor, max_workers=1).map(
                _mark_then_fail_first, jobs)
        assert len(os.listdir(tmp_path)) < 20


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

    def test_closure_plan_falls_back_to_serial(self):
        # A hand-built closure plan cannot cross the process boundary, so
        # a job that runs it maps serially, in the caller.
        from repro.core.plan import ExecutionPlan, StepNode

        node = StepNode(name="double", engine="preprocessing",
                        execute=lambda context: {
                            "data": context["data"] * 2})
        plan = ExecutionPlan([node])
        with pytest.warns(RuntimeWarning, match="unpicklable"):
            [(context, timings)] = ProcessExecutor().map(
                plan.run, [{"data": np.ones(4)}])
        np.testing.assert_array_equal(context["data"], np.full(4, 2.0))
        assert "double" in timings

    def test_pickle_drops_nothing_needed(self):
        executor = ProcessExecutor(max_workers=3)
        clone = pickle.loads(pickle.dumps(executor))
        assert clone.max_workers == 3
