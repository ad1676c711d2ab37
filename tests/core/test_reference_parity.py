"""The engine's planes against the reference interpreter, bit for bit.

Every hub pipeline (small windows, one epoch) is fitted twice: by the
engine and by ``tests/reference.py``, which calls each primitive's
``fit``, ``produce`` or ``update`` in order on a plain dict. Six planes
must reproduce the reference's final context — every variable, not only
the events: the fit plan itself (a batch of one that fits, then produces
through the exact kernels); ``detect``; exact ``detect_batch``; exact fleet
``stream_batch`` windows, with the reference's lane copies advanced
through ``update``; the same windows replayed through a standalone
``StreamRunner`` (a one-lane stream batch over the runner's own copies of
the incremental primitives); and a fit+detect job fanned out through
``ProcessExecutor.map``. Each property must also fail on a negative
control that moves one value of the engine's context by one ulp.
"""

import copy

import numpy as np
import pytest

import reference
from repro.core.executor import ProcessExecutor
from repro.core.fleet import FleetStreamRunner
from repro.core.pipeline import Pipeline
from repro.core.plan import ExecutionPlan
from repro.core.stream import StreamRunner
from repro.data.synthetic import WorkloadGenerator
from repro.pipelines import get_pipeline_spec, list_pipelines

#: Spec-factory options that keep every hub pipeline small and fast.
OPTIONS = {"azure": {}, "arima": {"window_size": 30}}
NN_OPTIONS = {"window_size": 30, "epochs": 1}

#: Fleet lanes: the window slides after 120 rows, detection starts at 60.
WINDOW = 120
WARMUP = 60
BATCH = 40


def _spec(name):
    return get_pipeline_spec(name, **OPTIONS.get(name, NN_OPTIONS))


def _signals(name, count):
    """``count`` seeded signals; multivariate pipelines get 3 channels."""
    generator = WorkloadGenerator(
        seed=5, n_channels=3 if name.startswith("mv_") else 1, length=300,
        anomalies_per_signal=2)
    return [generator.signal(index) for index in range(count)]


def _train(name):
    """Training rows plus the labelled events supervised pipelines fit on."""
    signal = _signals(name, 1)[0]
    return signal.to_array(), [tuple(event) for event in signal.anomalies]


def _fit_detect_job(job):
    """One fit+detect run in a pool worker; returns the detect context."""
    name, data = job
    train, events = _train(name)
    pipeline = Pipeline(_spec(name))
    pipeline.fit(train, events=events)
    return pipeline.detect(data, visualization=True)[1]


def _record_plan_runs(monkeypatch):
    """Collect the final context of every ``ExecutionPlan.run`` call."""
    contexts = []
    run = ExecutionPlan.run

    def recording(plan, context, *args, **kwargs):
        context, timings = run(plan, context, *args, **kwargs)
        contexts.append(context)
        return context, timings

    monkeypatch.setattr(ExecutionPlan, "run", recording)
    return contexts


def _reference_windows(spec, primitives, signals):
    """The reference's context of every lane's window, batch by batch.

    Lane *j* replays ``signals[j]`` in ``BATCH``-row micro-batches; from
    ``WARMUP`` rows on, each batch yields the context of the trailing
    ``WINDOW`` rows, with the lane's private copies of the incremental
    primitives advanced through ``update``.
    """
    lane_primitives = [[copy.deepcopy(primitive) if primitive.supports_stream
                        else primitive for primitive in primitives]
                       for _ in signals]
    return [[reference.run(spec, copies,
                           {"data": data[:end][-WINDOW:], "events": None},
                           update=True)
             for copies, data in zip(lane_primitives, signals)]
            for end in range(BATCH, len(signals[0]) + 1, BATCH)
            if end >= WARMUP]


def _lane(context, index):
    """One lane's (or signal's) share of a batched context."""
    return {name: values[index] for name, values in context.items()}


def _assert_matches(actual, expected):
    """Bitwise equal, and no longer equal once one value moves one ulp."""
    reference.assert_same(actual, expected)
    with pytest.raises(AssertionError):
        reference.assert_same(reference.nudge(actual), expected)


@pytest.fixture(scope="module", params=list_pipelines())
def fits(request):
    """One hub pipeline fitted by the engine and by the reference.

    Returns the name, the engine's pipeline, the reference's primitives,
    the context of every engine plan run during the fit, and the final
    context of the reference's fit.
    """
    name = request.param
    spec = _spec(name)
    train, events = _train(name)
    pipeline = Pipeline(spec)
    with pytest.MonkeyPatch.context() as patch:
        runs = _record_plan_runs(patch)
        pipeline.fit(train, events=events)
    primitives = reference.build(spec)
    context = reference.run(spec, primitives, {
        "data": np.asarray(train, dtype=float), "events": events}, fit=True)
    return name, pipeline, primitives, runs, context


@pytest.fixture(scope="module")
def fitted(fits):
    """One hub pipeline fitted by the engine and by the reference."""
    name, pipeline, primitives, _, _ = fits
    signals = [signal.to_array() for signal in _signals(name, 4)[1:]]
    return _spec(name), pipeline, primitives, signals


def test_fit(fits):
    _, _, _, runs, expected = fits
    assert len(runs) == 1
    _assert_matches(_lane(runs[0], 0), expected)


def test_detect(fitted):
    spec, pipeline, primitives, signals = fitted
    _, context = pipeline.detect(signals[0], visualization=True)
    _assert_matches(context, reference.detect(spec, primitives, signals[0]))


def test_exact_detect_batch(fitted, monkeypatch):
    spec, pipeline, primitives, signals = fitted
    runs = _record_plan_runs(monkeypatch)
    pipeline.detect_batch(signals, exact=True)
    assert len(runs) == 1
    for index, data in enumerate(signals):
        _assert_matches(_lane(runs[0], index),
                        reference.detect(spec, primitives, data))


def test_exact_fleet_stream_batch(fitted, monkeypatch):
    spec, pipeline, primitives, signals = fitted
    fleet = FleetStreamRunner(exact=True)
    lanes = [fleet.add_stream(pipeline, window_size=WINDOW, warmup=WARMUP,
                              drift_detector=None) for _ in signals]
    runs = _record_plan_runs(monkeypatch)
    for end in range(BATCH, len(signals[0]) + 1, BATCH):
        for lane, data in zip(lanes, signals):
            fleet.ingest(lane.lane_id, data[end - BATCH:end])
        fleet.run_round()
    expected = _reference_windows(spec, primitives, signals)
    assert all(lane.error is None for lane in lanes)
    assert len(runs) == len(expected)
    for context, wanted in zip(runs, expected):
        for index, lane_expected in enumerate(wanted):
            _assert_matches(_lane(context, index), lane_expected)


def test_stream_runner_partial_detect(fitted, monkeypatch):
    spec, pipeline, primitives, signals = fitted
    # The runner advances its own copies of the incremental primitives,
    # so it serves the shared fixture and leaves it untouched.
    runner = StreamRunner(pipeline, window_size=WINDOW, warmup=WARMUP,
                          drift_detector=None)
    data = signals[0]
    runs = _record_plan_runs(monkeypatch)
    for end in range(BATCH, len(data) + 1, BATCH):
        runner.send(data[end - BATCH:end])
    expected = _reference_windows(spec, primitives, [data])
    assert len(runs) == len(expected)
    for context, [wanted] in zip(runs, expected):
        _assert_matches(_lane(context, 0), wanted)


def test_process_map_fit_detect():
    names = list_pipelines()
    data = [_signals(name, 2)[1].to_array() for name in names]
    contexts = ProcessExecutor(max_workers=2).map(
        _fit_detect_job, list(zip(names, data)))
    for name, rows, context in zip(names, data, contexts):
        train, events = _train(name)
        primitives = reference.fit(_spec(name), train, events=events)
        _assert_matches(context,
                        reference.detect(_spec(name), primitives, rows))
