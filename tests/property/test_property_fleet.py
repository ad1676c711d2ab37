"""An exact fleet against independent runners, over lanes and schedules.

Hypothesis draws 1 to 5 lanes, each with its own micro-batch size, the
round it joins the fleet at, the rounds it skips and a scale for its
values, which may carry them far outside the training range. An exact
``FleetStreamRunner`` and one independent ``StreamRunner`` per lane — all
serving the fleet's own fitted pipeline — replay the same schedule. Every
lane's share of every fleet plan run must equal its runner's run bit for
bit, every variable of the context, and the lanes' events must equal the
runners' events; moving one value of one run by one ulp must break the
equality (the negative control). Azure and a small dense autoencoder are
each fitted once per module, and every example serves a fresh copy of the
fitted pipeline. Refits are not drawn.
"""

import copy

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from repro.core.fleet import FleetStreamRunner
from repro.core.plan import ExecutionPlan
from repro.core.sintel import Sintel
from repro.core.stream import StreamRunner
from repro.data.synthetic import WorkloadGenerator

PIPELINES = {"azure": {}, "dense_autoencoder": {"window_size": 20,
                                                "epochs": 2}}

ROUNDS = 8
MAX_LANES = 5
MAX_BATCH = 50
#: The window slides after 120 rows; detection starts at 30.
WINDOW = 120
WARMUP = 30


@st.composite
def schedules(draw):
    """Per lane: batch size, join round, skipped rounds, value scale."""
    return [{"batch": draw(st.integers(10, MAX_BATCH)),
             "join": draw(st.integers(0, 3)),
             "skip": draw(st.sets(st.integers(0, ROUNDS - 1), max_size=3)),
             "scale": draw(st.floats(0.5, 10.0))}
            for _ in range(draw(st.integers(1, MAX_LANES)))]


@pytest.fixture(scope="module", params=sorted(PIPELINES))
def fitted(request):
    """A fitted pipeline and one replay signal per possible lane."""
    generator = WorkloadGenerator(seed=5, n_channels=1,
                                  length=ROUNDS * MAX_BATCH,
                                  anomalies_per_signal=2)
    sintel = Sintel(request.param, **PIPELINES[request.param])
    sintel.fit(generator.signal(0).to_array())
    replays = [generator.signal(1 + lane).to_array()
               for lane in range(MAX_LANES)]
    return sintel.pipeline, replays


def _replay(pipeline, replays, schedule, contexts):
    """Serve ``schedule`` on a fleet and on independent runners.

    Returns ``(lanes, runners, fleet_runs, runner_runs)``: per lane, the
    fleet lane, its runner, its share of every fleet plan run and the
    final context of every plan run of its runner.
    """
    fleet = FleetStreamRunner(exact=True)
    lanes, runners, order = {}, {}, []
    fleet_runs = {index: [] for index in range(len(schedule))}
    runner_runs = {index: [] for index in range(len(schedule))}
    for round_index in range(ROUNDS):
        pushed = []
        for index, lane in enumerate(schedule):
            if round_index == lane["join"]:
                lanes[index] = fleet.add_stream(
                    pipeline, window_size=WINDOW, warmup=WARMUP,
                    drift_detector=None)
                runners[index] = StreamRunner(
                    pipeline, window_size=WINDOW, warmup=WARMUP,
                    drift_detector=None)
                order.append(index)
            if index not in lanes or round_index in lane["skip"]:
                continue
            start = (round_index - lane["join"]) * lane["batch"]
            batch = replays[index][start:start + lane["batch"]].copy()
            batch[:, 1:] *= lane["scale"]
            fleet.ingest(lanes[index].lane_id, batch)
            before = len(contexts)
            runners[index].send(batch)
            runner_runs[index].extend(contexts[before:])
            pushed.append(index)
        before = len(contexts)
        fleet.run_round()
        served = [index for index in order
                  if index in pushed and runners[index].ready]
        assert len(contexts) - before == (1 if served else 0)
        for context in contexts[before:]:
            for position, index in enumerate(served):
                fleet_runs[index].append(
                    {name: [values[position]]
                     for name, values in context.items()})
    return lanes, runners, fleet_runs, runner_runs


@given(schedule=schedules())
@settings(max_examples=100, deadline=None)
def test_exact_fleet_matches_independent_runners(fitted, schedule):
    pipeline, replays = fitted
    pipeline = copy.deepcopy(pipeline)
    contexts = []
    run = ExecutionPlan.run

    def recording(plan, context, *args, **kwargs):
        context, timings = run(plan, context, *args, **kwargs)
        contexts.append(context)
        return context, timings

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExecutionPlan, "run", recording)
        lanes, runners, fleet_runs, runner_runs = _replay(
            pipeline, replays, schedule, contexts)
    assume(any(runner_runs.values()))

    for index, runner in runners.items():
        assert lanes[index].error is None
        assert len(fleet_runs[index]) == len(runner_runs[index])
        for actual, expected in zip(fleet_runs[index], runner_runs[index]):
            reference.assert_same(actual, expected)
        assert [event.to_dict() for event in lanes[index].runner.events] == \
            [event.to_dict() for event in runner.events]

    index = next(index for index, runs in runner_runs.items() if runs)
    with pytest.raises(AssertionError):
        reference.assert_same(reference.nudge(fleet_runs[index][-1]),
                              runner_runs[index][-1])
