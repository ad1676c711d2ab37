"""Fleet fault isolation: lifecycle races and lane-scoped failures.

Three failure shapes the scheduling loop must contain: a refit that
finishes after its lane closed, a push that lands while a round marks
the lane idle, and a lane whose event reconciliation raises (in practice
a user ``on_event`` hook). Each must stay confined to its own lane.
"""

import threading

import pytest

from repro.core.fleet import FleetStreamRunner, StreamScheduler
from repro.core.sintel import Sintel
from repro.data.synthetic import WorkloadGenerator

WINDOW = 150
WARMUP = 60
BATCH = 30


@pytest.fixture(scope="module")
def workload():
    """A fitted azure pipeline plus two replay streams."""
    generator = WorkloadGenerator(seed=11, n_channels=1, length=240,
                                  anomalies_per_signal=2,
                                  taxonomy=("collective",))
    sintel = Sintel("azure")
    sintel.fit(generator.signal(0).to_array())
    replays = [generator.signal(20 + index).to_array() for index in range(2)]
    return sintel.pipeline, replays


def _batches(replay):
    return [replay[start:start + BATCH]
            for start in range(0, len(replay), BATCH)]


def _add(fleet, pipeline, **options):
    return fleet.add_stream(pipeline, window_size=WINDOW, warmup=WARMUP,
                            drift_detector=None, **options)


def test_refit_finishing_after_close_leaves_no_group(workload):
    pipeline, replays = workload
    scheduler = StreamScheduler(refit_sync=True)
    lane = _add(scheduler, pipeline)
    for batch in _batches(replays[0])[:3]:
        scheduler.ingest(lane.lane_id, batch)
    scheduler.run_until_idle()
    standby = scheduler.standby.acquire(lane.runner.pipeline)
    snapshot = lane.runner.window.copy()

    scheduler.close_stream(lane.lane_id)
    scheduler._refit("hot", lane, standby, snapshot)

    stats = scheduler.stats()
    assert stats["groups"] == 0
    assert stats["streams"] == 0
    assert lane.runner.retrains == 0
    assert not lane.refit_in_flight
    # The unused standby went back to the cache for the next refit.
    assert scheduler.standby.size == 1


class _RacyIdle(threading.Event):
    """An idle flag whose next ``set()`` first lets a concurrent push run.

    The push gets a short head start and no more: when the push has to
    wait for the round (the fixed behaviour), ``set()`` goes ahead and
    the push lands right after it.
    """

    def __init__(self, push):
        super().__init__()
        self.pusher = threading.Thread(target=push)

    def set(self):
        if self.pusher.ident is None:  # the first set() only
            self.pusher.start()
            self.pusher.join(timeout=0.2)
        super().set()


def test_push_during_idle_marking_is_never_stranded(workload):
    pipeline, replays = workload
    fleet = FleetStreamRunner()
    lane = _add(fleet, pipeline)
    first, second = _batches(replays[0])[:2]
    fleet.ingest(lane.lane_id, first)
    lane.idle = _RacyIdle(lambda: fleet.ingest(lane.lane_id, second))

    fleet.run_round()  # serves `first`; the push races its idle marking
    lane.idle.pusher.join(timeout=10)

    # The lane is never marked idle over the batch that just arrived...
    assert len(lane.pending) == 1
    assert not lane.idle.is_set()
    assert not fleet.wait_idle(lane.lane_id, timeout=0.05)
    # ...and is idle again once a round has served it.
    fleet.run_round()
    assert fleet.wait_idle(lane.lane_id, timeout=1.0)
    assert not lane.pending
    assert lane.runner.samples_seen == 2 * BATCH


def test_raising_event_hook_is_scoped_to_its_lane(workload):
    pipeline, replays = workload

    def explode(event):
        raise RuntimeError("hook failed")

    def replay(fleet, lanes):
        schedule = [_batches(replays[0]) for _ in lanes]
        for round_index in range(len(schedule[0])):
            for lane, batches in zip(lanes, schedule):
                fleet.ingest(lane.lane_id, batches[round_index])
            fleet.run_round()  # must never raise

    fleet = FleetStreamRunner(exact=True)
    bad = _add(fleet, pipeline, on_event=explode)
    good = _add(fleet, pipeline)
    replay(fleet, [bad, good])

    reference_fleet = FleetStreamRunner(exact=True)
    reference = _add(reference_fleet, pipeline)
    replay(reference_fleet, [reference])

    assert bad.error == "hook failed"
    assert good.error is None
    assert fleet.wait_idle(bad.lane_id, timeout=1.0)
    assert ([event.to_tuple() for event in good.runner.events]
            == [event.to_tuple() for event in reference.runner.events])
    assert good.runner.anomalies()
