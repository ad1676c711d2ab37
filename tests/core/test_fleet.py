"""Fleet streaming plane: cross-stream batching + tiered refit scheduling.

The load-bearing guarantee is bitwise parity: on the exact plane a fleet
serving N streams through coalesced stream-batch plans must emit events
identical — tuple for tuple — to N independent
:class:`~repro.core.stream.StreamRunner` replays of the same per-stream
workloads, whichever executor fans the fleet job out. On top of that sit
the scheduling semantics: mixed-template
grouping, straggler draining, coalescing bookkeeping, the tier policy's
starvation-free budget floors, and refits that never touch a model other
lanes still serve, all pinned with a synthetic clock.
"""

import copy
import pickle
import time

import numpy as np
import pytest

from repro.core.executor import get_executor
from repro.core.fleet import (
    FleetStreamRunner,
    StandbyCache,
    StreamScheduler,
    TierPolicy,
)
from repro.core.sintel import Sintel
from repro.core.stream import StreamRunner
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import PipelineError, StreamError

EXECUTORS = ["serial", "threaded", "process"]

WINDOW = 150
WARMUP = 60
BATCH = 30


@pytest.fixture(scope="module")
def workload():
    """Deterministic train array + four distinct replay streams."""
    generator = WorkloadGenerator(seed=11, n_channels=1, length=240,
                                  anomalies_per_signal=2,
                                  taxonomy=("collective",))
    train = generator.signal(0).to_array()
    replays = [generator.signal(20 + index).to_array() for index in range(4)]
    return train, replays


def _batches(replay):
    return [replay[start:start + BATCH]
            for start in range(0, len(replay), BATCH)]


def _replay_fleet(fleet, lanes, replays):
    """One micro-batch per lane per round, until every queue drains."""
    schedule = [_batches(replay) for replay in replays]
    for round_index in range(max(len(s) for s in schedule)):
        for lane, batches in zip(lanes, schedule):
            if round_index < len(batches):
                fleet.ingest(lane.lane_id, batches[round_index])
        fleet.run_round()
    fleet.run_until_idle()


def _replay_independent(pipeline, replays):
    """The reference: one private runner per stream over copied state."""
    runners = [StreamRunner(copy.deepcopy(pipeline), window_size=WINDOW,
                            warmup=WARMUP, drift_detector=None,
                            retrain=False)
               for _ in replays]
    for runner, replay in zip(runners, replays):
        for batch in _batches(replay):
            runner.send(batch)
    return runners


def _serve_exact_fleet(job):
    """Serve every replay on one exact-plane fleet: one fan-out job.

    Returns each lane's anomalies and event tuples.
    """
    pipeline, replays = job
    fleet = FleetStreamRunner(exact=True)
    lanes = [fleet.add_stream(pipeline, window_size=WINDOW, warmup=WARMUP,
                              drift_detector=None)
             for _ in replays]
    _replay_fleet(fleet, lanes, replays)
    return [(lane.runner.anomalies(),
             [event.to_tuple() for event in lane.runner.events])
            for lane in lanes]


class TestFleetParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bitwise_parity_vs_independent_runners(self, executor, workload):
        """Exact-plane fleet events == independent events, per executor.

        The executor fans the fleet job out; the CI spawn leg re-runs the
        process case under ``REPRO_MP_START=spawn``.
        """
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)

        [lanes] = get_executor(executor).map(
            _serve_exact_fleet, [(sintel.pipeline, replays)])

        reference = _replay_independent(sintel.pipeline, replays)
        assert len(lanes) == len(reference)
        for (anomalies, events), runner in zip(lanes, reference):
            assert anomalies == runner.anomalies()
            assert events == [event.to_tuple() for event in runner.events]

    def test_fused_plane_parity_within_tolerance(self, workload):
        from repro.benchmark.batch import anomalies_within_tolerance

        train, replays = workload
        sintel = Sintel("dense_autoencoder", window_size=40, epochs=4)
        sintel.fit(train)

        fleet = FleetStreamRunner(exact=False)
        lanes = [fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                                  warmup=WARMUP, drift_detector=None)
                 for _ in replays]
        _replay_fleet(fleet, lanes, replays)

        reference = _replay_independent(sintel.pipeline, replays)
        assert anomalies_within_tolerance(
            [lane.runner.anomalies() for lane in lanes],
            [runner.anomalies() for runner in reference])

    def test_coalesce_disabled_is_still_bitwise_identical(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)

        batched = FleetStreamRunner(exact=True)
        singular = FleetStreamRunner(exact=True)
        batched_lanes = [batched.add_stream(sintel.pipeline,
                                            window_size=WINDOW,
                                            warmup=WARMUP,
                                            drift_detector=None)
                         for _ in replays]
        # Each singular lane serves its own copy: a group of one per lane.
        singular_lanes = [singular.add_stream(copy.deepcopy(sintel.pipeline),
                                              window_size=WINDOW,
                                              warmup=WARMUP,
                                              drift_detector=None)
                          for _ in replays]
        _replay_fleet(batched, batched_lanes, replays)
        _replay_fleet(singular, singular_lanes, replays)

        for one, other in zip(batched_lanes, singular_lanes):
            assert one.runner.anomalies() == other.runner.anomalies()
        assert batched.stats()["coalesce_ratio"] > 1.0
        assert singular.stats()["coalesce_ratio"] == 1.0


class TestFleetGrouping:
    def test_shared_pipeline_object_shares_a_group(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        fleet = FleetStreamRunner()
        lanes = [fleet.add_stream(sintel.pipeline, warmup=WARMUP,
                                  drift_detector=None)
                 for _ in range(3)]
        assert len({id(lane.group) for lane in lanes}) == 1
        assert fleet.stats()["groups"] == 1

    def test_mixed_templates_group_separately_and_batch_within(
            self, workload):
        train, replays = workload
        azure = Sintel("azure")
        azure.fit(train)
        arima = Sintel("arima", window_size=30)
        arima.fit(train)

        fleet = FleetStreamRunner(exact=True)
        azure_lanes = [fleet.add_stream(azure.pipeline, window_size=WINDOW,
                                        warmup=WARMUP, drift_detector=None)
                       for _ in range(2)]
        arima_lanes = [fleet.add_stream(arima.pipeline, window_size=WINDOW,
                                        warmup=WARMUP, drift_detector=None)
                       for _ in range(2)]
        assert fleet.stats()["groups"] == 2

        lanes = azure_lanes + arima_lanes
        _replay_fleet(fleet, lanes, replays)

        # Each template's cohort batches at its own occupancy; each
        # stream's events match its own template's independent replay.
        assert fleet.stats()["occupancy"].get("2")
        for cohort, sintel, cohort_replays in (
                (azure_lanes, azure, replays[:2]),
                (arima_lanes, arima, replays[2:])):
            reference = _replay_independent(sintel.pipeline, cohort_replays)
            for lane, runner in zip(cohort, reference):
                assert lane.runner.anomalies() == runner.anomalies()

    def test_separately_fitted_pipelines_do_not_share_groups(self, workload):
        train, _ = workload
        first = Sintel("azure")
        first.fit(train)
        second = Sintel("azure")
        second.fit(train)
        fleet = FleetStreamRunner()
        fleet.add_stream(first.pipeline, drift_detector=None)
        fleet.add_stream(second.pipeline, drift_detector=None)
        assert fleet.stats()["groups"] == 2


class TestFleetRounds:
    def test_stragglers_drain_over_consecutive_rounds(self, workload):
        """A deep queue never batches with itself within one round."""
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        fleet = FleetStreamRunner(exact=True)
        fast = fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                                warmup=WARMUP, drift_detector=None)
        slow = fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                                warmup=WARMUP, drift_detector=None)

        batches = _batches(replays[0])
        fleet.ingest(fast.lane_id, batches[0])
        for batch in _batches(replays[1]):  # straggler: whole backlog
            fleet.ingest(slow.lane_id, batch)

        fleet.run_round()
        assert not fast.pending
        assert len(slow.pending) == len(_batches(replays[1])) - 1

        rounds_before = fleet.stats()["rounds"]
        fleet.run_until_idle()
        assert not slow.pending
        assert fleet.stats()["rounds"] - rounds_before \
            == len(_batches(replays[1])) - 1

        reference = _replay_independent(sintel.pipeline, [replays[1]])[0]
        assert slow.runner.anomalies() == reference.anomalies()

    def test_malformed_batch_scopes_the_error_to_its_lane(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        fleet = FleetStreamRunner(exact=True)
        bad = fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                               warmup=WARMUP, drift_detector=None)
        good = fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                                warmup=WARMUP, drift_detector=None)
        fleet.ingest(bad.lane_id, np.ones((4, 7)))  # wrong width
        for batch in _batches(replays[0]):
            fleet.ingest(good.lane_id, batch)
        fleet.run_until_idle()

        assert bad.error
        assert good.error is None
        reference = _replay_independent(sintel.pipeline, [replays[0]])[0]
        assert good.runner.anomalies() == reference.anomalies()
        assert fleet.stats()["errors"] == 1

    def test_non_finite_timestamps_error_only_their_lane(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        fleet = FleetStreamRunner(exact=True)
        lanes = [fleet.add_stream(sintel.pipeline, window_size=WINDOW,
                                  warmup=WARMUP, drift_detector=None)
                 for _ in range(3)]
        bad = replays[2].copy()
        bad[3 * BATCH:4 * BATCH, 0] = np.nan  # past warmup: lanes detect
        _replay_fleet(fleet, lanes, replays[:2] + [bad])

        assert [lane.error is None for lane in lanes] == [True, True, False]
        assert "finite" in lanes[2].error
        assert lanes[2].runner.state()["window"] == 3 * BATCH
        reference = _replay_independent(sintel.pipeline, replays[:2])
        for lane, runner in zip(lanes, reference):
            assert lane.runner.anomalies() == runner.anomalies()

    def test_capacity_and_duplicate_ids_are_rejected(self, workload):
        train, _ = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        fleet = FleetStreamRunner(max_streams=2)
        fleet.add_stream(sintel.pipeline, stream_id="only",
                         drift_detector=None)
        with pytest.raises(StreamError, match="already registered"):
            fleet.add_stream(sintel.pipeline, stream_id="only",
                             drift_detector=None)
        fleet.add_stream(sintel.pipeline, drift_detector=None)
        with pytest.raises(StreamError, match="capacity"):
            fleet.add_stream(sintel.pipeline, drift_detector=None)
        fleet.close_stream("only")
        fleet.add_stream(sintel.pipeline, stream_id="only",
                         drift_detector=None)

    def test_precision_requires_fused_plane(self):
        with pytest.raises(PipelineError, match="exact=False"):
            FleetStreamRunner(exact=True, precision="float32")
        with pytest.raises(PipelineError, match="Unknown precision"):
            FleetStreamRunner(precision="float16")


class TestTierPolicy:
    def _lane(self, drift=False, age=0.0, sla=None):
        class _Runner:
            drift_pending = drift
        lane = type("Lane", (), {})()
        lane.runner = _Runner()
        lane.last_refit = -age
        lane.sla_deadline = sla
        return lane

    def test_tiering_by_drift_and_staleness(self):
        policy = TierPolicy(sla_deadline=100.0, warm_fraction=0.5)
        assert policy.tier(self._lane(drift=True), now=0.0) == "hot"
        assert policy.tier(self._lane(age=150.0), now=0.0) == "hot"
        assert policy.tier(self._lane(age=60.0), now=0.0) == "warm"
        assert policy.tier(self._lane(age=10.0), now=0.0) == "cold"
        # Per-lane SLA overrides the policy default.
        assert policy.tier(self._lane(age=60.0, sla=1000.0), now=0.0) \
            == "cold"

    def test_backfill_due_only_past_interval(self):
        policy = TierPolicy(sla_deadline=float("inf"),
                            backfill_interval=50.0)
        assert not policy.refit_due(self._lane(age=10.0), now=0.0)
        assert policy.refit_due(self._lane(age=60.0), now=0.0)

    def test_floors_prevent_hot_storm_starving_cold(self):
        policy = TierPolicy(budget_floors={"hot": 1, "warm": 1, "cold": 1})
        hot = [self._lane(drift=True) for _ in range(10)]
        cold = [self._lane() for _ in range(3)]
        selected = policy.allocate({"hot": hot, "cold": cold}, slots=3)
        tiers = [tier for tier, _ in selected]
        # Even with 10 hot lanes queued, the cold floor is honoured.
        assert tiers.count("cold") >= 1
        assert tiers.count("hot") >= 1
        assert len(selected) == 3

    def test_leftover_slots_drain_by_urgency(self):
        policy = TierPolicy(budget_floors={"hot": 0, "warm": 0, "cold": 0})
        hot = [self._lane(drift=True) for _ in range(2)]
        cold = [self._lane() for _ in range(2)]
        selected = policy.allocate({"hot": hot, "cold": cold}, slots=3)
        assert [tier for tier, _ in selected] == ["hot", "hot", "cold"]

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            TierPolicy(warm_fraction=0.0)
        with pytest.raises(ValueError):
            TierPolicy(budget_floors={"volcanic": 1})


class TestStandbyCache:
    def test_release_then_acquire_is_warm(self, workload):
        train, _ = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        cache = StandbyCache(capacity=2)
        first = cache.acquire(sintel.pipeline)
        assert cache.stats()["misses"] == 1
        assert cache.release(sintel.pipeline.clone())
        second = cache.acquire(sintel.pipeline)
        assert cache.stats()["hits"] == 1
        assert first is not second

    def test_capacity_bound_evicts(self, workload):
        train, _ = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        cache = StandbyCache(capacity=1)
        assert cache.release(sintel.pipeline.clone())
        assert not cache.release(sintel.pipeline.clone())
        assert cache.stats() == {"size": 1, "capacity": 1, "hits": 0,
                                 "misses": 0, "evictions": 1}


class TestStreamScheduler:
    """Tier scheduling against a synthetic clock, refits inline."""

    def _scheduler(self, **policy_options):
        clock = {"now": 0.0}
        scheduler = StreamScheduler(
            policy=TierPolicy(**policy_options), refit_budget=1,
            refit_sync=True, clock=lambda: clock["now"])
        return scheduler, clock

    def test_sla_blown_lane_refits_and_regroups(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        scheduler, clock = self._scheduler(sla_deadline=100.0)
        lanes = [scheduler.add_stream(sintel.pipeline, window_size=WINDOW,
                                      warmup=WARMUP, drift_detector=None)
                 for _ in range(2)]
        for lane, replay in zip(lanes, replays):
            for batch in _batches(replay)[:3]:  # past warmup
                scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()
        assert scheduler.stats()["groups"] == 1

        clock["now"] = 150.0  # both lanes blow the SLA; budget is 1/round
        scheduler.run_round()
        stats = scheduler.stats()
        assert stats["refits_by_tier"]["hot"] == 1
        # The refitted lane left the shared group for its own pipeline.
        assert stats["groups"] == 2
        refitted = [lane for lane in lanes
                    if lane.runner.state()["retrains"] == 1]
        assert len(refitted) == 1
        assert refitted[0].last_refit == 150.0

        clock["now"] = 151.0
        scheduler.run_round()
        assert scheduler.stats()["refits_by_tier"]["hot"] == 2
        assert all(lane.runner.state()["retrains"] == 1 for lane in lanes)

    def test_hot_storm_cannot_starve_cold_backfill(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        clock = {"now": 0.0}
        scheduler = StreamScheduler(
            policy=TierPolicy(sla_deadline=10.0, backfill_interval=50.0,
                              budget_floors={"hot": 1, "warm": 0,
                                             "cold": 1}),
            refit_budget=2, refit_sync=True, clock=lambda: clock["now"])
        hot_lanes = [scheduler.add_stream(sintel.pipeline,
                                          window_size=WINDOW, warmup=WARMUP,
                                          drift_detector=None)
                     for _ in range(3)]
        cold_lane = scheduler.add_stream(
            sintel.pipeline, window_size=WINDOW, warmup=WARMUP,
            drift_detector=None, sla_deadline=float("inf"))
        for lane, replay in zip(hot_lanes + [cold_lane], replays):
            for batch in _batches(replay)[:3]:
                scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()

        # Sustained storm: hot lanes re-blow their SLA every round while
        # the cold lane only comes due through the backfill interval.
        clock["now"] = 60.0
        scheduler.run_round()
        stats = scheduler.stats()
        assert stats["refits_by_tier"]["hot"] == 1
        assert stats["refits_by_tier"]["cold"] == 1  # floor honoured
        assert cold_lane.runner.state()["retrains"] == 1

    def test_drift_marks_lane_hot_and_clears_after_refit(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        scheduler, clock = self._scheduler(sla_deadline=float("inf"))
        lane = scheduler.add_stream(sintel.pipeline, window_size=WINDOW,
                                    warmup=WARMUP, drift_detector=None)
        for batch in _batches(replays[0])[:3]:
            scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()
        assert lane.tier == "cold"

        lane.runner._drift_pending = True
        clock["now"] = 1.0
        scheduler.run_round()
        assert lane.tier == "hot"
        assert not lane.runner.drift_pending
        assert lane.runner.state()["retrains"] == 1
        assert scheduler.tiers() == {"hot": 1, "warm": 0, "cold": 0}

        clock["now"] = 2.0
        scheduler.run_round()
        assert lane.tier == "cold"

    def test_refits_reuse_the_standby_cache(self, workload):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        scheduler, clock = self._scheduler(sla_deadline=10.0)
        lane = scheduler.add_stream(sintel.pipeline, window_size=WINDOW,
                                    warmup=WARMUP, drift_detector=None)
        for batch in _batches(replays[0])[:3]:
            scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()

        for round_index in range(4):
            clock["now"] += 20.0
            scheduler.run_round()
        standby = scheduler.stats()["standby"]
        # First refit cold-clones; every later one lands on the pipeline
        # displaced by the previous swap.
        assert standby["misses"] == 1
        assert standby["hits"] == 3
        assert lane.runner.state()["retrains"] == 4

    def test_refit_failure_surfaces_without_breaking_serving(
            self, workload, monkeypatch):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        scheduler, clock = self._scheduler(sla_deadline=10.0)
        lane = scheduler.add_stream(sintel.pipeline, window_size=WINDOW,
                                    warmup=WARMUP, drift_detector=None)
        batches = _batches(replays[0])
        for batch in batches[:3]:
            scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()
        serving = lane.runner.pipeline

        monkeypatch.setattr(scheduler.standby, "acquire",
                            lambda pipeline: _ExplodingPipeline())
        clock["now"] = 20.0
        scheduler.run_round()
        assert scheduler.stats()["refit_errors"] == 1
        assert lane.runner.retrain_error
        assert lane.runner.pipeline is serving
        assert not lane.refit_in_flight

        # The lane keeps serving detections afterwards.
        monkeypatch.undo()
        scheduler.ingest(lane.lane_id, batches[3])
        scheduler.fleet.run_round()
        assert lane.error is None

    @pytest.mark.parametrize("refit_sync", [True, False])
    @pytest.mark.parametrize("stage,call", [
        ("fleet", "adopt"),      # the standby fitted, then the swap raises
        ("standby", "acquire"),  # no standby to fit at all
    ])
    def test_failed_refit_keeps_the_lane_refittable(
            self, workload, monkeypatch, refit_sync, stage, call):
        train, replays = workload
        sintel = Sintel("azure")
        sintel.fit(train)
        clock = {"now": 0.0}
        scheduler = StreamScheduler(
            policy=TierPolicy(sla_deadline=10.0), refit_budget=1,
            refit_sync=refit_sync, clock=lambda: clock["now"])
        lane = scheduler.add_stream(sintel.pipeline, window_size=WINDOW,
                                    warmup=WARMUP, drift_detector=None)
        for batch in _batches(replays[0])[:3]:
            scheduler.ingest(lane.lane_id, batch)
        scheduler.run_until_idle()
        serving = lane.runner.pipeline

        def fail(*args):
            raise RuntimeError(f"injected {call} failure")

        monkeypatch.setattr(getattr(scheduler, stage), call, fail)
        clock["now"] = 20.0
        scheduler.run_round()
        _await_refits(scheduler)
        assert not lane.refit_in_flight
        assert scheduler.stats()["refit_errors"] == 1
        assert f"injected {call} failure" in lane.runner.retrain_error
        assert lane.runner.pipeline is serving

        # Once the call works again the lane refits like any other.
        monkeypatch.undo()
        clock["now"] = 40.0
        scheduler.run_round()
        _await_refits(scheduler)
        assert not lane.refit_in_flight
        assert lane.runner.retrains == 1
        assert lane.runner.pipeline is not serving
        scheduler.close()


class TestSharedBaseRefit:
    """A refit never mutates a fitted pipeline that other lanes serve."""

    @staticmethod
    def _state(pipeline, probe):
        """Pickled primitives after detecting ``probe``.

        The detection leaves every NN layer's forward cache on the same
        input, so two pipelines pickle alike exactly when their fitted
        state is alike.
        """
        pipeline.detect(probe)
        return pickle.dumps([cell[1] for cell in pipeline._primitives])

    @pytest.mark.parametrize("refit_sync", [True, False])
    def test_lanes_that_never_refit_keep_their_model(self, workload,
                                                     refit_sync):
        train, replays = workload
        sintel = Sintel("dense_autoencoder", window_size=40, epochs=2)
        sintel.fit(train)
        base = sintel.pipeline
        pristine = copy.deepcopy(base)
        clock = {"now": 0.0}
        scheduler = StreamScheduler(
            policy=TierPolicy(sla_deadline=10.0), refit_budget=1,
            refit_sync=refit_sync, clock=lambda: clock["now"])
        # Three lanes share one fitted pipeline; only lane 0 may refit.
        lanes = [scheduler.add_stream(base, window_size=WINDOW,
                                      warmup=WARMUP, drift_detector=None,
                                      retrain=index == 0)
                 for index in range(3)]
        schedule = [_batches(replay) for replay in replays[:3]]
        for round_index in range(len(schedule[0])):
            for lane, batches in zip(lanes, schedule):
                scheduler.ingest(lane.lane_id, batches[round_index])
            clock["now"] += 20.0  # lane 0 blows its SLA every round
            scheduler.run_round()
            _await_refits(scheduler)

        assert lanes[0].runner.retrains >= 2
        assert scheduler.stats()["refit_errors"] == 0
        reference = _replay_independent(pristine, replays[1:3])
        for lane, runner in zip(lanes[1:], reference):
            assert lane.runner.retrains == 0
            assert lane.runner.pipeline is base
            assert ([event.to_tuple() for event in lane.runner.events]
                    == [event.to_tuple() for event in runner.events])
        assert self._state(base, train) == self._state(pristine, train)
        # The refitted lane never rejoins the shared group.
        assert lanes[0].group is not lanes[1].group
        scheduler.close()

    @pytest.mark.parametrize("refit_sync", [True, False])
    def test_base_added_back_leaves_the_standby_cache(self, workload,
                                                      refit_sync):
        train, replays = workload
        sintel = Sintel("dense_autoencoder", window_size=40, epochs=2)
        sintel.fit(train)
        base = sintel.pipeline
        pristine = copy.deepcopy(base)
        clock = {"now": 0.0}
        scheduler = StreamScheduler(
            policy=TierPolicy(sla_deadline=10.0), refit_budget=2,
            refit_sync=refit_sync, clock=lambda: clock["now"])
        options = dict(window_size=WINDOW, warmup=WARMUP,
                       drift_detector=None)

        def serve(feeds):
            """One round: one micro-batch per ``(lane, batch)`` feed."""
            for lane, batch in feeds:
                scheduler.ingest(lane.lane_id, batch)
            clock["now"] += 20.0  # every refittable lane blows its SLA
            scheduler.run_round()
            _await_refits(scheduler)

        # Lanes A and B share the base and both refit: their group
        # empties and the base goes to the standby cache.
        pair = [scheduler.add_stream(base, stream_id=name, **options)
                for name in "AB"]
        schedule = [_batches(replay) for replay in replays[:2]]
        for index in range(2):
            serve([(lane, batches[index])
                   for lane, batches in zip(pair, schedule)])
        assert [lane.runner.retrains for lane in pair] == [1, 1]
        assert scheduler.standby.size == 1
        # Lane C is added back on the base and never refits, while A and
        # B keep refitting from the standby cache.
        lane = scheduler.add_stream(base, stream_id="C", retrain=False,
                                    **options)
        served = _batches(replays[2])[:2]
        for index, batch in enumerate(served):
            serve([(pair[0], schedule[0][2 + index]),
                   (pair[1], schedule[1][2 + index]), (lane, batch)])

        assert [lane.runner.retrains for lane in pair] == [3, 3]
        assert scheduler.stats()["refit_errors"] == 0
        assert lane.runner.pipeline is base
        assert all(other.runner.pipeline is not base for other in pair)
        [runner] = _replay_independent(pristine, [np.vstack(served)])
        assert ([event.to_tuple() for event in lane.runner.events]
                == [event.to_tuple() for event in runner.events])
        assert self._state(base, train) == self._state(pristine, train)
        scheduler.close()


def _await_refits(scheduler, timeout=60.0):
    """Block until the scheduler has no refit in flight."""
    deadline = time.monotonic() + timeout
    while scheduler.stats()["refits_in_flight"]:
        assert time.monotonic() < deadline, "a refit never finished"
        time.sleep(0.01)


class _ExplodingPipeline:
    def fit(self, data):
        raise RuntimeError("injected refit failure")
