"""The fleet streaming plane: cross-stream batching + tiered refits.

The paper's deployment story is a *fleet* — many live signals served
continuously, with drift-triggered refits (§5). PRs 2–6 built the two
halves separately: :class:`~repro.core.stream.StreamRunner` serves one
signal incrementally, and the batch/fused plane (``detect_batch``,
:class:`~repro.core.plan.FusedStep`, arena buffers) amortizes plan
execution across signals — but only offline. This module joins them:

* :class:`FleetStreamRunner` groups concurrent streams that share a
  fitted pipeline, coalesces their pending micro-batches each scheduling
  round, and executes **one stream-batch plan per group** — stateless
  steps run once over the stacked ``(n_streams, window)`` batch (through
  the same ``produce_batch`` / fused ``FusedStep`` machinery as
  ``detect_batch``), while incremental steps run per lane over each
  runner's own primitive row, bound through the plan's
  :class:`~repro.core.plan.LaneRegistry`. The per-lane
  detections demux back into each stream's stable-id
  :class:`~repro.core.stream.StreamEvent` reconciliation, so on the exact
  plane fleet events are **bitwise identical** to N independent runners;
  ``exact=False`` opts into the fused NN forwards under the same
  tolerance regime as the offline fused plane.
* :class:`TierPolicy` + :class:`StreamScheduler` allocate the refit
  budget by urgency tier (drift score, time-since-refit, SLA deadline)
  with per-tier budget floors, so a drift storm on hot streams can never
  starve the cold tier's periodic backfill; a :class:`StandbyCache`
  lands refits on warm standby pipelines whose fit-mode plans are
  already compiled, and a displaced serving pipeline becomes the next
  standby once no lane serves it. The scheduler is the only owner of
  refits: a single stream refits through a one-lane scheduler, and every
  API stream session is a lane on the API's one scheduler.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.plan import LaneRegistry
from repro.core.stream import StreamEvent, StreamRunner, detect_windows
from repro.exceptions import PipelineError, StreamError

__all__ = ["FleetLane", "FleetGroup", "FleetStreamRunner", "TierPolicy",
           "StandbyCache", "StreamScheduler"]


class FleetLane:
    """One stream's seat in the fleet: runner, queue, refit status.

    The lane owns everything that is *per stream*: the
    :class:`~repro.core.stream.StreamRunner` (sliding window, event
    registry, drift monitor and its own copies of every incremental
    primitive), the pending micro-batch queue, and the scheduler's
    tier/refit bookkeeping. Everything *shared* lives on the lane's
    :class:`FleetGroup`.
    """

    def __init__(self, lane_id: str, runner: StreamRunner,
                 group: "FleetGroup", sla_deadline: Optional[float],
                 now: float):
        self.lane_id = lane_id
        self.runner = runner
        self.group = group
        self.sla_deadline = sla_deadline
        self.pending: deque = deque()
        self.idle = threading.Event()
        self.idle.set()
        self.error: Optional[str] = None
        self.closed = False
        # Scheduler bookkeeping (clock units are the scheduler's).
        self.tier = "cold"
        self.last_refit = now
        self.refit_in_flight = False

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"FleetLane(id={self.lane_id!r}, tier={self.tier!r}, "
                f"pending={len(self.pending)})")


class FleetGroup:
    """Streams sharing one fitted pipeline, served by one stream-batch plan.

    Grouping is by *fitted pipeline object*: sharing a template is not
    enough — batched stateless steps run the base pipeline's fitted
    primitives once over the whole stack, which is only equivalent to the
    per-stream loop when every member stream would have used those same
    fitted instances. Streams fitted separately land in their own
    (singleton) groups and still benefit from tiered refit scheduling.
    """

    def __init__(self, base: Pipeline, exact: bool,
                 precision: Optional[str]):
        self.base = base
        self.exact = exact
        self.precision = precision
        self.lanes: List[FleetLane] = []

    @property
    def registry(self) -> LaneRegistry:
        """The lane table of the base pipeline's cached stream-batch plan.

        The registry belongs to the plan, not the group, so a group
        re-created for a pipeline that served before (a standby swapped
        back in by a refit) reuses its compiled plan instead of lowering
        it again.
        """
        return self.base.compiler.plan(
            "stream_batch", exact=self.exact,
            precision=self.precision).lane_registry

    def detect(self, lanes: List[FleetLane]) -> List[List[tuple]]:
        """Run one stream-batch plan over the participating lanes' windows.

        :func:`~repro.core.stream.detect_windows` over the lanes' runners,
        each bringing its own row of incremental primitives — the call a
        lone :class:`~repro.core.stream.StreamRunner` makes with itself
        alone. Returns one detection list per lane, in lane order, ready
        to demux into each lane's event reconciliation; the run's per-step
        timings land on the base pipeline.
        """
        return detect_windows(self.base, [lane.runner for lane in lanes],
                              self.exact, self.precision)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"FleetGroup(pipeline={self.base.name!r}, "
                f"lanes={len(self.lanes)})")


def _percentile(samples, q: float) -> float:
    if not samples:
        return 0.0
    return float(np.percentile(np.asarray(samples, dtype=float), q))


class FleetStreamRunner:
    """Serve many concurrent streams through coalesced stream-batch plans.

    Each scheduling round (:meth:`run_round`) takes **one** pending
    micro-batch per stream — batches are coalesced *across* streams,
    never within one stream, which is what keeps per-send detection
    semantics (and therefore event identity) intact — groups the
    participating streams by shared pipeline, and executes one
    stream-batch plan per group. Streams whose queues run deeper drain
    over consecutive rounds (stragglers never block the fleet).

    Args:
        exact: ``True`` pins the exact plane — results bitwise identical
            to N independent :class:`~repro.core.stream.StreamRunner`\\ s.
            ``False`` opts into fused NN forwards (tolerance parity, same
            regime as ``detect_batch(exact=False)``).
        precision: optional ``"float32"`` reduced-precision plane
            (requires ``exact=False``).
        max_streams: capacity bound on registered streams.
        clock: injectable monotonic clock (tests pin it).
    """

    def __init__(self, exact: bool = True, precision: Optional[str] = None,
                 max_streams: int = 256,
                 clock: Callable[[], float] = time.monotonic):
        if precision not in (None, "float32"):
            raise PipelineError(
                f"Unknown precision {precision!r}; expected None or "
                "'float32'"
            )
        if precision is not None and exact:
            raise PipelineError(
                "precision='float32' is a reduced-precision mode and "
                "requires exact=False"
            )
        self.exact = bool(exact)
        self.precision = precision
        self.max_streams = int(max_streams)
        self._clock = clock
        self._lock = threading.RLock()
        # Guards each lane's idle flag together with its queue, so a lane
        # is never marked idle over a batch that was queued meanwhile.
        # Pushes take only this lock, never the round lock above.
        self._queue_lock = threading.Lock()
        self._lanes: Dict[str, FleetLane] = {}
        self._groups: Dict[int, FleetGroup] = {}
        self._lane_counter = 0
        self._rounds = 0
        self._plan_runs = 0
        self._lanes_served = 0
        self._batches_in = 0
        self._occupancy: Counter = Counter()
        self._lag_samples: deque = deque(maxlen=2048)

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def _group_for(self, base: Pipeline) -> FleetGroup:
        group = self._groups.get(id(base))
        if group is None:
            group = FleetGroup(base, self.exact, self.precision)
            self._groups[id(base)] = group
        return group

    def add_stream(self, pipeline, stream_id: Optional[str] = None,
                   window_size: int = 500, warmup: int = 32,
                   drift_detector="default", drift_cooldown: int = 50,
                   sla_deadline: Optional[float] = None,
                   retrain: bool = True,
                   on_event: Optional[Callable[[StreamEvent], None]] = None,
                   ) -> FleetLane:
        """Register a stream served by ``pipeline`` (fitted; Sintel ok).

        Streams registered with the *same fitted pipeline object* join
        one group and are batched together. ``retrain=False`` keeps a
        :class:`StreamScheduler` from ever refitting the stream. Returns
        the lane handle used with :meth:`ingest` / :meth:`close_stream`.
        """
        base = getattr(pipeline, "pipeline", pipeline)
        with self._lock:
            if len(self._lanes) >= self.max_streams:
                raise StreamError(
                    f"Fleet capacity reached ({self.max_streams} streams)"
                )
            if stream_id is None:
                self._lane_counter += 1
                stream_id = f"lane-{self._lane_counter}"
            if stream_id in self._lanes:
                raise StreamError(f"Stream {stream_id!r} already registered")
            runner = StreamRunner(
                base, window_size=window_size, warmup=warmup,
                drift_detector=drift_detector, drift_cooldown=drift_cooldown,
                retrain=retrain, on_event=on_event,
            )
            group = self._group_for(getattr(runner, "_pipeline"))
            lane = FleetLane(stream_id, runner, group, sla_deadline,
                             self._clock())
            group.lanes.append(lane)
            self._lanes[stream_id] = lane
            return lane

    def lane(self, lane_id: str) -> FleetLane:
        try:
            return self._lanes[lane_id]
        except KeyError:
            raise StreamError(f"Unknown stream {lane_id!r}") from None

    def lanes(self) -> List[FleetLane]:
        with self._lock:
            return list(self._lanes.values())

    # ------------------------------------------------------------------ #
    # ingestion + rounds
    # ------------------------------------------------------------------ #
    def ingest(self, lane_id: str, batch) -> int:
        """Queue one micro-batch for ``lane_id``; returns its queue depth.

        Validation happens on the scheduling round: a malformed batch
        surfaces as the lane's ``error``.
        """
        lane = self.lane(lane_id)
        with self._queue_lock:
            if lane.closed:
                raise StreamError("The stream has been closed")
            lane.idle.clear()
            lane.pending.append((batch, self._clock()))
            self._batches_in += 1
            return len(lane.pending)

    def has_pending(self) -> bool:
        with self._lock:
            return any(lane.pending for lane in self._lanes.values()
                       if not lane.closed and not lane.error)

    def run_round(self) -> Dict[str, List[StreamEvent]]:
        """One scheduling round: ingest ≤1 batch per lane, detect per group.

        Returns ``{lane_id: changed events}`` for every lane that went
        through detection this round.
        """
        with self._lock:
            participants: Dict[int, List[FleetLane]] = {}
            changed: Dict[str, List[StreamEvent]] = {}
            now = self._clock
            for lane in self._lanes.values():
                if lane.closed or lane.error or not lane.pending:
                    continue
                batch, enqueued = lane.pending.popleft()
                try:
                    buffered = lane.runner._ingest(batch)
                except Exception as error:  # noqa: BLE001 - lane-scoped
                    lane.error = str(error)
                    continue
                self._lag_samples.append(now() - enqueued)
                if buffered and lane.runner.ready:
                    participants.setdefault(
                        id(lane.group), []).append(lane)
            for members in participants.values():
                try:
                    detections = members[0].group.detect(members)
                except Exception as error:  # noqa: BLE001 - group-scoped
                    for lane in members:
                        lane.error = str(error)
                    continue
                self._plan_runs += 1
                self._lanes_served += len(members)
                self._occupancy[len(members)] += 1
                for lane, detection in zip(members, detections):
                    try:
                        changed[lane.lane_id] = \
                            lane.runner.apply_detections(detection)
                    except Exception as error:  # noqa: BLE001 - lane-scoped
                        lane.error = str(error)  # e.g. an on_event hook
            with self._queue_lock:
                for lane in self._lanes.values():
                    if lane.error:
                        lane.pending.clear()  # never served: drop the rest
                    if not lane.pending:
                        lane.idle.set()
            self._rounds += 1
            return changed

    def run_until_idle(self, max_rounds: Optional[int] = None,
                       ) -> Dict[str, List[StreamEvent]]:
        """Run rounds until every queue drains; merged changed events."""
        merged: Dict[str, List[StreamEvent]] = {}
        rounds = 0
        while self.has_pending():
            if max_rounds is not None and rounds >= max_rounds:
                break
            for lane_id, events in self.run_round().items():
                merged.setdefault(lane_id, []).extend(events)
            rounds += 1
        return merged

    def wait_idle(self, lane_id: str, timeout: Optional[float] = None) -> bool:
        """Block until the lane's queue has fully drained."""
        return self.lane(lane_id).idle.wait(timeout)

    # ------------------------------------------------------------------ #
    # refit support (driven by StreamScheduler)
    # ------------------------------------------------------------------ #
    def adopt(self, lane: FleetLane, fitted: Pipeline) -> Optional[Pipeline]:
        """Swap ``fitted`` into ``lane`` and regroup it (post-refit).

        A refitted lane leaves its shared group — its new fitted state is
        its own — and lands in the group keyed by the new pipeline
        (usually a fresh singleton), and its runner rebuilds its own row
        from ``fitted`` at the next detection. Empty groups are dropped.

        Returns the pipeline that no lane serves after the call, ready to
        recycle: ``fitted`` itself when the lane closed while its refit
        ran (nothing is swapped), the displaced pipeline once its group
        emptied, and ``None`` while other lanes still serve it.
        """
        with self._lock:
            if lane.closed:
                return fitted
            previous = lane.runner.adopt_pipeline(fitted)
            old = lane.group
            if lane in old.lanes:
                old.lanes.remove(lane)
            lane.group = self._group_for(fitted)
            lane.group.lanes.append(lane)
            if old.lanes:
                return None
            self._groups.pop(id(old.base), None)
            return previous

    # ------------------------------------------------------------------ #
    # lifecycle + observability
    # ------------------------------------------------------------------ #
    def close_stream(self, lane_id: str) -> List[StreamEvent]:
        """Close one stream; returns the events closed by the shutdown."""
        with self._lock:
            lane = self.lane(lane_id)
            with self._queue_lock:
                if lane.closed:
                    return []
                lane.closed = True
                lane.pending.clear()
                lane.idle.set()
            group = lane.group
            if lane in group.lanes:
                group.lanes.remove(lane)
            if not group.lanes:
                self._groups.pop(id(group.base), None)
            del self._lanes[lane_id]
        return lane.runner.close()

    def close(self) -> Dict[str, List[StreamEvent]]:
        """Close every stream; ``{lane_id: closed events}``."""
        closed = {}
        for lane in self.lanes():
            closed[lane.lane_id] = self.close_stream(lane.lane_id)
        return closed

    def stats(self) -> dict:
        """JSON-serializable snapshot of the fleet's health."""
        with self._lock:
            lanes = list(self._lanes.values())
            occupancy = dict(self._occupancy)
            plan_runs = self._plan_runs
            lanes_served = self._lanes_served
            lag = list(self._lag_samples)
            groups = len(self._groups)
            rounds = self._rounds
            batches_in = self._batches_in
        return {
            "streams": len(lanes),
            "groups": groups,
            "rounds": rounds,
            "batches_in": batches_in,
            "plan_runs": plan_runs,
            "lanes_served": lanes_served,
            "coalesce_ratio": (lanes_served / plan_runs) if plan_runs else 0.0,
            "occupancy": {str(size): count
                          for size, count in sorted(occupancy.items())},
            "pending": sum(len(lane.pending) for lane in lanes),
            "errors": sum(1 for lane in lanes if lane.error),
            "ingest_lag_p50": _percentile(lag, 50),
            "ingest_lag_p95": _percentile(lag, 95),
            "exact": self.exact,
            "precision": self.precision,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"FleetStreamRunner(streams={len(self._lanes)}, "
                f"groups={len(self._groups)}, exact={self.exact})")


class TierPolicy:
    """Assign refit urgency tiers and guarantee per-tier budget floors.

    The shape follows due-date tier scheduling: every lane carries an SLA
    deadline (maximum tolerated staleness since its last refit; per-lane
    override or the policy default — ``float("inf")`` means "no SLA,
    backfill only"), and each round lanes classify as

    * ``hot``  — confirmed drift pending, or SLA already blown;
    * ``warm`` — approaching the deadline (past ``warm_fraction`` of it):
      refitting *now* is cheap insurance against going hot;
    * ``cold`` — fresh, or no SLA at all; refreshed by the periodic
      backfill every ``backfill_interval`` seconds.

    ``budget_floors`` reserves refit slots per tier each round: under a
    sustained hot-tier storm the cold tier still receives its floor, so
    backfill progress is starvation-free (and vice versa — floors cap
    how much of the budget background backfill can claim from hot SLAs).
    """

    TIERS = ("hot", "warm", "cold")

    def __init__(self, sla_deadline: float = 600.0,
                 warm_fraction: float = 0.5,
                 backfill_interval: float = 3600.0,
                 budget_floors: Optional[Dict[str, int]] = None):
        if not 0.0 < warm_fraction <= 1.0:
            raise ValueError("warm_fraction must be in (0, 1]")
        self.sla_deadline = float(sla_deadline)
        self.warm_fraction = float(warm_fraction)
        self.backfill_interval = float(backfill_interval)
        self.budget_floors = dict(budget_floors
                                  if budget_floors is not None
                                  else {"hot": 1, "warm": 1, "cold": 1})
        for tier in self.budget_floors:
            if tier not in self.TIERS:
                raise ValueError(f"Unknown tier {tier!r} in budget_floors")

    def deadline(self, lane: FleetLane) -> float:
        return (self.sla_deadline if lane.sla_deadline is None
                else float(lane.sla_deadline))

    def tier(self, lane: FleetLane, now: float) -> str:
        """Classify one lane: drift and SLA pressure decide heat."""
        if lane.runner.drift_pending:
            return "hot"
        age = now - lane.last_refit
        deadline = self.deadline(lane)
        if age >= deadline:
            return "hot"
        if age >= self.warm_fraction * deadline:
            return "warm"
        return "cold"

    def refit_due(self, lane: FleetLane, now: float) -> bool:
        """Whether the lane should refit this round (given budget)."""
        tier = self.tier(lane, now)
        if tier in ("hot", "warm"):
            return True
        return (now - lane.last_refit) >= self.backfill_interval

    def allocate(self, due_by_tier: Dict[str, List[FleetLane]],
                 slots: int) -> List[tuple]:
        """Pick ``(tier, lane)`` refits for this round's free slots.

        Floors first — round-robin across tiers so an oversubscribed
        budget still shares fairly — then leftover slots drain by
        urgency (hot → warm → cold).
        """
        queues = {tier: list(due_by_tier.get(tier, ()))
                  for tier in self.TIERS}
        floors = {tier: min(self.budget_floors.get(tier, 0),
                            len(queues[tier]))
                  for tier in self.TIERS}
        selected: List[tuple] = []
        while len(selected) < slots and any(
                floors[tier] > 0 and queues[tier] for tier in self.TIERS):
            for tier in self.TIERS:
                if len(selected) >= slots:
                    break
                if floors[tier] > 0 and queues[tier]:
                    selected.append((tier, queues[tier].pop(0)))
                    floors[tier] -= 1
        for tier in self.TIERS:
            while queues[tier] and len(selected) < slots:
                selected.append((tier, queues[tier].pop(0)))
        return selected


class StandbyCache:
    """Warm standby pipelines keyed by template + hyperparameters.

    A refit acquires a standby (a previously displaced serving pipeline
    when one is cached — its fit-mode plan is already compiled, so the
    refit only swaps fresh primitives into existing cells — or a cold
    clone otherwise). After the swap the displaced pipeline is released
    back as the next warm standby for any lane running the same
    template/λ — but only once no lane serves it, because the next refit
    fits a standby in place. A single lane therefore ping-pongs between
    two pipelines, while a lane leaving a shared group takes a cold clone.
    Capacity-bounded; eviction just drops the pipeline.
    """

    def __init__(self, capacity: int = 8):
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._cache: Dict[str, deque] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @staticmethod
    def _key(pipeline: Pipeline) -> str:
        return json.dumps(
            {"spec": pipeline.spec,
             "hyperparameters": pipeline.get_hyperparameters()},
            sort_keys=True, default=repr)

    def acquire(self, pipeline: Pipeline) -> Pipeline:
        """A standby for ``pipeline``'s template: warm when cached."""
        key = self._key(pipeline)
        with self._lock:
            bucket = self._cache.get(key)
            if bucket:
                self.hits += 1
                self._size -= 1
                return bucket.popleft()
            self.misses += 1
        return pipeline.clone()

    def release(self, pipeline: Pipeline) -> bool:
        """Return a displaced pipeline to the warm pool (False = evicted)."""
        key = self._key(pipeline)
        with self._lock:
            if self._size >= self.capacity:
                self.evictions += 1
                return False
            self._cache.setdefault(key, deque()).append(pipeline)
            self._size += 1
            return True

    def discard(self, pipeline: Pipeline) -> None:
        """Drop ``pipeline`` from the warm pool: a lane serves it again."""
        key = self._key(pipeline)
        with self._lock:
            bucket = self._cache.get(key, ())
            if pipeline in bucket:  # pipelines compare by identity
                bucket.remove(pipeline)
                self._size -= 1

    @property
    def size(self) -> int:
        return self._size

    def stats(self) -> dict:
        with self._lock:
            return {"size": self._size, "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class StreamScheduler:
    """Tier-aware scheduling loop over a :class:`FleetStreamRunner`.

    Each :meth:`run_round` runs one fleet detection round, re-tiers every
    lane, and launches up to ``refit_budget`` refits chosen by the
    :class:`TierPolicy` (floors first, then urgency). Refits run on a
    bounded background pool against :class:`StandbyCache` standbys and
    swap atomically via
    :meth:`~repro.core.stream.StreamRunner.adopt_pipeline`; the refitted
    lane regroups onto its new pipeline. Lanes whose runner sets
    ``retrain=False`` are never refitted. ``refit_sync=True`` runs refits
    inline on the scheduling thread — deterministic, used by tests,
    benchmarks and single-stream callers (a one-lane scheduler).
    """

    def __init__(self, policy: Optional[TierPolicy] = None,
                 refit_budget: int = 2, refit_sync: bool = False,
                 clock: Callable[[], float] = time.monotonic,
                 **fleet_options):
        if refit_budget < 0:
            raise ValueError("refit_budget must be >= 0")
        self.fleet = FleetStreamRunner(clock=clock, **fleet_options)
        self.policy = policy if policy is not None else TierPolicy()
        self.standby = StandbyCache()
        self.refit_budget = int(refit_budget)
        self.refit_sync = bool(refit_sync)
        self._clock = clock
        self._lock = threading.Lock()
        self._pool: Optional[ThreadPoolExecutor] = None
        self._in_flight = 0
        self.refits_by_tier = {tier: 0 for tier in TierPolicy.TIERS}
        self.refit_errors = 0
        self._queue_depth = {tier: 0 for tier in TierPolicy.TIERS}

    # ------------------------------------------------------------------ #
    # passthrough surface
    # ------------------------------------------------------------------ #
    def add_stream(self, pipeline, **options) -> FleetLane:
        """Register a lane; its pipeline leaves the standby cache.

        A pipeline released to the cache once its group emptied can come
        back as a stream base (an API ``fleet_group`` keeps its fitted
        base); the next refit would otherwise fit it in place while the
        new lane serves it.
        """
        lane = self.fleet.add_stream(pipeline, **options)
        self.standby.discard(lane.runner.pipeline)
        lane.last_refit = self._clock()
        return lane

    def ingest(self, lane_id: str, batch) -> int:
        return self.fleet.ingest(lane_id, batch)

    def has_pending(self) -> bool:
        return self.fleet.has_pending()

    # ------------------------------------------------------------------ #
    # the scheduling loop
    # ------------------------------------------------------------------ #
    def run_round(self) -> Dict[str, List[StreamEvent]]:
        """One fleet round followed by tier-aware refit scheduling."""
        changed = self.fleet.run_round()
        self.schedule_refits()
        return changed

    def run_until_idle(self, max_rounds: Optional[int] = None,
                       ) -> Dict[str, List[StreamEvent]]:
        merged: Dict[str, List[StreamEvent]] = {}
        rounds = 0
        while self.fleet.has_pending():
            if max_rounds is not None and rounds >= max_rounds:
                break
            for lane_id, events in self.run_round().items():
                merged.setdefault(lane_id, []).extend(events)
            rounds += 1
        return merged

    def schedule_refits(self) -> List[str]:
        """Re-tier every lane and launch this round's budgeted refits."""
        now = self._clock()
        due: Dict[str, List[FleetLane]] = {tier: []
                                           for tier in TierPolicy.TIERS}
        for lane in self.fleet.lanes():
            if lane.closed or lane.error:
                continue
            lane.tier = self.policy.tier(lane, now)
            if (lane.refit_in_flight or not lane.runner.retrain
                    or not lane.runner.ready):
                continue
            if self.policy.refit_due(lane, now):
                due[lane.tier].append(lane)
        self._queue_depth = {tier: len(lanes)
                             for tier, lanes in due.items()}
        with self._lock:
            slots = max(0, self.refit_budget - self._in_flight)
        launched = []
        for tier, lane in self.policy.allocate(due, slots):
            self._launch_refit(tier, lane)
            launched.append(lane.lane_id)
        return launched

    def _launch_refit(self, tier: str, lane: FleetLane) -> None:
        lane.refit_in_flight = True
        lane.runner.clear_drift()
        try:
            standby = self.standby.acquire(lane.runner.pipeline)
        except Exception as error:  # noqa: BLE001 - surfaced via state
            self._refit_failed(lane, error)
            lane.refit_in_flight = False
            return
        snapshot = lane.runner.window.copy()
        if self.refit_sync:
            self._refit(tier, lane, standby, snapshot)
            return
        with self._lock:
            self._in_flight += 1
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=max(1, self.refit_budget),
                    thread_name_prefix="sintel-fleet-refit",
                )
            pool = self._pool
        pool.submit(self._refit_async, tier, lane, standby, snapshot)

    def _refit_async(self, tier: str, lane: FleetLane, standby: Pipeline,
                     snapshot: np.ndarray) -> None:
        try:
            self._refit(tier, lane, standby, snapshot)
        finally:
            with self._lock:
                self._in_flight -= 1

    def _refit(self, tier: str, lane: FleetLane, standby: Pipeline,
               snapshot: np.ndarray) -> None:
        """Fit ``standby`` on ``snapshot`` and swap it into ``lane``.

        Releases to the standby cache exactly the pipeline the swap left
        unserved (see :meth:`FleetStreamRunner.adopt`). Never raises: a
        failure anywhere from the fit to that release is recorded on the
        lane, which keeps serving its current pipeline and stays eligible
        for later refits.
        """
        try:
            standby.fit(snapshot)
            unused = self.fleet.adopt(lane, standby)
            if unused is not None:
                self.standby.release(unused)
            if unused is standby:  # the lane closed while its refit ran
                return
            lane.last_refit = self._clock()
            with self._lock:  # async refits finish on several threads
                self.refits_by_tier[tier] = self.refits_by_tier.get(tier, 0) + 1
        except Exception as error:  # noqa: BLE001 - surfaced via state
            self._refit_failed(lane, error)
        finally:
            lane.refit_in_flight = False

    def _refit_failed(self, lane: FleetLane, error: Exception) -> None:
        lane.runner.retrain_error = str(error)
        with self._lock:
            self.refit_errors += 1

    # ------------------------------------------------------------------ #
    # lifecycle + observability
    # ------------------------------------------------------------------ #
    def close_stream(self, lane_id: str) -> List[StreamEvent]:
        return self.fleet.close_stream(lane_id)

    def close(self) -> Dict[str, List[StreamEvent]]:
        closed = self.fleet.close()
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        return closed

    def tiers(self) -> Dict[str, int]:
        """Current lane count per tier."""
        counts = {tier: 0 for tier in TierPolicy.TIERS}
        for lane in self.fleet.lanes():
            counts[lane.tier] = counts.get(lane.tier, 0) + 1
        return counts

    def stats(self) -> dict:
        """Fleet stats merged with the scheduler's tier/refit view."""
        merged = self.fleet.stats()
        with self._lock:
            in_flight = self._in_flight
        merged.update({
            "tiers": self.tiers(),
            "refit_queue_depth": dict(self._queue_depth),
            "refits_by_tier": dict(self.refits_by_tier),
            "refit_errors": self.refit_errors,
            "refits_in_flight": in_flight,
            "refit_budget": self.refit_budget,
            "standby": self.standby.stats(),
        })
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StreamScheduler(streams={len(self.fleet.lanes())}, "
                f"budget={self.refit_budget})")
