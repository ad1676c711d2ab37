"""The four workloads: ``sweep``, ``batch``, ``stream`` and ``api``.

Each workload builds its inputs from the seed (``WorkloadGenerator``),
sets itself up, runs a timed phase against the public entry points users
call, checks its outputs, and reports the three gated metrics
(``setup_s``, ``peak_rss_mb``, ``throughput_per_s``) together with the
workload's own named metrics, medians and tails included.

``throughput_per_s`` is the rate of the fastest unit of identical work in
the timed phase (sweep, pass, round or detect request). The host's speed
drifts by a quarter over seconds to minutes, so rates and medians over a
whole run spread 13-25% (IQR/median) over ten runs of unchanged code, past
or close to their bound; the fastest unit spreads far less, and a change
that slows the work slows every unit, the fastest included.

Every timed phase may run with a :class:`~stackbench.tracing.Tracer`
enabled; the workload then wraps its own calls into each layer in
``top:`` spans and reports the stats snapshots the per-layer ledger
needs (:meth:`Workload.facts`).
"""

from __future__ import annotations

import contextlib
import copy
import gc
import json
import math
import os
import threading
import time
from collections import deque

import numpy as np

from common import median, percentile, tail_percentile

#: Where recorded sweep F1 references live (one entry per seed).
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    """Common shape: set up, run timed phases, check, report."""

    name = ""
    #: How many times set-up runs per invocation; ``setup_s`` is the median.
    setup_repeats = 3
    #: Units of work an untraced run times at least (whatever ``seconds``).
    min_units = 1

    def __init__(self, seed: int, seconds: float):
        self.seed = int(seed)
        self.seconds = float(seconds)
        self.setup_times: list = []
        self.problems: list = []
        self.attempted = 0
        self.failed = 0

    def set_up(self) -> None:
        for _ in range(self.setup_repeats):
            started = time.perf_counter()
            self.setup()
            self.setup_times.append(time.perf_counter() - started)

    # Subclasses implement these.
    def setup(self) -> None:
        raise NotImplementedError

    def run(self, seconds: float, tracer=None, min_units: int = 1) -> dict:
        raise NotImplementedError

    def check(self) -> None:
        raise NotImplementedError

    def report(self, phase: dict) -> tuple:
        """``(gated metrics, named rows)`` of one untraced phase.

        Gated metrics map name -> ``(value, unit, samples)``; named rows
        are ``(name, value, unit, samples)`` tuples for the printed ledger.
        """
        raise NotImplementedError

    def unit_wall(self, phase: dict) -> float:
        """Wall seconds of one unit of work (for the tracing overhead)."""
        raise NotImplementedError

    def facts(self, phase: dict) -> dict:
        """Stats snapshots for the per-layer ledger of a traced phase."""
        return {}

    def before_traced(self, tracer) -> None:
        """Hook run after tracing is installed, before the traced phase."""

    def arenas(self) -> list:
        """Arena pools the workload built before tracing was installed."""
        return []

    def problem(self, message: str) -> None:
        self.problems.append(message)


# --------------------------------------------------------------------------- #
# sweep: benchmark() over the Fig. 7a pipelines with a process pool
# --------------------------------------------------------------------------- #
class Sweep(Workload):
    """``benchmark(executor="process", workers=2)`` over three datasets.

    The datasets follow the three synthetic sources at the scale the
    repository's Fig. 7a test uses (one NAB-like, two NASA-like, three
    Yahoo-like signals), but with fixed lengths: signal content comes from
    the seed while the amount of work does not, so run-to-run spread
    measures the system and not the draw of signal lengths.
    """

    name = "sweep"
    workers = 2
    min_units = 2
    #: ``(dataset, signals, rows per signal)``
    shape = (("NAB", 1, 400), ("NASA", 2, 500), ("YAHOO", 3, 150))

    def build_datasets(self) -> dict:
        from repro.data.signal import Dataset
        from repro.data.synthetic import WorkloadGenerator

        datasets = {}
        for offset, (name, count, length) in enumerate(self.shape):
            generator = WorkloadGenerator(seed=self.seed * 16 + offset,
                                          length=length)
            dataset = Dataset(name=name, metadata={"seed": self.seed})
            for index in range(count):
                signal = generator.signal(index, name=f"{name}-{index}")
                signal.metadata["dataset"] = name
                dataset.add_signal(signal)
            datasets[name] = dataset
        return datasets

    def setup(self) -> None:
        from repro.benchmark.runner import run_pipeline_on_signal
        from repro.pipelines import BENCHMARK_PIPELINES

        self.pipelines = list(BENCHMARK_PIPELINES)
        self.datasets = self.build_datasets()
        # Warm-up that doubles as the serial control: every pipeline once,
        # in process, on the shortest signal. The check requires the pool
        # sweep to reproduce these records exactly.
        self.probe = next(iter(self.datasets["YAHOO"]))
        self.serial = {
            pipeline: run_pipeline_on_signal(pipeline, self.probe,
                                             profile_memory=False)
            for pipeline in self.pipelines}
        self.sweeps = []
        self.jobs_per_sweep = len(self.pipelines) * sum(
            count for _, count, _ in self.shape)

    @classmethod
    def sweep(cls, datasets):
        """One pool sweep of the six benchmark pipelines over ``datasets``."""
        from repro.benchmark import benchmark
        from repro.pipelines import BENCHMARK_PIPELINES

        return benchmark(pipelines=list(BENCHMARK_PIPELINES),
                         datasets=datasets, executor="process",
                         workers=cls.workers, profile_memory=False)

    def run(self, seconds, tracer=None, min_units=1):
        sweeps = []
        started = time.perf_counter()
        while (len(sweeps) < min_units
               or time.perf_counter() - started < seconds):
            with _span(tracer, "top:benchmark"):
                begin = time.perf_counter()
                result = self.sweep(self.datasets)
                wall = time.perf_counter() - begin
            sweeps.append({"wall": wall, "records": result.records})
        self.sweeps.extend(sweeps)
        return {"sweeps": sweeps, "wall": (started, time.perf_counter())}

    @staticmethod
    def _f1_by_pipeline(records) -> dict:
        by_pipeline: dict = {}
        for record in records:
            by_pipeline.setdefault(record["pipeline"], []).append(record["f1"])
        return {pipeline: float(np.mean(values))
                for pipeline, values in sorted(by_pipeline.items())}

    def check(self) -> None:
        reference = {}
        if os.path.exists(REFERENCE_PATH):
            with open(REFERENCE_PATH) as handle:
                reference = json.load(handle).get("sweep_f1", {})
        expected = reference.get(str(self.seed))
        self.reference_used = expected is not None
        for number, sweep in enumerate(self.sweeps):
            records = sweep["records"]
            self.attempted += len(records)
            bad = [record for record in records if record["status"] != "ok"]
            self.failed += len(bad)
            for record in bad:
                self.problem(f"sweep {number}: {record['pipeline']} on "
                             f"{record['signal']} failed: {record.get('error')}")
            if len(records) != self.jobs_per_sweep:
                self.problem(f"sweep {number}: {len(records)} records for "
                             f"{self.jobs_per_sweep} jobs")
            f1 = self._f1_by_pipeline(records)
            if expected is not None and f1 != expected:
                self.problem(f"sweep {number}: per-pipeline F1 {f1} differs "
                             f"from the reference {expected}")
            if number and f1 != self._f1_by_pipeline(self.sweeps[0]["records"]):
                self.problem(f"sweep {number}: F1 differs from sweep 0")
            for record in records:
                if record["signal"] != self.probe.name:
                    continue
                serial = self.serial[record["pipeline"]]
                fields = ("status", "f1", "precision", "recall", "n_detected")
                if any(record.get(key) != serial.get(key) for key in fields):
                    self.problem(
                        f"sweep {number}: {record['pipeline']} on "
                        f"{record['signal']} differs from the serial run")

    def report(self, phase):
        sweeps = phase["sweeps"]
        jobs = [record for sweep in sweeps for record in sweep["records"]]
        latencies = [(record["fit_time"] + record["detect_time"]) * 1000.0
                     for record in jobs]
        walls = [sweep["wall"] for sweep in sweeps]
        q = tail_percentile(self.jobs_per_sweep * self.min_units)
        # A user waits for the whole table, so one sweep is the unit of
        # work. (The median job falls between the fast pipelines and the
        # NN ones, where it jumps between the two groups from run to run.)
        metrics = {
            "throughput_per_s": (self.jobs_per_sweep / min(walls), "1/s",
                                 len(walls)),
        }
        rows = [
            ("sweep_wall_s", median(walls), "s", len(walls)),
            ("sweep_wall_max_s", max(walls), "s", len(walls)),
            ("train_s", median([sum(r["fit_time"] for r in s["records"])
                                for s in sweeps]), "s", len(sweeps)),
            ("detect_s", median([sum(r["detect_time"] for r in s["records"])
                                 for s in sweeps]), "s", len(sweeps)),
            ("jobs_per_s", len(jobs) / sum(walls), "jobs/s", len(jobs)),
            ("job_latency_p50_ms", median(latencies), "ms", len(latencies)),
            (f"job_latency_p{q}_ms", percentile(latencies, q), "ms",
             len(latencies)),
        ]
        return metrics, rows

    def unit_wall(self, phase):
        return median([sweep["wall"] for sweep in phase["sweeps"]])

    def facts(self, phase):
        return {"sweep_wall_total": sum(s["wall"] for s in phase["sweeps"]),
                "workers": self.workers}


# --------------------------------------------------------------------------- #
# batch: detect_many over a fleet on the exact and fused planes
# --------------------------------------------------------------------------- #
class Batch(Workload):
    """``Sintel.detect_many`` over 32 signals of two lengths.

    The LSTM pipelines run on the fused plane (``exact=False``); the dense
    autoencoder, ARIMA and Azure run on the exact plane. Fitting happens
    in set-up only, so the timed phase exercises plan fusion, the arena
    and the NN forward but never training.
    """

    name = "batch"
    min_units = 3
    #: pipeline -> ``exact`` flag of its batch plane
    planes = {"lstm_dynamic_threshold": False, "lstm_autoencoder": False,
              "dense_autoencoder": True, "arima": True, "azure": True}
    fleet_size = 32
    lengths = (1000, 1500)
    train_length = 600
    #: Signals checked against the per-signal path (two of each length).
    check_subset = (0, 1, 2, 3)

    def setup(self) -> None:
        from repro.benchmark.runner import DEFAULT_PIPELINE_OPTIONS
        from repro.core.sintel import Sintel
        from repro.data.synthetic import WorkloadGenerator

        generators = [WorkloadGenerator(seed=self.seed * 2 + offset,
                                        length=length)
                      for offset, length in enumerate(self.lengths)]
        self.fleet = [
            generators[index % 2].signal(index // 2).to_array()
            for index in range(self.fleet_size)]
        train = WorkloadGenerator(seed=self.seed * 2,
                                  length=self.train_length
                                  ).signal(self.fleet_size).to_array()
        # Release the previous set-up's models (their fused plans hold
        # about 0.6 GB of arena buffers) before building the next.
        self.models = {}
        gc.collect()
        for pipeline in self.planes:
            sintel = Sintel(pipeline, **DEFAULT_PIPELINE_OPTIONS[pipeline])
            sintel.fit(train)
            self.models[pipeline] = sintel
        # Warm-up: one signal of each length compiles every batch plan.
        for pipeline, exact in self.planes.items():
            self.models[pipeline].detect_many(self.fleet[:2], exact=exact)
        self.outputs = None
        self.mismatches = 0
        self.passes = 0

    def _pass(self, tracer):
        calls = {}
        outputs = {}
        for pipeline, exact in self.planes.items():
            with _span(tracer, "top:detect_many"):
                started = time.perf_counter()
                outputs[pipeline] = self.models[pipeline].detect_many(
                    self.fleet, exact=exact)
                calls[pipeline] = time.perf_counter() - started
        return calls, outputs

    def run(self, seconds, tracer=None, min_units=1):
        passes = []
        started = time.perf_counter()
        while (len(passes) < min_units
               or time.perf_counter() - started < seconds):
            calls, outputs = self._pass(tracer)
            passes.append(calls)
            # Every pass must reproduce the first one exactly.
            if self.outputs is None:
                self.outputs = outputs
            self.mismatches += sum(outputs[p] != self.outputs[p]
                                   for p in self.planes)
        self.passes += len(passes)
        return {"passes": passes, "wall": (started, time.perf_counter())}

    def check(self) -> None:
        from repro.benchmark.batch import anomalies_within_tolerance

        self.attempted = self.passes * len(self.planes) * self.fleet_size
        self.failed = self.mismatches * self.fleet_size
        if self.mismatches:
            self.problem(f"{self.mismatches} detect_many call(s) differ from "
                         "the first pass")
        subset = [self.fleet[index] for index in self.check_subset]
        for pipeline, exact in self.planes.items():
            sintel = self.models[pipeline]
            batched = [self.outputs[pipeline][index]
                       for index in self.check_subset]
            if exact:
                loop = [sintel.detect(signal) for signal in subset]
                if batched != loop:
                    self.problem(f"{pipeline}: exact plane differs from the "
                                 "per-signal detect loop")
            else:
                reference = sintel.detect_many(subset, exact=True)
                if not anomalies_within_tolerance(batched, reference):
                    self.problem(f"{pipeline}: fused plane outside "
                                 "PARITY_RTOL/PARITY_ATOL of the exact plane")

    def report(self, phase):
        passes = phase["passes"]
        pass_ms = [sum(calls.values()) * 1000.0 for calls in passes]
        signals = len(passes) * len(self.planes) * self.fleet_size
        total_s = sum(pass_ms) / 1000.0
        metrics = {
            "throughput_per_s": (len(self.planes) * self.fleet_size
                                 / (min(pass_ms) / 1000.0), "1/s",
                                 len(pass_ms)),
        }
        rows = [("batch_signals_per_s", signals / total_s, "signals/s",
                 signals),
                ("pass_p50_ms", median(pass_ms), "ms", len(pass_ms)),
                ("pass_max_ms", max(pass_ms), "ms", len(pass_ms))]
        for pipeline in self.planes:
            rows.append((f"detect_many_ms.{pipeline}",
                         median([calls[pipeline] * 1000.0
                                 for calls in passes]), "ms", len(passes)))
        return metrics, rows

    def unit_wall(self, phase):
        return median([sum(calls.values()) for calls in phase["passes"]])

    def arenas(self) -> list:
        return [sintel.pipeline.compiled_plan("batch", exact=exact).arena
                for sintel, exact in zip(self.models.values(),
                                         self.planes.values())]


# --------------------------------------------------------------------------- #
# stream: an open loop over a fleet of dense-autoencoder lanes
# --------------------------------------------------------------------------- #
class Stream(Workload):
    """32 ``dense_autoencoder`` lanes under ``StreamScheduler``.

    Every tick each lane receives a 50-row micro-batch on a fixed
    schedule (open loop). Refits run inline (``refit_sync=True``, one per
    round) under the default drift detector, with a logical clock that
    advances one tick per round, so the same lanes refit on every run of
    a seed. Lane warm-up equals the window (200 rows): a warm-up shorter
    than the window has been seen to raise a matmul shape error that
    errors every lane of the cohort, so the workload keeps this shape.
    """

    name = "stream"
    #: Set-up takes about 0.3 s, so more repeats steady its median.
    setup_repeats = 7
    lanes = 32
    window = 200
    warmup = 200
    rows_per_batch = 50
    #: Seconds between ticks: the fleet is about half busy at this rate.
    tick = 0.25
    #: Lanes replayed through independent runners by the check.
    replay_lanes = (29, 30, 31)

    def setup(self) -> None:
        from repro.benchmark.runner import DEFAULT_PIPELINE_OPTIONS
        from repro.core.fleet import StreamScheduler
        from repro.core.sintel import Sintel
        from repro.data.synthetic import WorkloadGenerator

        warm_ticks = self.warmup // self.rows_per_batch
        # Enough ticks for the longest run (traced runs time two phases).
        self.n_ticks = warm_ticks + int(math.ceil(self.seconds / self.tick)) + 8
        length = self.n_ticks * self.rows_per_batch
        train = WorkloadGenerator(seed=self.seed, length=1000).signal(0)
        self.sintel = Sintel("dense_autoencoder",
                             **DEFAULT_PIPELINE_OPTIONS["dense_autoencoder"])
        self.sintel.fit(train.to_array())
        self.pristine = copy.deepcopy(self.sintel.pipeline)
        generator = WorkloadGenerator(seed=self.seed, length=length)
        self.replays = [generator.signal(1 + index).to_array()
                        for index in range(self.lanes)]
        self.clock = 0
        self.scheduler = StreamScheduler(refit_budget=1, refit_sync=True,
                                         clock=lambda: self.clock)
        self.fleet_lanes = [
            self.scheduler.add_stream(self.sintel,
                                      stream_id=f"lane-{index:02d}",
                                      window_size=self.window,
                                      warmup=self.warmup)
            for index in range(self.lanes)]
        self.next_tick = 0
        for _ in range(warm_ticks):
            self._ingest_tick()
            self.scheduler.run_round()
            self.clock += 1
        self.pending_due = {lane.lane_id: deque() for lane in self.fleet_lanes}

    def _ingest_tick(self) -> None:
        start = self.next_tick * self.rows_per_batch
        for lane, replay in zip(self.fleet_lanes, self.replays):
            self.scheduler.ingest(lane.lane_id,
                                  replay[start:start + self.rows_per_batch])
        self.next_tick += 1

    def run(self, seconds, tracer=None, min_units=1):
        latencies, late, round_s, round_rows = [], [], [], []
        backlog_max = 0
        rows = 0
        first_tick = self.next_tick
        started = time.perf_counter()

        def due(tick):
            return started + (tick - first_tick) * self.tick

        while True:
            now = time.perf_counter()
            while (self.next_tick < self.n_ticks
                   and due(self.next_tick) <= now
                   and due(self.next_tick) - started < seconds):
                due_at = due(self.next_tick)
                with _span(tracer, "top:ingest"):
                    self._ingest_tick()
                for queue in self.pending_due.values():
                    queue.append(due_at)
                late.append(now - due_at)
            waiting = [lane for lane in self.fleet_lanes
                       if lane.pending and not lane.error]
            if waiting:
                depth = {lane.lane_id: len(lane.pending) for lane in waiting}
                backlog_max = max(backlog_max, sum(depth.values()))
                with _span(tracer, "top:run_round"):
                    begin = time.perf_counter()
                    self.scheduler.run_round()
                    end = time.perf_counter()
                self.clock += 1
                round_s.append(end - begin)
                served = 0
                for lane in waiting:
                    if len(lane.pending) < depth[lane.lane_id]:
                        latencies.append(
                            end - self.pending_due[lane.lane_id].popleft())
                        served += self.rows_per_batch
                round_rows.append(served)
                rows += served
                continue
            next_due = due(self.next_tick)
            if self.next_tick >= self.n_ticks or next_due - started >= seconds:
                break
            time.sleep(max(0.0, next_due - time.perf_counter()))
        return {"latencies": latencies, "late": late, "round_s": round_s,
                "round_rows": round_rows, "rows": rows,
                "backlog_max": backlog_max,
                "ticks": self.next_tick - first_tick,
                "wall": (started, time.perf_counter())}

    def check(self) -> None:
        from repro.core.fleet import FleetStreamRunner
        from repro.core.stream import StreamRunner

        stats = self.scheduler.stats()
        self.attempted = self.next_tick * self.lanes
        errored = [lane.lane_id for lane in self.fleet_lanes if lane.error]
        self.failed = sum(len(queue) for queue in self.pending_due.values())
        self.failed += len(errored) * self.next_tick
        if errored:
            self.problem(f"lane errors on {errored}")
        if stats["refit_errors"]:
            self.problem(f"{stats['refit_errors']} refit error(s)")
        if any(self.pending_due.values()):
            self.problem("some ingested batches were never processed")
        for lane in self.fleet_lanes:
            for event in lane.runner.events:
                if not (event.start <= event.end
                        and math.isfinite(event.severity)):
                    self.problem(f"{lane.lane_id}: malformed event {event}")
                    break
        # Exact-plane parity on the same micro-batches: a fleet without
        # refits against one independent StreamRunner per replayed lane.
        rows = self.next_tick * self.rows_per_batch
        fleet = FleetStreamRunner(exact=True)
        fleet_lanes, runners = [], []
        for index in self.replay_lanes:
            fleet_lanes.append(fleet.add_stream(
                self.pristine, stream_id=f"replay-{index}",
                window_size=self.window, warmup=self.warmup,
                drift_detector=None))
            runners.append(StreamRunner(
                copy.deepcopy(self.pristine), window_size=self.window,
                warmup=self.warmup, drift_detector=None, retrain=False))
        for start in range(0, rows, self.rows_per_batch):
            for lane, runner, index in zip(fleet_lanes, runners,
                                           self.replay_lanes):
                batch = self.replays[index][start:start + self.rows_per_batch]
                fleet.ingest(lane.lane_id, batch)
                runner.send(batch)
            fleet.run_round()
        for lane, runner, index in zip(fleet_lanes, runners,
                                       self.replay_lanes):
            if lane.runner.anomalies() != runner.anomalies():
                self.problem(f"lane {index}: fleet events differ from an "
                             "independent StreamRunner replay")
        fleet.close()
        for runner in runners:
            runner.close()

    def report(self, phase):
        latencies = [value * 1000.0 for value in phase["latencies"]]
        busy = sum(phase["round_s"])
        # Lanes of one round share its end, so rounds are the independent
        # samples the tail percentile is sized by.
        q = tail_percentile(int(self.seconds / self.tick))
        peak = max(served / wall for served, wall
                   in zip(phase["round_rows"], phase["round_s"]))
        metrics = {"throughput_per_s": (peak, "1/s", len(phase["round_s"]))}
        rows = [
            ("stream_latency_p50_ms", median(latencies), "ms", len(latencies)),
            (f"stream_latency_p{q}_ms", percentile(latencies, q), "ms",
             len(latencies)),
            ("stream_capacity_samples_per_s", phase["rows"] / busy,
             "samples/s", phase["rows"]),
            ("stream_peak_capacity_samples_per_s", peak, "samples/s",
             len(phase["round_s"])),
            ("round_ms_p50", median(phase["round_s"]) * 1000.0, "ms",
             len(phase["round_s"])),
            ("fleet_busy_frac", busy / (phase["wall"][1] - phase["wall"][0]),
             "ratio", len(phase["round_s"])),
        ]
        return metrics, rows

    def unit_wall(self, phase):
        return float(np.mean(phase["round_s"]))

    def before_traced(self, tracer) -> None:
        self._stats_start = self.scheduler.stats()

    def arenas(self) -> list:
        groups = {id(lane.group): lane.group for lane in self.fleet_lanes}
        return [group.base.compiler.plan(
                    "stream_batch", exact=group.exact,
                    precision=group.precision, registry=group.registry).arena
                for group in groups.values()]

    def facts(self, phase):
        end = self.scheduler.stats()
        start = self._stats_start
        plan_runs = end["plan_runs"] - start["plan_runs"]
        served = end["lanes_served"] - start["lanes_served"]
        hits = end["standby"]["hits"] - start["standby"]["hits"]
        misses = end["standby"]["misses"] - start["standby"]["misses"]
        refits = (sum(end["refits_by_tier"].values())
                  - sum(start["refits_by_tier"].values()))
        return {
            "fleet.coalesce_ratio": served / plan_runs if plan_runs else 0.0,
            "fleet.plan_runs": plan_runs,
            "fleet.groups": end["groups"],
            "fleet.backlog_max": phase["backlog_max"],
            "scheduler.refits": refits,
            "standby.hit_ratio": hits / (hits + misses) if hits + misses
            else 0.0,
            "late_ms_p99": percentile(phase["late"], 99) * 1000.0,
        }


# --------------------------------------------------------------------------- #
# api: the gateway under a detect client and an open-loop analyst
# --------------------------------------------------------------------------- #
class Api(Workload):
    """A ``Gateway`` with two client threads.

    Thread 1 is a closed-loop client posting ``/v1/detect`` (azure, 1000
    rows). The main thread is an open-loop analyst running the paper's
    human-in-the-loop cycle, arriving as a seeded Poisson process, against
    a store seeded with 5000 events: list a page of one signal's events,
    create an event, annotate it, modify it, delete it. Analyst requests
    are timed from their cycle's due time.
    """

    name = "api"
    #: Set-up takes a fifth of a second, so more repeats steady its median.
    setup_repeats = 5
    events = 5000
    signals = 50
    cycles_per_s = 5.0
    #: Sizes the detect tail percentile (the closed loop sets the real rate).
    nominal_detects_per_s = 10.0
    detect_pool = 8
    page = 50

    def setup(self) -> None:
        from repro.api.gateway import Gateway
        from repro.api.rest import SintelAPI
        from repro.api.tenants import TenantRegistry
        from repro.data.synthetic import WorkloadGenerator

        if getattr(self, "gateway", None) is not None:
            self.gateway.close()
        self.gateway = Gateway(SintelAPI(), TenantRegistry(default_rate=None))
        _, key = self.gateway.tenants.create("stackbench", rate=None)
        self.headers = {"X-API-Key": key}
        explorer = self.gateway.api.explorer
        rng = np.random.default_rng(self.seed)
        starts = rng.uniform(0, 100000, size=self.events)
        widths = rng.uniform(10, 500, size=self.events)
        severities = rng.uniform(0, 1, size=self.events)
        for index in range(self.events):
            explorer.add_event("seeded-run", f"signal-{index % self.signals:02d}",
                               float(starts[index]),
                               float(starts[index] + widths[index]),
                               float(severities[index]))
        generator = WorkloadGenerator(seed=self.seed, length=1000)
        self.detect_rows = [generator.signal(index).to_array().tolist()
                            for index in range(self.detect_pool)]
        self.rng = np.random.default_rng(self.seed + 1)
        self.client_errors = []
        self.responses = []
        self.detect_results = {}
        # Warm-up: one detect request and one analyst cycle.
        self._detect(0)
        for operation in self._cycle():
            operation()
        self.responses = []

    def _request(self, method, path, body=None, query=None):
        response = self.gateway.handle(method, path, body=body, query=query,
                                       headers=self.headers)
        self.responses.append(response.status)
        return response

    def _detect(self, number: int):
        index = number % self.detect_pool
        response = self._request("POST", "/v1/detect",
                                 {"pipeline": "azure",
                                  "data": self.detect_rows[index]})
        if response.ok:
            self.detect_results.setdefault(index, response.body["anomalies"])

    def _cycle(self):
        """The five analyst requests of one HIL cycle, as callables."""
        state = {}
        signal = f"signal-{int(self.rng.integers(self.signals)):02d}"
        offset = int(self.rng.integers(0, self.events // self.signals
                                       - self.page))
        start = float(self.rng.uniform(0, 100000))

        def list_page():
            self._request("GET", "/v1/events",
                          query={"signal_id": signal, "limit": self.page,
                                 "offset": offset})

        def create():
            response = self._request("POST", "/v1/events", {
                "signal_id": signal, "start_time": start,
                "stop_time": start + 100.0, "severity": 0.5,
                "source": "human"})
            state["id"] = response.body.get("id") if response.ok else None

        def annotate():
            self._request("POST", f"/v1/events/{state['id']}/annotations",
                          {"user": "analyst", "tag": "anomaly",
                           "comment": "confirmed"})

        def modify():
            self._request("PATCH", f"/v1/events/{state['id']}",
                          {"start_time": start - 10.0,
                           "stop_time": start + 120.0})

        def delete():
            self._request("DELETE", f"/v1/events/{state['id']}")

        return [list_page, create, annotate, modify, delete]

    def run(self, seconds, tracer=None, min_units=1):
        stop = threading.Event()
        detect_latency = []
        errors = []

        def detect_client():
            number = 0
            try:
                while not stop.is_set():
                    with _span(tracer, "top:detect"):
                        begin = time.perf_counter()
                        self._detect(number)
                        detect_latency.append(time.perf_counter() - begin)
                    number += 1
            except Exception as error:  # noqa: BLE001 - reported by check
                errors.append(repr(error))

        self._coalescer_start = self.gateway.api.coalescer.stats()
        client = threading.Thread(target=detect_client, name="detect-client")
        hil_latency, cycle_latency, late = [], [], []
        started = time.perf_counter()
        client.start()
        # Poisson arrivals: a fixed period would phase-lock with the detect
        # client's requests and make each run's latencies depend on the
        # phase it happened to start in.
        arrivals = np.random.default_rng(self.seed + 2)
        try:
            offset = 0.0
            while offset < seconds:
                # The cycle's requests are due together and sent back to
                # back (each needs the previous one's answer), so every
                # request is timed from the cycle's due time.
                due = started + offset
                offset += float(arrivals.exponential(1.0 / self.cycles_per_s))
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                late.append(time.perf_counter() - due)
                for operation in self._cycle():
                    with _span(tracer, "top:analyst"):
                        operation()
                    hil_latency.append(time.perf_counter() - due)
                cycle_latency.append(time.perf_counter() - due)
        finally:
            stop.set()
            client.join(timeout=120)
        ended = time.perf_counter()
        if client.is_alive():
            errors.append("detect client did not stop")
        self.client_errors.extend(errors)
        return {"detect": detect_latency, "hil": hil_latency,
                "cycles": cycle_latency, "late": late,
                "wall": (started, ended)}

    def check(self) -> None:
        from repro.core.sintel import Sintel

        self.attempted = len(self.responses)
        bad = [status for status in self.responses
               if not 200 <= status < 300]
        self.failed = len(bad) + len(self.client_errors)
        if bad:
            self.problem(f"{len(bad)} non-2xx response(s): "
                         f"{sorted(set(bad))}")
        for error in self.client_errors:
            self.problem(f"detect client: {error}")
        for index, anomalies in sorted(self.detect_results.items()):
            rows = self.detect_rows[index]
            direct = Sintel("azure").fit(rows).detect_many([rows])[0]
            if [list(anomaly) for anomaly in direct] != anomalies:
                self.problem(f"detect result {index} differs from a direct "
                             "detect_many")
        remaining = len(self.gateway.api.explorer.store["events"])
        if remaining != self.events:
            self.problem(f"{remaining} events left, expected {self.events}")
        self.gateway.close()

    def report(self, phase):
        detect = [value * 1000.0 for value in phase["detect"]]
        hil = [value * 1000.0 for value in phase["hil"]]
        cycles = [value * 1000.0 for value in phase["cycles"]]
        wall = phase["wall"][1] - phase["wall"][0]
        planned_cycles = int(self.seconds * self.cycles_per_s)
        q = tail_percentile(planned_cycles)
        q_hil = tail_percentile(planned_cycles * 5)
        # Detect requests are the latency samples: an analyst cycle takes a
        # few milliseconds, about one interpreter switch interval (5 ms),
        # so its latency jumps with how the two threads' slices line up.
        # (Their tail still moves with how many cycles a request overlaps.)
        q_detect = tail_percentile(
            int(self.seconds * self.nominal_detects_per_s))
        metrics = {"throughput_per_s": (1000.0 / min(detect), "1/s",
                                        len(detect))}
        rows = [
            ("api_detect_p50_ms", median(detect), "ms", len(detect)),
            (f"api_detect_p{q_detect}_ms", percentile(detect, q_detect), "ms",
             len(detect)),
            ("api_detect_per_s", len(detect) / wall, "req/s", len(detect)),
            ("api_hil_p50_ms", median(hil), "ms", len(hil)),
            (f"api_hil_p{q_hil}_ms", percentile(hil, q_hil), "ms", len(hil)),
            ("api_hil_cycle_p50_ms", median(cycles), "ms", len(cycles)),
            (f"api_hil_cycle_p{q}_ms", percentile(cycles, q), "ms",
             len(cycles)),
        ]
        return metrics, rows

    def unit_wall(self, phase):
        return float(np.mean(phase["detect"]))

    def before_traced(self, tracer) -> None:
        tracer.wrap_instance(self.gateway.api.coalescer, "execute",
                             "api:coalescer.execute")
        self._responses_start = len(self.responses)

    def facts(self, phase):
        stats = self.gateway.api.coalescer.stats()
        start = self._coalescer_start
        requests = stats["requests"] - start["requests"]
        executions = stats["executions"] - start["executions"]
        codes = self.responses[self._responses_start:]
        return {
            "coalesce_ratio": requests / executions if executions else 0.0,
            "responses_4xx": sum(1 for code in codes if 400 <= code < 500),
            "responses_5xx": sum(1 for code in codes if code >= 500),
            "db_events": len(self.gateway.api.explorer.store["events"]),
            "late_ms_p99": percentile(phase["late"], 99) * 1000.0,
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Batch, Stream, Api)}
