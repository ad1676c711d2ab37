"""Span tracing for the traced benchmark run, installed from outside ``src/``.

The tracer wraps public functions and methods of every layer at run time
(class attributes and module globals are swapped for timing wrappers), so
the program itself carries no tracing code. A span records its name,
start, end, parent span, process id and thread id. Spans stay in memory
and are written out when the run ends.

``sweep`` fans jobs out to forked pool workers, which inherit the
wrappers. A worker drops the spans it inherited from the parent on its
first span, and after every ``run_pipeline_on_signal`` call appends its
own spans to ``spans-<pid>.jsonl`` in the trace directory; the parent
merges those files at the end (:meth:`Tracer.collect`).

Span names are ``<layer>:<callable>``; :func:`layer_metrics` turns the
spans of one timed phase into the per-layer ledger.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import defaultdict

import numpy as np

#: Index of each field in a span tuple.
SID, NAME, START, END, PARENT, PID, TID = range(7)

#: Batch pipelines whose ``detect_batch`` time is reported one by one
#: (the ``batch`` workload's pipelines; every workload reports the keys).
BATCH_PIPELINES = ("lstm_dynamic_threshold", "lstm_autoencoder",
                   "dense_autoencoder", "arima", "azure")


class Tracer:
    """In-memory span recorder shared by every wrapper it installs."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.enabled = False
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        self._spans: list = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self.arenas: "weakref.WeakSet" = weakref.WeakSet()

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # A forked pool worker: the parent's spans are not ours.
            self._pid = pid
            self._spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block (a wrapped call, or the benchmark's code)."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._spans.append((sid, name, start, end, parent, self._pid,
                                threading.get_ident()))

    def flush_worker(self) -> None:
        """Append this worker process's spans to its own file."""
        if os.getpid() == self.main_pid or not self._spans:
            return
        spans, self._spans = self._spans, []
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")

    def collect(self) -> list:
        """Every span of this process plus the merged worker files."""
        spans = list(self._spans)
        for path in sorted(glob.glob(os.path.join(self.out_dir,
                                                  "spans-*.jsonl"))):
            with open(path) as handle:
                spans.extend(tuple(json.loads(line)) for line in handle)
            os.remove(path)
        return spans

    # ------------------------------------------------------------------ #
    # installation
    # ------------------------------------------------------------------ #
    def _wrap(self, func, name, label=None, after=None):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = label(args) if label is not None else name
            try:
                with tracer.span(span_name):
                    return func(*args, **kwargs)
            finally:
                if after is not None:
                    after()

        wrapper.__traced__ = True
        return wrapper

    def patch_method(self, cls, method: str, name: str, label=None) -> None:
        raw = cls.__dict__.get(method)
        if raw is None or getattr(raw, "__traced__", False):
            return
        setattr(cls, method, self._wrap(raw, name, label))

    def patch_function(self, func, name: str, after=None) -> None:
        """Swap ``func`` for a wrapper in every ``repro`` module holding it."""
        wrapped = self._wrap(func, name, after=after)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap the public entry points of every layer (idempotent)."""
        from repro.api.gateway import AdmissionController, Gateway
        from repro.api.jobs import RequestCoalescer
        from repro.api.rest import SintelAPI
        from repro.benchmark import runner
        from repro.core import executor as executors
        from repro.core.arena import ArenaPool
        from repro.core.fleet import (FleetGroup, FleetStreamRunner,
                                      StreamScheduler)
        from repro.core.pipeline import Pipeline
        from repro.core.plan import (CompiledStep, FusedStep, LaneStep,
                                     PlanCompiler)
        from repro.core.primitive import (Primitive, get_primitive_class,
                                          list_primitives)
        from repro.core.sintel import Sintel
        from repro.core.stream import StreamRunner
        from repro.db.store import Collection
        from repro.evaluation import (overlapping_segment_scores,
                                      weighted_segment_scores)
        from repro.nn.network import Sequential

        methods = [
            (Gateway, "handle", "api"),
            (SintelAPI, "handle", "api"),
            (AdmissionController, "acquire", "api"),
            (RequestCoalescer, "submit", "api"),
            (Sintel, "fit", "sintel"),
            (Sintel, "detect", "sintel"),
            (Sintel, "detect_many", "sintel"),
            (Collection, "find", "db.read"),
            (Collection, "get", "db.read"),
            (Collection, "insert", "db.write"),
            (Collection, "update", "db.write"),
            (Collection, "delete", "db.write"),
            (PlanCompiler, "compile", "plan.compile"),
            (CompiledStep, "run", "plan.step"),
            (FusedStep, "run", "plan.fused"),
            (LaneStep, "run", "plan.lane"),
            (Pipeline, "fit", "pipeline.fit"),
            (Pipeline, "detect", "pipeline.detect"),
            (Pipeline, "partial_detect", "pipeline.partial_detect"),
            (FleetStreamRunner, "run_round", "fleet.round"),
            (FleetGroup, "detect", "fleet.group_detect"),
            (StreamRunner, "apply_detections", "stream.reconcile"),
            (StreamScheduler, "schedule_refits", "scheduler.refits"),
            (Sequential, "fit", "nn.fit"),
            (Sequential, "predict", "nn.predict"),
            (Sequential, "predict_fused", "nn.predict_fused"),
        ]
        for cls, method, layer in methods:
            self.patch_method(cls, method, f"{layer}:{cls.__name__}.{method}")
        self.patch_method(
            Pipeline, "detect_batch", "pipeline.detect_batch",
            label=lambda args: f"pipeline.detect_batch:{args[0].name}")

        for cls in (executors.Executor, *executors.Executor.__subclasses__()):
            for method in ("run_plan", "map"):
                self.patch_method(cls, method,
                                  f"executor.{method}:{cls.__name__}.{method}")

        primitive_classes = {get_primitive_class(name)
                             for name in list_primitives()} | {Primitive}
        for cls in primitive_classes:
            for method, kind in (("fit", "fit"), ("produce", "produce"),
                                 ("produce_batch", "produce"),
                                 ("produce_batch_fused", "produce"),
                                 ("update", "update")):
                self.patch_method(cls, method,
                                  f"primitive.{kind}:{cls.__name__}.{method}")

        self.patch_function(runner.run_pipeline_on_signal,
                            "runner:run_pipeline_on_signal",
                            after=self.flush_worker)
        self.patch_function(overlapping_segment_scores,
                            "evaluation:overlapping_segment_scores")
        self.patch_function(weighted_segment_scores,
                            "evaluation:weighted_segment_scores")

        arenas = self.arenas
        init = ArenaPool.__init__
        if not getattr(init, "__traced__", False):
            @functools.wraps(init)
            def tracked_init(pool, *args, **kwargs):
                init(pool, *args, **kwargs)
                arenas.add(pool)

            tracked_init.__traced__ = True
            ArenaPool.__init__ = tracked_init

    def wrap_instance(self, obj, attr: str, name: str) -> None:
        """Trace a callable stored on one instance (e.g. a coalescer hook)."""
        setattr(obj, attr, self._wrap(getattr(obj, attr), name))


# --------------------------------------------------------------------------- #
# turning spans into the per-layer ledger
# --------------------------------------------------------------------------- #
def _pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _union_length(intervals) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


class SpanIndex:
    """Spans of one timed phase with durations, self times and ancestry."""

    def __init__(self, spans, main_pid: int):
        self.spans = spans
        self.main_pid = main_pid
        self.by_key = {(span[PID], span[SID]): span for span in spans}
        child_time = defaultdict(float)
        for span in spans:
            if span[PARENT]:
                child_time[(span[PID], span[PARENT])] += span[END] - span[START]
        self.self_time = {
            key: (span[END] - span[START]) - child_time.get(key, 0.0)
            for key, span in self.by_key.items()}

    def named(self, prefix: str, under: str = None) -> list:
        """Spans whose name starts with ``prefix`` (optionally with an
        ancestor whose name starts with ``under``)."""
        found = [span for span in self.spans if span[NAME].startswith(prefix)]
        if under is not None:
            found = [span for span in found if self.has_ancestor(span, under)]
        return found

    def has_ancestor(self, span, prefix: str) -> bool:
        parent = span[PARENT]
        while parent:
            ancestor = self.by_key.get((span[PID], parent))
            if ancestor is None:
                return False
            if ancestor[NAME].startswith(prefix):
                return True
            parent = ancestor[PARENT]
        return False

    @staticmethod
    def durations(spans) -> list:
        return [span[END] - span[START] for span in spans]

    def selfs(self, spans) -> list:
        return [self.self_time[(span[PID], span[SID])] for span in spans]

    def unattributed(self, wall_start: float, wall_end: float) -> float:
        top = [(max(span[START], wall_start), min(span[END], wall_end))
               for span in self.spans
               if span[PID] == self.main_pid and not span[PARENT]]
        top = [(start, end) for start, end in top if end > start]
        return max(0.0, (wall_end - wall_start) - _union_length(top))

    def summary(self) -> dict:
        """Per span name: count, total and self seconds (for the trace file)."""
        table: dict = {}
        for key, span in self.by_key.items():
            entry = table.setdefault(span[NAME], {"count": 0, "total_s": 0.0,
                                                  "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span[END] - span[START]
            entry["self_s"] += self.self_time[key]
        return dict(sorted(table.items()))


def layer_metrics(index: SpanIndex, wall: tuple, facts: dict) -> dict:
    """The per-layer ledger of one traced timed phase.

    ``wall`` is the ``(start, end)`` of the traced phase; ``facts`` holds
    what the workload measured itself (stats snapshots, response codes,
    generator lateness, overhead ratio). Layers a workload does not
    exercise report 0.
    """
    ms = 1000.0
    d, s = index.durations, index.selfs
    n = index.named
    metrics = {}

    # api
    metrics["api.gateway_self_ms_p50"] = _pct(s(n("api:Gateway.handle")), 50) * ms
    metrics["api.admission_wait_ms_p99"] = _pct(
        d(n("api:AdmissionController.acquire")), 99) * ms
    metrics["api.coalescer_wait_ms_p50"] = _pct(
        s(n("api:RequestCoalescer.submit")), 50) * ms
    metrics["api.coalesce_ratio"] = facts.get("coalesce_ratio", 0.0)
    metrics["api.detect_fit_ms_p50"] = _pct(
        d(n("sintel:Sintel.fit", under="api:coalescer.execute")), 50) * ms
    metrics["api.detect_batch_ms_p50"] = _pct(
        d(n("sintel:Sintel.detect_many", under="api:coalescer.execute")), 50) * ms
    metrics["api.responses_4xx"] = facts.get("responses_4xx", 0)
    metrics["api.responses_5xx"] = facts.get("responses_5xx", 0)

    # db
    reads = d(n("db.read:"))
    metrics["db.read_ms_p50"] = _pct(reads, 50) * ms
    metrics["db.read_ms_p99"] = _pct(reads, 99) * ms
    metrics["db.write_ms_p50"] = _pct(d(n("db.write:")), 50) * ms
    metrics["db.events"] = facts.get("db_events", 0)

    # benchmark.runner + evaluation
    jobs = d(n("runner:run_pipeline_on_signal"))
    metrics["runner.job_s_p50"] = _pct(jobs, 50)
    metrics["runner.job_s_max"] = max(jobs) if jobs else 0.0
    sweep_wall = facts.get("sweep_wall_total", 0.0)
    workers = facts.get("workers", 0)
    metrics["runner.worker_busy_frac"] = (
        sum(jobs) / (workers * sweep_wall) if sweep_wall and workers else 0.0)
    metrics["evaluation.score_ms_total"] = sum(d(n("evaluation:"))) * ms

    # core.executor
    metrics["executor.map_s"] = sum(d(n("executor.map:")))
    run_plans = n("executor.run_plan:")
    metrics["executor.run_plan_self_ms_p50"] = _pct(s(run_plans), 50) * ms
    metrics["executor.run_plan_calls"] = len(run_plans)

    # core.plan / core.arena
    compiles = n("plan.compile:")
    metrics["plan.compile_s"] = sum(d(compiles))
    metrics["plan.compilations"] = len(compiles)
    metrics["plan.step_self_s"] = sum(s(n("plan.step:")))
    metrics["plan.fused_step_self_s"] = sum(s(n("plan.fused:")))
    metrics["plan.lane_step_self_s"] = sum(s(n("plan.lane:")))
    metrics["arena.allocations"] = facts.get("arena_allocations", 0)
    metrics["arena.reuses"] = facts.get("arena_reuses", 0)

    # core.pipeline
    metrics["pipeline.fit_s"] = sum(d(n("pipeline.fit:")))
    metrics["pipeline.detect_s"] = sum(d(n("pipeline.detect:")))
    for name in BATCH_PIPELINES:
        metrics[f"pipeline.detect_batch_s.{name}"] = sum(
            d(n(f"pipeline.detect_batch:{name}")))

    # core.fleet / core.stream
    rounds = d(n("fleet.round:"))
    metrics["fleet.round_ms_p50"] = _pct(rounds, 50) * ms
    metrics["fleet.round_ms_p99"] = _pct(rounds, 99) * ms
    metrics["fleet.group_detect_ms_p50"] = _pct(
        d(n("fleet.group_detect:")), 50) * ms
    metrics["stream.reconcile_ms_p50"] = _pct(d(n("stream.reconcile:")), 50) * ms
    for key in ("fleet.coalesce_ratio", "fleet.plan_runs", "fleet.groups",
                "fleet.backlog_max", "scheduler.refits", "standby.hit_ratio"):
        metrics[key] = facts.get(key, 0)
    metrics["scheduler.refit_ms_p50"] = _pct(
        d(n("pipeline.fit:", under="scheduler.refits:")), 50) * ms

    # nn
    metrics["nn.fit_s"] = sum(d(n("nn.fit:")))
    metrics["nn.predict_s"] = sum(d(n("nn.predict:")))
    metrics["nn.predict_fused_s"] = sum(d(n("nn.predict_fused:")))

    # primitives (self time: nested nn and primitive spans excluded)
    metrics["primitives.fit_self_s"] = sum(s(n("primitive.fit:")))
    metrics["primitives.produce_self_s"] = sum(s(n("primitive.produce:")))
    metrics["primitives.update_self_s"] = sum(s(n("primitive.update:")))

    # whole run
    metrics["unattributed_s"] = index.unattributed(*wall)
    metrics["trace.overhead_frac"] = facts.get("overhead_frac", 0.0)
    metrics["loadgen.late_ms_p99"] = facts.get("late_ms_p99", 0.0)
    return metrics
