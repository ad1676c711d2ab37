"""Prometheus-compatible metrics for the API gateway.

One :class:`MetricsRegistry` per gateway owns three metric families —
:class:`Counter`, :class:`Gauge` and :class:`Summary` (count/sum plus
p50/p95/p99 quantiles over a bounded reservoir) — and renders them in the
Prometheus text exposition format served by ``GET /metrics``.

Beyond the gateway's own request counters and latency summaries, the
registry accepts *collectors*: callables invoked at render time that pull
the rich stats the stack already keeps — ``RequestCoalescer.stats()``
requests-vs-executions, stream session state, background jobs, and the
per-step plan timings observed through
:func:`repro.core.plan.set_timing_sink` — and restate them as gauges
and counters, so a single scrape covers every layer.

:func:`parse_prometheus` is the inverse used by the test suite and the CI
leg to assert the exposition is well-formed.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Callable, Dict, List, Tuple

__all__ = [
    "Counter", "Gauge", "Summary", "MetricsRegistry", "parse_prometheus",
    "ExecutorTimingCollector", "coalescer_collector",
    "stream_collector", "fleet_collector", "jobs_collector",
]

#: Quantiles exported by every summary.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _format_value(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        '%s="%s"' % (key, str(value).replace("\\", r"\\").replace('"', r"\""))
        for key, value in labels
    )
    return "{%s}" % inner


class _Metric:
    """Shared machinery: one named family, many labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help = help_text
        self._children: Dict[Tuple[Tuple[str, str], ...], object] = {}
        self._lock = threading.Lock()

    @staticmethod
    def _label_key(labels: dict) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted((str(k), str(v)) for k, v in labels.items()))

    def samples(self) -> List[Tuple[str, Tuple, float]]:
        raise NotImplementedError

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}",
                 f"# TYPE {self.name} {self.kind}"]
        for name, labels, value in self.samples():
            lines.append(f"{name}{_format_labels(labels)} "
                         f"{_format_value(value)}")
        return lines


class Counter(_Metric):
    """A monotonically increasing value, per label set."""

    kind = "counter"

    def labels(self, **labels) -> "Counter._Child":
        key = self._label_key(labels)
        with self._lock:
            if key not in self._children:
                self._children[key] = self._Child()
            return self._children[key]

    def inc(self, amount: float = 1.0, **labels) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels) -> float:
        key = self._label_key(labels)
        with self._lock:
            child = self._children.get(key)
        return child.total if child else 0.0

    def samples(self):
        with self._lock:
            children = list(self._children.items())
        return [(self.name, labels, child.total)
                for labels, child in children]

    class _Child:
        __slots__ = ("total", "_lock")

        def __init__(self):
            self.total = 0.0
            self._lock = threading.Lock()

        def inc(self, amount: float = 1.0) -> None:
            if amount < 0:
                raise ValueError("counters can only increase")
            with self._lock:
                self.total += amount


class Gauge(_Metric):
    """A value that can go up and down, per label set."""

    kind = "gauge"

    def labels(self, **labels) -> "Gauge._Child":
        key = self._label_key(labels)
        with self._lock:
            if key not in self._children:
                self._children[key] = self._Child()
            return self._children[key]

    def set(self, value: float, **labels) -> None:
        self.labels(**labels).set(value)

    def samples(self):
        with self._lock:
            children = list(self._children.items())
        return [(self.name, labels, child.value)
                for labels, child in children]

    class _Child:
        __slots__ = ("value",)

        def __init__(self):
            self.value = 0.0

        def set(self, value: float) -> None:
            self.value = float(value)


class Summary(_Metric):
    """count/sum plus quantiles over a bounded observation reservoir.

    Quantiles are computed over the most recent ``reservoir`` observations
    (a sliding window, not a decaying estimate) — accurate enough for
    p50/p95/p99 dashboards without unbounded memory.
    """

    kind = "summary"

    def __init__(self, name: str, help_text: str, reservoir: int = 2048):
        super().__init__(name, help_text)
        self.reservoir = reservoir

    def labels(self, **labels) -> "Summary._Child":
        key = self._label_key(labels)
        with self._lock:
            if key not in self._children:
                self._children[key] = self._Child(self.reservoir)
            return self._children[key]

    def observe(self, value: float, **labels) -> None:
        self.labels(**labels).observe(value)

    def samples(self):
        with self._lock:
            children = list(self._children.items())
        out = []
        for labels, child in children:
            count, total, quantiles = child.snapshot()
            for quantile, value in quantiles.items():
                out.append((self.name,
                            labels + (("quantile", str(quantile)),), value))
            out.append((self.name + "_count", labels, count))
            out.append((self.name + "_sum", labels, total))
        return out

    class _Child:
        __slots__ = ("count", "total", "_window", "_lock")

        def __init__(self, reservoir: int):
            self.count = 0
            self.total = 0.0
            self._window = deque(maxlen=reservoir)
            self._lock = threading.Lock()

        def observe(self, value: float) -> None:
            with self._lock:
                self.count += 1
                self.total += value
                self._window.append(value)

        def snapshot(self) -> Tuple[int, float, Dict[float, float]]:
            with self._lock:
                count, total = self.count, self.total
                window = sorted(self._window)
            quantiles = {}
            for quantile in SUMMARY_QUANTILES:
                if not window:
                    quantiles[quantile] = float("nan")
                else:
                    index = min(len(window) - 1,
                                int(math.ceil(quantile * len(window))) - 1)
                    quantiles[quantile] = window[max(0, index)]
            return count, total, quantiles


class MetricsRegistry:
    """Named metric families plus render-time collectors."""

    def __init__(self):
        self._metrics: Dict[str, _Metric] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    def _register(self, factory, name: str, *args, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory(name, *args, **kwargs)
                self._metrics[name] = metric
            return metric

    def counter(self, name: str, help_text: str = "") -> Counter:
        """Get or create the counter family ``name``."""
        return self._register(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        """Get or create the gauge family ``name``."""
        return self._register(Gauge, name, help_text)

    def summary(self, name: str, help_text: str = "",
                reservoir: int = 2048) -> Summary:
        """Get or create the summary family ``name``."""
        return self._register(Summary, name, help_text, reservoir)

    def add_collector(self, collector: Callable[["MetricsRegistry"], None]
                      ) -> None:
        """Register a callable run at every render to refresh gauges."""
        with self._lock:
            self._collectors.append(collector)

    def render(self) -> str:
        """The full Prometheus text exposition, collectors included."""
        with self._lock:
            collectors = list(self._collectors)
        for collector in collectors:
            collector(self)
        with self._lock:
            metrics = sorted(self._metrics.values(), key=lambda m: m.name)
        lines: List[str] = []
        for metric in metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[Tuple[str, Tuple], float]:
    """Parse a text exposition back into ``{(name, labels): value}``.

    Strict about the subset this module emits: every non-comment line must
    be ``name[{labels}] value``; raises ``ValueError`` otherwise. Used by
    the tests and the CI leg to prove ``/metrics`` stays machine-readable.
    """
    samples: Dict[Tuple[str, Tuple], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(" ", 1)
        except ValueError:
            raise ValueError(f"Malformed sample line: {line!r}")
        labels: Tuple = ()
        name = name_part
        if "{" in name_part:
            if not name_part.endswith("}"):
                raise ValueError(f"Malformed labels in: {line!r}")
            name, label_blob = name_part[:-1].split("{", 1)
            pairs = []
            for item in filter(None, label_blob.split(",")):
                key, _, raw = item.partition("=")
                if not raw.startswith('"') or not raw.endswith('"'):
                    raise ValueError(f"Unquoted label value in: {line!r}")
                pairs.append((key, raw[1:-1]))
            labels = tuple(sorted(pairs))
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"Malformed metric name in: {line!r}")
        if value_part == "+Inf":
            value = math.inf
        elif value_part == "-Inf":
            value = -math.inf
        else:
            value = float(value_part)
        samples[(name, labels)] = value
    return samples


# --------------------------------------------------------------------- #
# collectors over the existing stats surfaces
# --------------------------------------------------------------------- #
class ExecutorTimingCollector:
    """Aggregate per-step plan timings into counters.

    Install with :func:`repro.core.plan.set_timing_sink`; every plan run
    (pipeline or fleet round) then feeds its step timings here, and the
    collector exports ``sintel_executor_step_seconds_total`` /
    ``sintel_executor_step_runs_total`` per step name.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._seconds: Dict[str, float] = {}
        self._runs: Dict[str, int] = {}

    def __call__(self, timings: Dict[str, dict]) -> None:
        with self._lock:
            for step, timing in timings.items():
                elapsed = float(timing.get("elapsed", 0.0) or 0.0)
                self._seconds[step] = self._seconds.get(step, 0.0) + elapsed
                self._runs[step] = self._runs.get(step, 0) + 1

    def collect(self, registry: MetricsRegistry) -> None:
        seconds = registry.gauge(
            "sintel_executor_step_seconds_total",
            "Cumulative wall-clock seconds spent in each pipeline step")
        runs = registry.gauge(
            "sintel_executor_step_runs_total",
            "Times each pipeline step has executed")
        with self._lock:
            snapshot = [(step, self._seconds[step], self._runs[step])
                        for step in self._seconds]
        for step, total, count in snapshot:
            seconds.set(total, step=step)
            runs.set(count, step=step)


def coalescer_collector(coalescer) -> Callable[[MetricsRegistry], None]:
    """Export ``RequestCoalescer.stats()``: requests vs executions."""

    def collect(registry: MetricsRegistry) -> None:
        stats = coalescer.stats()
        registry.gauge(
            "sintel_coalescer_requests_total",
            "POST /detect requests seen by the coalescer",
        ).set(stats["requests"])
        registry.gauge(
            "sintel_coalescer_executions_total",
            "Underlying detect_batch passes executed",
        ).set(stats["executions"])
        registry.gauge(
            "sintel_coalescer_coalesced_requests_total",
            "Requests that shared a batch with at least one other",
        ).set(stats["coalesced_requests"])
        registry.gauge(
            "sintel_coalescer_largest_batch",
            "Largest coalesced batch so far",
        ).set(stats["largest_batch"])

    return collect


def stream_collector(streams) -> Callable[[MetricsRegistry], None]:
    """Export stream-session state: counts, lag, samples, retrains."""

    def collect(registry: MetricsRegistry) -> None:
        sessions = streams.list()
        by_status: Dict[str, int] = {}
        lag_batches = lag_samples = samples_seen = retrains = events = 0
        for session in sessions:
            by_status[session.status] = by_status.get(session.status, 0) + 1
            lag = session.lag
            lag_batches += lag["batches"]
            lag_samples += lag["samples"]
            state = session.runner.state()
            samples_seen += state["samples_seen"]
            retrains += state["retrains"]
            events += state["events_open"] + state["events_closed"]
        status_gauge = registry.gauge(
            "sintel_stream_sessions", "Stream sessions by status")
        for status in ("open", "closed", "error"):
            status_gauge.set(by_status.get(status, 0), status=status)
        registry.gauge("sintel_stream_lag_batches",
                       "Pushed batches not yet processed").set(lag_batches)
        registry.gauge("sintel_stream_lag_samples",
                       "Pushed samples not yet processed").set(lag_samples)
        registry.gauge("sintel_stream_samples_seen_total",
                       "Samples processed across sessions").set(samples_seen)
        registry.gauge("sintel_stream_retrains_total",
                       "Scheduler refits across sessions (drift, SLA "
                       "staleness or backfill)").set(retrains)
        registry.gauge("sintel_stream_events_total",
                       "Anomaly events emitted across sessions").set(events)

    return collect


def fleet_collector(streams) -> Callable[[MetricsRegistry], None]:
    """Export the fleet scheduler's batching and tiered-refit view.

    ``streams`` is a :class:`~repro.api.streams.StreamManager`; every
    stream session is a lane on its one scheduler, so every gauge renders
    as zero until a session exists.
    """

    def collect(registry: MetricsRegistry) -> None:
        occupancy = registry.gauge(
            "sintel_fleet_batch_occupancy_total",
            "Stream-batch plan executions by number of lanes batched")
        tier_depth = registry.gauge(
            "sintel_fleet_refit_queue_depth",
            "Lanes with a refit due, by tier, as of the last round")
        tier_refits = registry.gauge(
            "sintel_fleet_refits_total",
            "Background refits completed, by tier")
        tier_lanes = registry.gauge(
            "sintel_fleet_lanes", "Fleet lanes by current tier")
        coalesce = registry.gauge(
            "sintel_fleet_coalesce_ratio",
            "Mean lanes served per stream-batch plan execution")
        lag_p95 = registry.gauge(
            "sintel_fleet_ingest_lag_p95_seconds",
            "p95 time from ingest to the round that served the batch")
        stats = streams.scheduler.stats()
        scalars = {
            "sintel_fleet_streams": ("Lanes registered with the fleet",
                                     "streams"),
            "sintel_fleet_groups": ("Pipeline-identity fleet groups",
                                    "groups"),
            "sintel_fleet_rounds_total": ("Scheduling rounds executed",
                                          "rounds"),
            "sintel_fleet_pending_batches": (
                "Micro-batches ingested but not yet served", "pending"),
            "sintel_fleet_refit_errors_total": (
                "Background refits that raised", "refit_errors"),
            "sintel_fleet_refits_in_flight": (
                "Refits currently running", "refits_in_flight"),
        }
        for name, (help_text, key) in scalars.items():
            registry.gauge(name, help_text).set(stats[key])
        coalesce.set(stats["coalesce_ratio"])
        lag_p95.set(stats["ingest_lag_p95"])
        for size, count in stats["occupancy"].items():
            occupancy.set(count, lanes=size)
        for tier in stats["tiers"]:
            tier_depth.set(stats["refit_queue_depth"][tier], tier=tier)
            tier_refits.set(stats["refits_by_tier"][tier], tier=tier)
            tier_lanes.set(stats["tiers"][tier], tier=tier)
        standby = stats["standby"]
        standby_gauge = registry.gauge(
            "sintel_fleet_standby_cache",
            "Warm standby-pipeline cache counters")
        for field in ("hits", "misses", "evictions", "size"):
            standby_gauge.set(standby[field], event=field)

    return collect


def jobs_collector(jobs) -> Callable[[MetricsRegistry], None]:
    """Export background-job registry state by status."""

    def collect(registry: MetricsRegistry) -> None:
        by_status: Dict[str, int] = {}
        for job in jobs.list():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        gauge = registry.gauge("sintel_jobs", "Background jobs by status")
        for status in ("pending", "running", "succeeded", "failed"):
            gauge.set(by_status.get(status, 0), status=status)

    return collect
