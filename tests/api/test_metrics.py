"""Tests for the Prometheus-compatible metrics registry and collectors."""

import math

import pytest

from repro.api.jobs import RequestCoalescer
from repro.api.metrics import (
    ExecutorTimingCollector,
    MetricsRegistry,
    coalescer_collector,
    fleet_collector,
    jobs_collector,
    parse_prometheus,
    work_queue_collector,
)


class TestFamilies:
    def test_counter_renders_and_parses(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", "Requests served")
        counter.inc(tenant="a", code="200")
        counter.inc(2, tenant="a", code="200")
        counter.inc(tenant="b", code="429")
        text = registry.render()
        assert "# TYPE requests_total counter" in text
        samples = parse_prometheus(text)
        assert samples[("requests_total",
                        (("code", "200"), ("tenant", "a")))] == 3
        assert samples[("requests_total",
                        (("code", "429"), ("tenant", "b")))] == 1

    def test_counter_rejects_decrease(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set(self):
        registry = MetricsRegistry()
        registry.gauge("depth", "Queue depth").set(4, queue="q1")
        registry.gauge("depth").set(2, queue="q1")
        samples = parse_prometheus(registry.render())
        assert samples[("depth", (("queue", "q1"),))] == 2

    def test_summary_quantiles_count_sum(self):
        registry = MetricsRegistry()
        summary = registry.summary("latency_seconds", "Latency")
        for value in range(1, 101):  # 1..100
            summary.observe(float(value), route="/x")
        samples = parse_prometheus(registry.render())
        labels = (("route", "/x"),)
        assert samples[("latency_seconds_count", labels)] == 100
        assert samples[("latency_seconds_sum", labels)] == 5050
        assert samples[("latency_seconds",
                        (("quantile", "0.5"),) + labels)] == 50
        assert samples[("latency_seconds",
                        (("quantile", "0.95"),) + labels)] == 95
        assert samples[("latency_seconds",
                        (("quantile", "0.99"),) + labels)] == 99

    def test_summary_reservoir_bounds_memory(self):
        registry = MetricsRegistry()
        summary = registry.summary("s", reservoir=10)
        for value in range(1000):
            summary.observe(float(value))
        count, total, quantiles = summary.labels().snapshot()
        assert count == 1000
        # Quantiles come from the latest window only.
        assert quantiles[0.5] >= 990

    def test_registry_returns_same_family(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_escaping_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(msg='say "hi"')
        text = registry.render()
        assert r'msg="say \"hi\""' in text


class TestParser:
    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_prometheus("not a sample")
        with pytest.raises(ValueError):
            parse_prometheus('name{unquoted=x} 1')

    def test_inf_values(self):
        assert parse_prometheus("m +Inf\n")[("m", ())] == math.inf


class TestCollectors:
    def test_coalescer_collector(self):
        coalescer = RequestCoalescer(lambda items: list(items), window=0)
        coalescer.submit("k", 1)
        registry = MetricsRegistry()
        registry.add_collector(coalescer_collector(coalescer))
        samples = parse_prometheus(registry.render())
        assert samples[("sintel_coalescer_requests_total", ())] == 1
        assert samples[("sintel_coalescer_executions_total", ())] == 1

    def test_fleet_collector_before_any_fleet_session(self):
        from repro.api.streams import StreamManager

        manager = StreamManager()
        registry = MetricsRegistry()
        registry.add_collector(fleet_collector(manager))
        samples = parse_prometheus(registry.render())
        assert samples[("sintel_fleet_streams", ())] == 0
        assert samples[("sintel_fleet_coalesce_ratio", ())] == 0
        for tier in ("hot", "warm", "cold"):
            assert samples[("sintel_fleet_lanes", (("tier", tier),))] == 0
        manager.shutdown()

    def test_fleet_collector_round_trips_scheduler_stats(self):
        from repro.api.streams import StreamManager
        from repro.data.synthetic import WorkloadGenerator

        data = WorkloadGenerator(seed=3, length=300).signal(0).to_array()
        manager = StreamManager()
        sessions = [
            manager.open("azure", data[:200], pipeline_options={"k": 4.0},
                         drift=False, fleet_group="metrics",
                         window_size=300, warmup=64)
            for _ in range(2)
        ]
        for session in sessions:
            manager.push(session.stream_id, data[200:260])
            manager.push(session.stream_id, data[260:300])
            assert manager.wait_idle(session.stream_id, timeout=30)

        registry = MetricsRegistry()
        registry.add_collector(fleet_collector(manager))
        samples = parse_prometheus(registry.render())
        assert samples[("sintel_fleet_streams", ())] == 2
        assert samples[("sintel_fleet_groups", ())] == 1
        assert samples[("sintel_fleet_pending_batches", ())] == 0
        assert samples[("sintel_fleet_rounds_total", ())] >= 1
        assert samples[("sintel_fleet_coalesce_ratio", ())] >= 1
        assert samples[("sintel_fleet_ingest_lag_p95_seconds", ())] >= 0
        # Occupancy histogram: every plan execution is accounted for.
        stats = manager.scheduler.stats()
        for size, count in stats["occupancy"].items():
            assert samples[("sintel_fleet_batch_occupancy_total",
                            (("lanes", size),))] == count
        lanes_by_tier = sum(
            samples[("sintel_fleet_lanes", (("tier", tier),))]
            for tier in ("hot", "warm", "cold"))
        assert lanes_by_tier == 2
        for field in ("hits", "misses", "evictions", "size"):
            assert ("sintel_fleet_standby_cache",
                    (("event", field),)) in samples
        manager.shutdown()

    def test_work_queue_collector(self, tmp_path):
        from repro.distributed.queue import WorkQueue

        queue = WorkQueue(str(tmp_path / "q.sqlite"))
        queue.put("mapped", {"payload": 1}, key="u1")
        queue.put("mapped", {"payload": 2}, key="u2")
        registry = MetricsRegistry()
        registry.add_collector(work_queue_collector(queue))
        samples = parse_prometheus(registry.render())
        assert samples[("sintel_work_queue_units", (("state", "ready"),))] == 2
        assert samples[("sintel_work_queue_dead_letters", ())] == 0

    def test_jobs_collector(self):
        from repro.api.jobs import JobManager

        manager = JobManager(max_workers=1)
        try:
            job = manager.submit("noop", lambda: None)
            manager.wait(job.job_id, timeout=10)
            registry = MetricsRegistry()
            registry.add_collector(jobs_collector(manager))
            samples = parse_prometheus(registry.render())
            assert samples[("sintel_jobs", (("status", "succeeded"),))] == 1
        finally:
            manager.shutdown()

    def test_executor_timing_collector(self):
        collector = ExecutorTimingCollector()
        collector({"scaler": {"elapsed": 0.5}, "model": {"elapsed": 1.0}})
        collector({"scaler": {"elapsed": 0.25}})
        registry = MetricsRegistry()
        registry.add_collector(collector.collect)
        samples = parse_prometheus(registry.render())
        assert samples[("sintel_executor_step_seconds_total",
                        (("step", "scaler"),))] == 0.75
        assert samples[("sintel_executor_step_runs_total",
                        (("step", "scaler"),))] == 2
        assert samples[("sintel_executor_step_runs_total",
                        (("step", "model"),))] == 1

    def test_timing_sink_feeds_collector_from_pipeline_runs(self):
        from repro.core.plan import set_timing_sink
        from repro.core.sintel import Sintel
        from repro.data import generate_signal

        collector = ExecutorTimingCollector()
        previous = set_timing_sink(collector)
        try:
            signal = generate_signal("m-1", length=120, n_anomalies=1,
                                     random_state=0)
            Sintel("azure").fit_detect(signal.to_array())
        finally:
            set_timing_sink(previous)
        registry = MetricsRegistry()
        registry.add_collector(collector.collect)
        samples = parse_prometheus(registry.render())
        step_samples = [key for key in samples
                        if key[0] == "sintel_executor_step_runs_total"]
        assert step_samples, "pipeline runs must feed the timing sink"

    def test_fused_chain_members_keep_their_step_labels(self):
        # azure's batch plan fuses its four steps into one chain; detect
        # and detect_many still report each step under its own name.
        from repro.core.plan import set_timing_sink
        from repro.core.sintel import Sintel
        from repro.data.synthetic import WorkloadGenerator

        data = WorkloadGenerator(seed=1, n_channels=1,
                                 length=200).signal(0).to_array()
        sintel = Sintel("azure")
        collector = ExecutorTimingCollector()
        previous = set_timing_sink(collector)
        try:
            sintel.fit_detect(data)
            sintel.detect_many([data, data])
        finally:
            set_timing_sink(previous)
        registry = MetricsRegistry()
        registry.add_collector(collector.collect)
        samples = parse_prometheus(registry.render())
        runs = {labels[0][1]: value for (name, labels), value in samples.items()
                if name == "sintel_executor_step_runs_total"}
        assert runs == {step["name"]: 3 for step in sintel.pipeline.steps}
