"""Tests for the benchmark runner."""

import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.benchmark import DEFAULT_PIPELINE_OPTIONS, benchmark, run_pipeline_on_signal
from repro.benchmark import runner
from repro.benchmark.results import read_checkpoint_lines
from repro.core.executor import MP_START_ENV
from repro.data import Dataset, generate_signal
from repro.exceptions import BenchmarkError, ExecutorError


FAST = ["arima", "azure"]


@pytest.fixture(scope="module")
def tiny_datasets():
    dataset = Dataset("NAB", metadata={"scale": 0.01})
    for i in range(2):
        dataset.add_signal(generate_signal(
            f"nab-{i}", length=250, n_anomalies=2, random_state=20 + i,
            flavour="traffic", metadata={"dataset": "NAB"},
        ))
    return {"NAB": dataset}


class TestRunPipelineOnSignal:
    def test_record_fields(self, small_signal):
        record = run_pipeline_on_signal("arima", small_signal,
                                        pipeline_options={"window_size": 30})
        assert record["status"] == "ok"
        for field in ("f1", "precision", "recall", "fit_time", "detect_time",
                      "memory", "n_detected", "n_truth"):
            assert field in record
        assert record["pipeline"] == "arima"

    def test_failure_recorded_not_raised(self, small_signal):
        record = run_pipeline_on_signal(
            "arima", small_signal,
            pipeline_options={"window_size": 10_000_000},
        )
        # The window shrinks automatically, so force a failure differently:
        # an impossible ARIMA order on a short signal.
        record = run_pipeline_on_signal(
            "arima", small_signal.slice(0, 30),
            pipeline_options={"window_size": 20, "p": 50},
        )
        assert record["status"] == "error"
        assert record["f1"] == 0.0
        assert "error" in record

    def test_memory_profiling_optional(self, small_signal):
        record = run_pipeline_on_signal("azure", small_signal, profile_memory=False)
        assert record["memory"] == 0

    def test_memory_profiling_preserves_outer_trace(self, small_signal):
        import tracemalloc

        tracemalloc.start()
        try:
            record = run_pipeline_on_signal("azure", small_signal,
                                            profile_memory=True)
            assert tracemalloc.is_tracing()
            assert record["memory"] >= 0
        finally:
            tracemalloc.stop()


class TestBenchmark:
    def test_benchmark_on_provided_datasets(self, tiny_datasets):
        result = benchmark(pipelines=FAST, datasets=tiny_datasets,
                           profile_memory=False)
        assert len(result) == len(FAST) * 2
        assert set(result.pipelines) == set(FAST)
        assert result.datasets == ["NAB"]

    def test_benchmark_builds_datasets_by_name(self):
        result = benchmark(pipelines=["azure"], datasets=["NAB"], scale=0.02,
                           max_signals=1, profile_memory=False)
        assert len(result) == 1

    def test_max_signals_caps_work(self, tiny_datasets):
        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           max_signals=1, profile_memory=False)
        assert len(result) == 1

    def test_unknown_pipeline_rejected(self, tiny_datasets):
        with pytest.raises(BenchmarkError):
            benchmark(pipelines=["definitely-not-real"], datasets=tiny_datasets)

    def test_unknown_method_rejected(self, tiny_datasets):
        with pytest.raises(BenchmarkError):
            benchmark(pipelines=FAST, datasets=tiny_datasets, method="vibes")

    def test_invalid_datasets_argument_rejected(self):
        with pytest.raises(BenchmarkError):
            benchmark(pipelines=FAST, datasets=42)

    def test_weighted_method_supported(self, tiny_datasets):
        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           method="weighted", profile_memory=False)
        assert result.method == "weighted"
        assert all(0.0 <= record["f1"] <= 1.0 for record in result.records)

    def test_default_options_cover_benchmark_pipelines(self):
        from repro.pipelines import BENCHMARK_PIPELINES

        assert set(DEFAULT_PIPELINE_OPTIONS) == set(BENCHMARK_PIPELINES)


class TestBenchmarkFanOut:
    TIMING_FIELDS = ("fit_time", "detect_time", "memory")

    def _strip_timings(self, records):
        return [{key: value for key, value in record.items()
                 if key not in self.TIMING_FIELDS}
                for record in records]

    def test_workers_match_serial_records(self, tiny_datasets):
        # Acceptance criterion: workers=4 returns records equal to the
        # serial run up to timing fields, in the same deterministic order.
        serial = benchmark(pipelines=FAST, datasets=tiny_datasets,
                           profile_memory=False)
        parallel = benchmark(pipelines=FAST, datasets=tiny_datasets,
                             profile_memory=False, workers=4)
        assert self._strip_timings(parallel.records) == \
            self._strip_timings(serial.records)

    def test_workers_with_memory_profiling(self, tiny_datasets):
        # Each pool worker owns its trace, so every job measures a peak.
        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           profile_memory=True, workers=2)
        assert len(result) == 2
        assert all(record["memory"] > 0 for record in result.records)

    def test_explicit_executor(self, tiny_datasets):
        from repro.core.executor import ProcessExecutor

        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           profile_memory=False,
                           executor=ProcessExecutor(max_workers=2))
        assert len(result) == 2

    def test_invalid_workers_rejected(self, tiny_datasets):
        with pytest.raises(BenchmarkError):
            benchmark(pipelines=["azure"], datasets=tiny_datasets, workers=0)

    def test_unknown_executor_rejected_before_any_checkpoint(
            self, tiny_datasets, tmp_path):
        with pytest.raises(ExecutorError, match="Unknown executor 'threaded'"):
            benchmark(pipelines=["azure"], datasets=tiny_datasets,
                      executor="threaded", workers=2,
                      checkpoint_dir=str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @staticmethod
    def _spy_on_pools(monkeypatch, pool):
        """Record the size of every ``pool`` the executors open from now."""
        from repro.core import executor as executors

        opened = []
        real_pool = getattr(executors, pool)

        def spy(*args, max_workers=None, **kwargs):
            opened.append(max_workers)
            return real_pool(*args, max_workers=max_workers, **kwargs)

        monkeypatch.setattr(executors, pool, spy)
        return opened

    @pytest.mark.parametrize("executor,pool", [
        ("process", "ProcessPoolExecutor"),
    ])
    def test_named_executor_opens_a_pool_of_workers(
            self, tiny_datasets, monkeypatch, executor, pool):
        # workers=1 is a pool size like any other, not "use the default".
        opened = self._spy_on_pools(monkeypatch, pool)
        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           profile_memory=False, executor=executor,
                           workers=1)
        assert len(result) == 2
        assert opened == [1]

    def test_workers_without_executor_open_a_process_pool(
            self, tiny_datasets, monkeypatch):
        opened = self._spy_on_pools(monkeypatch, "ProcessPoolExecutor")
        result = benchmark(pipelines=["azure"], datasets=tiny_datasets,
                           profile_memory=False, workers=2)
        assert len(result) == 2
        assert opened == [2]

    def test_killed_process_worker_resumes_from_checkpoint(
            self, tiny_datasets, monkeypatch, tmp_path):
        # A pool worker SIGKILLed mid-sweep breaks the pool; the shard
        # checkpoint still holds every job that finished, and a resumed
        # run completes the sweep with the records of an uninterrupted one.
        serial = benchmark(pipelines=FAST, datasets=tiny_datasets,
                           profile_memory=False)
        # Forked workers inherit the patched runner below.
        monkeypatch.setenv(MP_START_ENV, "fork")
        marker = tmp_path / "killed"
        real = runner.run_pipeline_on_signal

        def kill_once(pipeline_name, sig, *args, **kwargs):
            # Jobs run arima over both signals, then azure: the third job
            # is only taken once a worker has finished one of the first two.
            if (pipeline_name, sig.name) == ("azure", "nab-0") \
                    and not marker.exists():
                marker.touch()
                os.kill(os.getpid(), signal.SIGKILL)
            return real(pipeline_name, sig, *args, **kwargs)

        monkeypatch.setattr(runner, "run_pipeline_on_signal", kill_once)
        checkpoints = tmp_path / "checkpoints"
        common = dict(pipelines=FAST, datasets=tiny_datasets,
                      profile_memory=False, executor="process", workers=2,
                      checkpoint_dir=str(checkpoints))
        with pytest.raises(BrokenProcessPool):
            benchmark(**common)
        assert marker.exists()

        [path] = checkpoints.glob("shard-*.jsonl")
        entries = read_checkpoint_lines(str(path))
        assert entries[0]["kind"] == "header"
        assert len(entries) - 1 < len(serial)

        resumed = benchmark(**common)
        assert self._strip_timings(resumed.records) == \
            self._strip_timings(serial.records)
