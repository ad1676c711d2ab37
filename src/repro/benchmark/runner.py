"""The benchmarking framework (paper §3.4).

``benchmark`` runs every requested pipeline over every signal of every
requested dataset under identical conditions, recording both *quality*
(contextual precision / recall / F1 against the known anomalies) and
*computational performance* (training time, detect latency, peak memory).

Large runs are divisible and interruptible:

* **Sharding** — the deterministic (dataset, pipeline, signal) job list can
  be split across independent invocations with ``shard_index`` /
  ``shard_count`` (round-robin by position), so several CI runners or
  cluster nodes each take a disjoint slice;
* **Checkpointing** — with a ``checkpoint_dir``, every finished job is
  appended to the shard's JSONL checkpoint the moment it completes, and a
  re-run resumes from the checkpoint instead of recomputing finished jobs;
* **Merging** — :func:`repro.benchmark.results.merge_shard_checkpoints`
  combines the shard files back into one canonical ``BENCH_*.json``.

The ``python -m repro.benchmark`` CLI drives all three from the shell.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional, Sequence, Union

from repro.core.executor import ProcessExecutor, get_executor
from repro.core.plan import trace_memory
from repro.core.sintel import Sintel
from repro.data.datasets import load_benchmark_datasets
from repro.data.signal import Dataset, Signal
from repro.evaluation import overlapping_segment_scores, weighted_segment_scores
from repro.exceptions import BenchmarkError
from repro.benchmark.results import BenchmarkResult
from repro.pipelines import BENCHMARK_PIPELINES, list_pipelines

__all__ = [
    "benchmark",
    "run_pipeline_on_signal",
    "DEFAULT_PIPELINE_OPTIONS",
    "CHECKPOINT_VERSION",
    "shard_jobs",
]

#: Schema version of the shard checkpoint files.
CHECKPOINT_VERSION = 1

#: Fault-injection hook for the CI regression gate's self-test: when this
#: environment variable holds a float, every benchmark job sleeps that many
#: seconds and reports the delay in its ``fit_time`` — a synthetic
#: regression the ``bench-regression`` workflow proves it can catch.
INJECT_SLEEP_ENV = "REPRO_BENCH_INJECT_SLEEP"

#: Scaled-down pipeline options so the full benchmark runs on a laptop.
DEFAULT_PIPELINE_OPTIONS: Dict[str, dict] = {
    "lstm_dynamic_threshold": {"window_size": 50, "epochs": 5},
    "lstm_autoencoder": {"window_size": 50, "epochs": 5},
    "dense_autoencoder": {"window_size": 50, "epochs": 10},
    "tadgan": {"window_size": 50, "epochs": 3},
    "arima": {"window_size": 50},
    "azure": {},
}


def run_pipeline_on_signal(pipeline_name: str, signal: Signal,
                           pipeline_options: Optional[dict] = None,
                           method: str = "overlapping",
                           profile_memory: bool = True) -> dict:
    """Fit and detect one pipeline on one signal and score the result.

    Returns a benchmark record dictionary (see
    :class:`repro.benchmark.results.BenchmarkResult`).

    Memory profiling is nested-safe: when an outer ``tracemalloc`` trace is
    already active the peak is measured as a delta against the current
    snapshot and the outer trace is left running.
    """
    options = dict(DEFAULT_PIPELINE_OPTIONS.get(pipeline_name, {}))
    options.update(pipeline_options or {})
    record = {
        "pipeline": pipeline_name,
        "dataset": signal.metadata.get("dataset", "unknown"),
        "signal": signal.name,
        "status": "ok",
    }
    data = signal.to_array()

    try:
        sintel = Sintel(pipeline_name, **options)

        with trace_memory(profile_memory) as probe:
            started = time.perf_counter()
            sintel.fit(data)
            record["fit_time"] = time.perf_counter() - started

            started = time.perf_counter()
            detected = sintel.detect(data)
            record["detect_time"] = time.perf_counter() - started
        record["memory"] = probe.memory if profile_memory else 0

        if method == "weighted":
            data_range = (float(data[0, 0]), float(data[-1, 0]))
            scores = weighted_segment_scores(signal.anomalies, detected, data_range)
        else:
            scores = overlapping_segment_scores(signal.anomalies, detected)
        record.update({
            "f1": scores["f1"],
            "precision": scores["precision"],
            "recall": scores["recall"],
            "n_detected": len(detected),
            "n_truth": len(signal.anomalies),
        })
    except Exception as error:  # noqa: BLE001 - a failing pipeline is a result
        record.update({
            "status": "error",
            "error": str(error),
            "fit_time": 0.0,
            "detect_time": 0.0,
            "memory": 0,
            "f1": 0.0,
            "precision": 0.0,
            "recall": 0.0,
        })
    return record


def _execute_benchmark_job(job: dict) -> dict:
    """Run one benchmark job described by a plain-data dictionary.

    Module-level and pickle-friendly on purpose: this is the function the
    benchmark fans out through ``Executor.map``, and the process backend
    ships it (and the job dict) to pool workers.
    """
    signal = Signal(
        name=job["signal_name"],
        timestamps=job["timestamps"],
        values=job["values"],
        anomalies=job["anomalies"],
        metadata=job["metadata"],
    )
    record = run_pipeline_on_signal(
        job["pipeline"], signal,
        pipeline_options=job["pipeline_options"],
        method=job["method"],
        profile_memory=job["profile_memory"],
    )
    record["dataset"] = job["dataset"]

    delay = os.environ.get(INJECT_SLEEP_ENV)
    if delay:  # pragma: no cover - exercised by the CI gate self-test
        delay = float(delay)
        time.sleep(delay)
        record["fit_time"] += delay

    if job["verbose"]:  # pragma: no cover - console output
        # Printed on completion so long sweeps show live progress (lines
        # may arrive out of submission order with concurrent executors).
        print(
            f"{job['pipeline']:<24} {job['dataset']:<8} {job['signal_name']:<28} "
            f"f1={record['f1']:.3f} fit={record['fit_time']:.1f}s "
            f"status={record['status']}"
        )
    return record


def job_key(dataset: str, pipeline: str, signal: str) -> str:
    """Stable identity of one benchmark job inside a run."""
    return f"{dataset}::{pipeline}::{signal}"


def shard_jobs(n_jobs: int, shard_index: int, shard_count: int) -> list:
    """Round-robin positions of ``shard_index`` out of ``shard_count``.

    Every job position lands in exactly one shard, so the union over all
    shard indices is the full run and any two shards are disjoint.
    """
    if shard_count < 1:
        raise BenchmarkError("shard_count must be at least 1")
    if not 0 <= shard_index < shard_count:
        raise BenchmarkError(
            f"shard_index must be in [0, {shard_count}), got {shard_index}"
        )
    return [position for position in range(n_jobs)
            if position % shard_count == shard_index]


# --------------------------------------------------------------------------- #
# shard checkpoints
# --------------------------------------------------------------------------- #
def _checkpoint_path(checkpoint_dir: str, shard_index: int,
                     shard_count: int) -> str:
    return os.path.join(
        checkpoint_dir, f"shard-{shard_index:03d}-of-{shard_count:03d}.jsonl"
    )


def _checkpoint_header(method: str, shard_index: int, shard_count: int,
                       pipelines: Sequence[str], dataset_names: Sequence[str],
                       scale: float, random_state: int,
                       max_signals: Optional[int], n_jobs: int) -> dict:
    # Everything that determines the shard's job list and the data each job
    # runs on is pinned here: a resume whose configuration differs in any
    # of these would silently mix records computed on different data, so
    # ``_load_checkpoint`` rejects it. ``n_jobs`` additionally lets the
    # merge step verify each shard finished (records == jobs announced).
    return {
        "kind": "header",
        "version": CHECKPOINT_VERSION,
        "method": method,
        "shard_index": shard_index,
        "shard_count": shard_count,
        "pipelines": list(pipelines),
        "datasets": sorted(dataset_names),
        "scale": scale,
        "random_state": random_state,
        "max_signals": max_signals,
        "n_jobs": n_jobs,
    }


def _load_checkpoint(path: str, header: dict) -> Dict[str, dict]:
    """Read finished job records from a shard checkpoint file.

    Returns ``{job_key: record}``. A torn trailing line (the run was killed
    mid-append) is dropped — that job is simply recomputed. The stored
    header must match the current run configuration — resuming a checkpoint
    written by a different method, shard layout or pipeline selection would
    silently mix incompatible records, so it raises instead.
    """
    from repro.benchmark.results import read_checkpoint_lines

    completed: Dict[str, dict] = {}
    for entry in read_checkpoint_lines(path):
        if entry.get("kind") == "header":
            stored = {key: entry.get(key) for key in header if key != "kind"}
            expected = {key: value for key, value in header.items()
                        if key != "kind"}
            if stored != expected:
                raise BenchmarkError(
                    f"Checkpoint {path} was written by a different run "
                    f"configuration ({stored} != {expected}); pass "
                    "resume=False (or delete the file) to start over"
                )
        elif entry.get("kind") == "record":
            completed[entry["key"]] = entry["record"]
    return completed


def benchmark(pipelines: Optional[Sequence[str]] = None,
              datasets: Optional[Union[Dict[str, Dataset], Sequence[str]]] = None,
              method: str = "overlapping",
              scale: float = 0.02,
              max_signals: Optional[int] = None,
              pipeline_options: Optional[Dict[str, dict]] = None,
              random_state: int = 0,
              profile_memory: bool = True,
              verbose: bool = False,
              workers: int = 1,
              executor=None,
              shard_index: Optional[int] = None,
              shard_count: Optional[int] = None,
              checkpoint_dir: Optional[str] = None,
              resume: bool = True) -> BenchmarkResult:
    """Run the full quality + computational benchmark (Table 3 / Figure 7a).

    Args:
        pipelines: pipeline names (defaults to the paper's six benchmark
            pipelines).
        datasets: mapping of name -> :class:`Dataset`, a list of dataset
            names, or ``None`` for all three synthetic datasets.
        method: contextual scoring method (``"overlapping"`` as in Table 3,
            or ``"weighted"``).
        scale: dataset scale when datasets are built by name.
        max_signals: optional cap on signals per dataset (keeps runs short).
        pipeline_options: per-pipeline spec-factory overrides.
        random_state: seed for dataset construction.
        profile_memory: record each job's peak memory with
            ``tracemalloc``. Every job runs alone in its process (the
            caller, or a pool worker that owns its trace), so per-job
            peaks are exact.
        verbose: print one line per (pipeline, signal).
        workers: number of concurrent (pipeline, signal) jobs. Without an
            ``executor``, ``1`` runs the jobs in the caller and ``N > 1``
            fans them out over a
            :class:`~repro.core.executor.ProcessExecutor` of ``N``
            processes. An executor named ``"process"`` always gets
            ``workers`` processes, ``1`` included.
        executor: executor name, class or instance for the job fan-out:
            ``"serial"`` runs the jobs in order in the caller, and
            ``"process"`` schedules them across a multiprocessing pool of
            ``workers`` processes. A pool worker that dies (``SIGKILL``,
            OOM) breaks the pool and the run raises
            ``BrokenProcessPool``; with a ``checkpoint_dir``, re-running
            resumes from the jobs that finished. Each job runs its
            pipeline's steps in order in the process that runs the job.
        shard_index / shard_count: run only a deterministic round-robin
            slice of the job list. Both must be given together; distinct
            indices partition the run, so N invocations with
            ``shard_count=N`` cover every job exactly once.
        checkpoint_dir: directory for per-shard JSONL checkpoints. Every
            finished job is appended (and flushed) as it completes, so an
            interrupted run loses at most the jobs still in flight.
        resume: when a checkpoint for this shard exists, skip its finished
            jobs and only run the remainder (default). ``False`` discards
            the existing checkpoint and recomputes the whole shard.

    Returns:
        A :class:`BenchmarkResult` with one record per (pipeline, signal)
        of this shard (resumed records included), in deterministic
        (dataset, pipeline, signal) submission order regardless of worker
        count.
    """
    if method not in ("overlapping", "weighted"):
        raise BenchmarkError(f"Unknown evaluation method {method!r}")
    if workers < 1:
        raise BenchmarkError("workers must be at least 1")
    if (shard_index is None) != (shard_count is None):
        raise BenchmarkError(
            "shard_index and shard_count must be provided together"
        )
    if executor == ProcessExecutor.name or (executor is None and workers > 1):
        job_executor = ProcessExecutor(max_workers=workers)
    else:
        job_executor = get_executor(executor)

    pipelines = list(pipelines) if pipelines else list(BENCHMARK_PIPELINES)
    unknown = set(pipelines) - set(list_pipelines())
    if unknown:
        raise BenchmarkError(f"Unknown pipelines requested: {sorted(unknown)}")

    if datasets is None or (isinstance(datasets, (list, tuple))
                            and all(isinstance(d, str) for d in datasets)):
        names = list(datasets) if datasets else None
        datasets = load_benchmark_datasets(scale=scale, random_state=random_state,
                                           names=names)
    elif not isinstance(datasets, dict):
        raise BenchmarkError(
            "datasets must be None, a list of names, or a {name: Dataset} mapping"
        )

    pipeline_options = pipeline_options or {}
    result = BenchmarkResult(method=method)

    # Deterministic job list: dataset -> pipeline -> signal, exactly the
    # order the serial loops used. ``Executor.map`` preserves item order,
    # so the records come back identically ordered for any worker count —
    # and sharding slices this same list, so shard membership is stable
    # across invocations.
    jobs = []
    for dataset_name, dataset in datasets.items():
        signals = list(dataset)
        if max_signals is not None:
            signals = signals[:max_signals]
        for pipeline_name in pipelines:
            for signal in signals:
                jobs.append({
                    "key": job_key(dataset_name, pipeline_name, signal.name),
                    "dataset": dataset_name,
                    "pipeline": pipeline_name,
                    "signal_name": signal.name,
                    "timestamps": signal.timestamps,
                    "values": signal.values,
                    "anomalies": signal.anomalies,
                    "metadata": signal.metadata,
                    "pipeline_options": pipeline_options.get(pipeline_name),
                    "method": method,
                    "profile_memory": profile_memory,
                    "verbose": verbose,
                })

    if shard_count is not None:
        jobs = [jobs[position]
                for position in shard_jobs(len(jobs), shard_index, shard_count)]

    # Resume: load this shard's checkpoint and drop finished jobs.
    completed: Dict[str, dict] = {}
    checkpoint_file = None
    if checkpoint_dir is not None:
        os.makedirs(checkpoint_dir, exist_ok=True)
        path = _checkpoint_path(checkpoint_dir, shard_index or 0,
                                shard_count or 1)
        header = _checkpoint_header(
            method, shard_index or 0, shard_count or 1, pipelines,
            dataset_names=list(datasets), scale=scale,
            random_state=random_state, max_signals=max_signals,
            n_jobs=len(jobs),
        )
        if resume and os.path.exists(path):
            completed = _load_checkpoint(path, header)
        # Rewrite from the parsed state (repairing any torn trailing line
        # from an interrupted run), atomically: the old checkpoint stays
        # intact until the replacement is fully on disk, then new records
        # are appended to the replacement.
        staging = path + ".tmp"
        with open(staging, "w") as handle:
            handle.write(json.dumps(header) + "\n")
            for key, record in completed.items():
                handle.write(
                    json.dumps({"kind": "record", "key": key,
                                "record": record}, default=float) + "\n")
        os.replace(staging, path)
        checkpoint_file = open(path, "a")

    pending = [job for job in jobs if job["key"] not in completed]

    def checkpoint(index: int, record: dict) -> None:
        if checkpoint_file is None:
            return
        entry = {"kind": "record", "key": pending[index]["key"],
                 "record": record}
        checkpoint_file.write(json.dumps(entry, default=float) + "\n")
        checkpoint_file.flush()

    try:
        records = job_executor.map(_execute_benchmark_job, pending,
                                   progress=checkpoint)
    finally:
        if checkpoint_file is not None:
            checkpoint_file.close()

    fresh = {job["key"]: record for job, record in zip(pending, records)}
    for job in jobs:
        result.add(fresh.get(job["key"]) or completed[job["key"]])
    return result
