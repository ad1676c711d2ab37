"""Streaming benchmark: latency, throughput and batch/stream parity.

``benchmark_streaming`` measures the streaming execution path against the
equivalent batch detection under identical conditions: for every
(pipeline, signal) combination it fits the pipeline once, runs a full
batch ``detect``, then replays the same signal through a
:class:`~repro.core.stream.StreamRunner` micro-batch by micro-batch,
recording per-batch latency percentiles, sustained sample throughput, and
whether the stream's final anomaly events match the batch intervals within
an edge tolerance. Stream sessions and their emitted anomalies can be
persisted through :mod:`repro.db` by passing an explorer.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.sintel import Sintel
from repro.core.stream import StreamRunner
from repro.data.signal import Signal
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import BenchmarkError

__all__ = [
    "benchmark_fleet_streaming",
    "benchmark_streaming",
    "default_streaming_signals",
    "intervals_match",
]


def intervals_match(reference: Sequence[Tuple], candidate: Sequence[Tuple],
                    tolerance: float) -> bool:
    """Whether two interval lists agree within an edge tolerance.

    Every reference interval must be matched 1:1 by a candidate interval
    whose start and end each differ by at most ``tolerance`` timestamp
    units, and no candidate may remain unmatched.
    """
    reference = [tuple(map(float, interval[:2])) for interval in reference]
    candidate = [tuple(map(float, interval[:2])) for interval in candidate]
    if len(reference) != len(candidate):
        return False
    remaining = list(candidate)
    for start, end in reference:
        matched = None
        for i, (c_start, c_end) in enumerate(remaining):
            if abs(c_start - start) <= tolerance and abs(c_end - end) <= tolerance:
                matched = i
                break
        if matched is None:
            return False
        remaining.pop(matched)
    return True


def default_streaming_signals(length: int = 600, n_anomalies: int = 3,
                              random_state: int = 0) -> List[Signal]:
    """Three labeled signals from the deterministic workload generator.

    Each composes seasonality x trend x regime shifts with collective
    anomalies injected and ground-truth labels attached — the same
    :class:`~repro.data.synthetic.WorkloadGenerator` plane the quality CI
    leg scores against, sized for quick streaming sweeps. Identical seeds
    reproduce identical signals on every platform and start method.
    """
    generator = WorkloadGenerator(
        seed=random_state, n_channels=1, length=length,
        anomalies_per_signal=n_anomalies, taxonomy=("collective",),
    )
    return [generator.signal(index, name=f"stream-{index:02d}")
            for index in range(3)]


def run_stream_on_signal(pipeline_name: str, signal: Signal,
                         batch_size: int = 50,
                         window_size: Optional[int] = None,
                         warmup: int = 64,
                         tolerance: Optional[float] = None,
                         pipeline_options: Optional[dict] = None,
                         explorer=None) -> dict:
    """Stream one signal through one pipeline and compare against batch.

    Returns a record with per-batch latency statistics, throughput, the
    equivalent batch detect time, and a ``parity`` flag. The stream window
    defaults to the full signal length so the comparison measures pure
    incremental-execution overhead against an identical detection problem.
    """
    data = signal.to_array()
    if window_size is None:
        window_size = len(data)
    if tolerance is None:
        tolerance = float(batch_size)
    record = {
        "pipeline": pipeline_name,
        "signal": signal.name,
        "batch_size": batch_size,
        "window_size": window_size,
        "status": "ok",
    }
    try:
        sintel = Sintel(pipeline_name, **(pipeline_options or {}))
        started = time.perf_counter()
        sintel.fit(data)
        record["fit_time"] = time.perf_counter() - started

        started = time.perf_counter()
        batch_anomalies = sintel.detect(data)
        record["batch_detect_time"] = time.perf_counter() - started

        db_id = None
        if explorer is not None:
            db_id = explorer.add_stream(pipeline_name, signal_id=signal.name,
                                        benchmark=True)
        on_event = None
        if db_id is not None:
            on_event = lambda event: explorer.add_stream_event(db_id, event)

        runner = StreamRunner(
            sintel.pipeline, window_size=window_size, warmup=warmup,
            drift_detector=None, retrain=False, on_event=on_event,
        )
        latencies = []
        for start in range(0, len(data), batch_size):
            chunk = data[start:start + batch_size]
            chunk_started = time.perf_counter()
            runner.send(chunk)
            latencies.append(time.perf_counter() - chunk_started)
        runner.close()
        stream_anomalies = runner.anomalies()
        if explorer is not None and db_id is not None:
            state = runner.state()
            explorer.end_stream(db_id, samples_seen=state["samples_seen"],
                                events=state["events_closed"])

        latencies = np.asarray(latencies)
        total = float(np.sum(latencies))
        record.update({
            "n_batches": len(latencies),
            "latency_mean": float(np.mean(latencies)),
            "latency_p95": float(np.percentile(latencies, 95)),
            "latency_max": float(np.max(latencies)),
            "stream_total_time": total,
            "throughput": len(data) / total if total > 0 else float("inf"),
            "n_batch_anomalies": len(batch_anomalies),
            "n_stream_events": len(stream_anomalies),
            "parity": intervals_match(batch_anomalies, stream_anomalies,
                                      tolerance),
        })
    except Exception as error:  # noqa: BLE001 - a failing pipeline is a result
        record.update({
            "status": "error",
            "error": str(error),
            "parity": False,
        })
    return record


def run_fleet_at_scale(pipeline_name: str, n_streams: int,
                       length: int = 400, batch_size: int = 50,
                       window_size: int = 200, warmup: int = 100,
                       exact: bool = False, precision=None,
                       coalesce: bool = True,
                       pipeline_options: Optional[dict] = None,
                       random_state: int = 0) -> dict:
    """Fleet vs. ``n_streams`` independent runners, same run, same data.

    Fits ``pipeline_name`` once, registers ``n_streams`` fleet lanes over
    the fitted pipeline, and builds one independent
    :class:`~repro.core.stream.StreamRunner` per stream over a deep copy
    of the same fitted state. Both planes then replay identical per-stream
    micro-batch schedules, three times over a new fleet and new runners;
    the record carries each plane's fastest replay, the speedup ratio,
    the fleet's coalescing stats, and a parity flag that holds when every
    replay agrees — bitwise event equality on the exact plane,
    tolerance-banded ``(start, end, severity)`` agreement on the fused
    plane.
    """
    from repro.benchmark.batch import anomalies_within_tolerance
    from repro.core.fleet import FleetStreamRunner

    generator = WorkloadGenerator(
        seed=random_state, n_channels=1, length=length,
        anomalies_per_signal=2, taxonomy=("collective",),
    )
    train = generator.signal(0, name="fleet-train").to_array()
    replays = [generator.signal(10 + index).to_array()
               for index in range(n_streams)]

    record = {
        "pipeline": pipeline_name,
        "n_streams": n_streams,
        "batch_size": batch_size,
        "window_size": window_size,
        "exact": exact,
        "coalesce": coalesce,
        "status": "ok",
    }
    try:
        sintel = Sintel(pipeline_name, **(pipeline_options or {}))
        started = time.perf_counter()
        sintel.fit(train)
        record["fit_time"] = time.perf_counter() - started

        schedule = [
            [replay[start:start + batch_size]
             for start in range(0, len(replay), batch_size)]
            for replay in replays
        ]
        n_rounds = max(len(batches) for batches in schedule)

        independent_time = fleet_time = float("inf")
        parity = True
        for _ in range(3):
            fleet = FleetStreamRunner(exact=exact, precision=precision,
                                      max_streams=max(n_streams, 1))
            # Without coalescing every lane serves its own copy of the
            # fitted pipeline, so each is a group of one that runs its own
            # plan.
            lanes = [
                fleet.add_stream(sintel.pipeline if coalesce
                                 else copy.deepcopy(sintel.pipeline),
                                 stream_id=f"bench-{index}",
                                 window_size=window_size, warmup=warmup,
                                 drift_detector=None)
                for index in range(n_streams)
            ]
            independents = [
                StreamRunner(copy.deepcopy(sintel.pipeline),
                             window_size=window_size, warmup=warmup,
                             drift_detector=None, retrain=False)
                for _ in range(n_streams)
            ]

            started = time.perf_counter()
            for round_index in range(n_rounds):
                for runner, batches in zip(independents, schedule):
                    if round_index < len(batches):
                        runner.send(batches[round_index])
            independent_time = min(independent_time,
                                   time.perf_counter() - started)

            started = time.perf_counter()
            for round_index in range(n_rounds):
                for lane, batches in zip(lanes, schedule):
                    if round_index < len(batches):
                        fleet.ingest(lane.lane_id, batches[round_index])
                fleet.run_round()
            fleet_time = min(fleet_time, time.perf_counter() - started)

            fleet_events = [lane.runner.anomalies() for lane in lanes]
            independent_events = [runner.anomalies()
                                  for runner in independents]
            if exact:
                parity &= fleet_events == independent_events
            else:
                parity &= anomalies_within_tolerance(fleet_events,
                                                     independent_events)
            stats = fleet.stats()
            fleet.close()
            for runner in independents:
                runner.close()

        record.update({
            "n_rounds": n_rounds,
            "independent_time": independent_time,
            "fleet_time": fleet_time,
            "speedup": (independent_time / fleet_time
                        if fleet_time > 0 else float("inf")),
            "coalesce_ratio": stats["coalesce_ratio"],
            "occupancy": stats["occupancy"],
            "plan_runs": stats["plan_runs"],
            "n_events": sum(len(events) for events in fleet_events),
            "parity": parity,
        })
    except Exception as error:  # noqa: BLE001 - a failing scale is a result
        record.update({
            "status": "error",
            "error": str(error),
            "parity": False,
        })
    return record


def benchmark_fleet_streaming(pipeline_name: str = "dense_autoencoder",
                              stream_counts: Sequence[int] = (1, 8, 32),
                              length: int = 400, batch_size: int = 50,
                              window_size: int = 200, warmup: int = 100,
                              exact: bool = False, precision=None,
                              coalesce: bool = True,
                              pipeline_options: Optional[dict] = None,
                              random_state: int = 0,
                              verbose: bool = False) -> dict:
    """Cross-stream micro-batch vectorization sweep over fleet sizes.

    For every count in ``stream_counts`` runs
    :func:`run_fleet_at_scale` — the fleet plane and the equivalent
    independent per-stream runners replay identical workloads in the same
    process, so the speedup ratio is same-run and machine-independent.

    Args:
        pipeline_name: pipeline to serve (default: the dense autoencoder,
            whose stateless NN forward dominates and so shows the
            cross-stream batching win; ``azure`` streams too fast for the
            batching to matter).
        stream_counts: fleet sizes to sweep.
        length / batch_size / window_size / warmup: per-stream workload
            shape (rows, micro-batch rows, stream window, warmup rows).
        exact: ``True`` pins the bitwise-identical exact plane (parity
            gate); ``False`` opts into the fused single-precision plane
            (throughput gate).
        precision: optional fused-plane precision override.
        coalesce: ``False`` disables cross-stream batching — the negative
            control; each lane then serves its own deep copy of the fitted
            pipeline, so it forms a group of one and runs its own
            stream-batch plan.
        pipeline_options: spec-factory overrides for the pipeline.
        random_state: workload seed.
        verbose: print one line per fleet size.

    Returns:
        ``{"records": [...], "summary": {...}}`` with per-scale speedup
        and parity plus fleet-level aggregates.
    """
    if batch_size < 1:
        raise BenchmarkError("batch_size must be at least 1")
    if not stream_counts:
        raise BenchmarkError("stream_counts must not be empty")

    records = []
    for n_streams in stream_counts:
        record = run_fleet_at_scale(
            pipeline_name, int(n_streams), length=length,
            batch_size=batch_size, window_size=window_size, warmup=warmup,
            exact=exact, precision=precision, coalesce=coalesce,
            pipeline_options=pipeline_options, random_state=random_state,
        )
        records.append(record)
        if verbose:  # pragma: no cover - console output
            print(f"{pipeline_name:<18} streams={n_streams:<4} "
                  f"status={record['status']} "
                  f"speedup={record.get('speedup', 0):.2f}x "
                  f"parity={record.get('parity')}")

    ok = [record for record in records if record["status"] == "ok"]
    summary = {
        "pipeline": pipeline_name,
        "exact": exact,
        "coalesce": coalesce,
        "n_records": len(records),
        "n_ok": len(ok),
        "parity_rate": (sum(1 for r in ok if r["parity"]) / len(ok))
        if ok else 0.0,
    }
    if ok:
        largest = max(ok, key=lambda r: r["n_streams"])
        summary.update({
            "max_streams": largest["n_streams"],
            "speedup_at_max": largest["speedup"],
            "coalesce_ratio_at_max": largest["coalesce_ratio"],
        })
    return {"records": records, "summary": summary}


def benchmark_streaming(pipelines: Optional[Sequence[str]] = None,
                        signals: Optional[Sequence[Signal]] = None,
                        batch_size: int = 50,
                        window_size: Optional[int] = None,
                        warmup: int = 64,
                        tolerance: Optional[float] = None,
                        pipeline_options: Optional[Dict[str, dict]] = None,
                        explorer=None,
                        verbose: bool = False) -> dict:
    """Run the streaming vs. batch benchmark sweep.

    Args:
        pipelines: pipeline names (default: the spectral-residual service
            pipeline, the only benchmark pipeline fast enough to stream at
            interactive latency on a laptop).
        signals: signals to replay (default:
            :func:`default_streaming_signals`).
        batch_size: micro-batch size in rows.
        window_size: stream window (default: full signal, measuring pure
            incremental overhead at exact parity).
        warmup: rows buffered before the first detection.
        tolerance: parity edge tolerance in timestamp units (default:
            ``batch_size``).
        pipeline_options: per-pipeline spec-factory overrides.
        explorer: optional :class:`~repro.db.explorer.SintelExplorer`;
            sessions and emitted anomalies are persisted through it.
        verbose: print one line per (pipeline, signal).

    Returns:
        ``{"records": [...], "summary": {...}}`` where the summary holds
        fleet-level latency/throughput aggregates and the parity rate.
    """
    if batch_size < 1:
        raise BenchmarkError("batch_size must be at least 1")
    pipelines = list(pipelines) if pipelines else ["azure"]
    signals = list(signals) if signals is not None else default_streaming_signals()
    pipeline_options = pipeline_options or {}

    records = []
    for pipeline_name in pipelines:
        for signal in signals:
            record = run_stream_on_signal(
                pipeline_name, signal, batch_size=batch_size,
                window_size=window_size, warmup=warmup, tolerance=tolerance,
                pipeline_options=pipeline_options.get(pipeline_name),
                explorer=explorer,
            )
            records.append(record)
            if verbose:  # pragma: no cover - console output
                print(f"{pipeline_name:<10} {signal.name:<22} "
                      f"status={record['status']} "
                      f"parity={record.get('parity')} "
                      f"p95={record.get('latency_p95', 0) * 1000:.1f}ms")

    ok = [record for record in records if record["status"] == "ok"]
    summary = {
        "n_records": len(records),
        "n_ok": len(ok),
        "parity_rate": (sum(1 for r in ok if r["parity"]) / len(ok)) if ok else 0.0,
    }
    if ok:
        summary.update({
            "latency_mean": float(np.mean([r["latency_mean"] for r in ok])),
            "latency_p95": float(np.max([r["latency_p95"] for r in ok])),
            "throughput_mean": float(np.mean([r["throughput"] for r in ok])),
            "stream_vs_batch": float(np.mean([
                r["stream_total_time"] / r["batch_detect_time"]
                for r in ok if r["batch_detect_time"] > 0
            ])),
        })
    return {"records": records, "summary": summary}
