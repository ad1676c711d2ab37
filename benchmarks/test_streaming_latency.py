"""E9 — Streaming detection: latency, throughput, parity and fleet scale.

The paper's deployment discussion (§5) motivates running pipelines against
live streaming data. This experiment measures the streaming execution
path: per-micro-batch latency, sustained sample throughput, the overhead
relative to one batch ``detect`` over the full signal, and batch/stream
anomaly parity — plus the fleet plane, where concurrent streams sharing a
pipeline are coalesced into one stream-batch plan per scheduling round.

The fleet gate is same-run and machine-independent: the fused fleet must
serve 32 streams at least twice as fast as 32 independent runners replay
the identical workload in the same process (each side timed as the best
of three replays, each over a new fleet and new runners, with parity
checked on every replay), the exact plane must stay
bitwise identical to independent runners, and the ``coalesce=False``
negative control must FAIL the throughput gate (proving the win comes
from cross-stream batching, not from the harness). Results are written
both as human-readable tables and as machine-readable
``BENCH_streaming.json`` (classic records plus a ``fleet`` entry).
"""

import json

import pytest

from bench_utils import write_output

from repro.benchmark import (
    benchmark_fleet_streaming,
    benchmark_streaming,
    default_streaming_signals,
)

#: The fleet throughput gate: fused fleet vs independent runners at the
#: largest sweep size, same run.
FLEET_SPEEDUP_GATE = 2.0

FLEET_PIPELINE_OPTIONS = {"window_size": 40, "epochs": 8}


@pytest.fixture(scope="module")
def streaming_result():
    return benchmark_streaming(
        signals=default_streaming_signals(length=600, n_anomalies=3),
        batch_size=50,
        pipeline_options={"azure": {"k": 4.0}},
    )


@pytest.fixture(scope="module")
def fleet_result():
    """Fused sweep, exact-plane parity run, and the negative control."""
    fused = benchmark_fleet_streaming(
        pipeline_options=FLEET_PIPELINE_OPTIONS, stream_counts=(1, 8, 32))
    exact = benchmark_fleet_streaming(
        pipeline_options=FLEET_PIPELINE_OPTIONS, stream_counts=(1, 8),
        exact=True)
    control = benchmark_fleet_streaming(
        pipeline_options=FLEET_PIPELINE_OPTIONS, stream_counts=(32,),
        coalesce=False)
    return {"fused": fused, "exact": exact, "control": control}


def test_streaming_latency_throughput_parity(streaming_result):
    records = streaming_result["records"]
    summary = streaming_result["summary"]

    # Shape assertions: every signal streams successfully, at exact parity
    # with batch detection, at interactive per-batch latency.
    assert summary["n_ok"] == len(records) == 3
    assert summary["parity_rate"] == 1.0
    assert summary["latency_p95"] < 1.0  # seconds per 50-row micro-batch
    assert summary["throughput_mean"] > 100  # rows ingested per second

    lines = [
        "E9 - Streaming detection (azure / spectral residual pipeline)",
        f"{'signal':<24} {'batches':>7} {'lat.mean':>10} {'lat.p95':>10} "
        f"{'rows/s':>10} {'vs batch':>9} {'parity':>7}",
    ]
    for record in records:
        ratio = record["stream_total_time"] / record["batch_detect_time"]
        lines.append(
            f"{record['signal']:<24} {record['n_batches']:>7} "
            f"{record['latency_mean'] * 1000:>8.1f}ms "
            f"{record['latency_p95'] * 1000:>8.1f}ms "
            f"{record['throughput']:>10.0f} {ratio:>8.1f}x "
            f"{str(record['parity']):>7}"
        )
    lines.append(
        f"{'mean':<24} {'':>7} "
        f"{summary['latency_mean'] * 1000:>8.1f}ms "
        f"{summary['latency_p95'] * 1000:>8.1f}ms "
        f"{summary['throughput_mean']:>10.0f} "
        f"{summary['stream_vs_batch']:>8.1f}x "
        f"{summary['parity_rate']:>7.0%}"
    )
    write_output("streaming_latency.txt", "\n".join(lines))


def test_fleet_vectorization_gate(fleet_result):
    fused = fleet_result["fused"]
    exact = fleet_result["exact"]
    control = fleet_result["control"]

    # Every scale in every configuration must complete.
    for result in (fused, exact, control):
        assert result["summary"]["n_ok"] == result["summary"]["n_records"]

    # Throughput gate: the fused fleet serves 32 streams >= 2x faster
    # than 32 independent runners replaying the same workload, same run.
    assert fused["summary"]["max_streams"] == 32
    assert fused["summary"]["speedup_at_max"] >= FLEET_SPEEDUP_GATE
    assert fused["summary"]["coalesce_ratio_at_max"] == 32.0
    # Fused events stay within the documented parity band.
    assert fused["summary"]["parity_rate"] == 1.0

    # Exact plane: fleet events bitwise identical to independent runners.
    assert exact["summary"]["parity_rate"] == 1.0
    assert all(record["parity"] for record in exact["records"])

    # Negative control: with cross-stream batching disabled the speedup
    # collapses below the gate — the win is the batching, not the harness.
    assert control["summary"]["coalesce_ratio_at_max"] == 1.0
    assert control["summary"]["speedup_at_max"] < FLEET_SPEEDUP_GATE

    lines = [
        "E9b - Fleet streaming (dense autoencoder, fused plane)",
        f"{'streams':>7} {'indep(s)':>9} {'fleet(s)':>9} {'speedup':>8} "
        f"{'coalesce':>9} {'parity':>7}",
    ]
    for record in fused["records"]:
        lines.append(
            f"{record['n_streams']:>7} {record['independent_time']:>9.3f} "
            f"{record['fleet_time']:>9.3f} {record['speedup']:>7.2f}x "
            f"{record['coalesce_ratio']:>9.1f} {str(record['parity']):>7}"
        )
    largest = control["records"][-1]
    lines.append(
        f"{largest['n_streams']:>7} {largest['independent_time']:>9.3f} "
        f"{largest['fleet_time']:>9.3f} {largest['speedup']:>7.2f}x "
        f"{largest['coalesce_ratio']:>9.1f} "
        f"{str(largest['parity']):>7}  (coalesce disabled - control)"
    )
    write_output("fleet_streaming.txt", "\n".join(lines))


def test_write_bench_json(streaming_result, fleet_result):
    payload = dict(streaming_result)
    payload["fleet"] = fleet_result
    write_output("BENCH_streaming.json", json.dumps(payload, indent=2))
