"""Integration: batch/stream anomaly parity and drift-triggered retraining.

These are the acceptance tests for the streaming subsystem: streaming
detection over micro-batches must produce the same anomaly intervals as
batch ``detect`` over the full signal (within one micro-batch of edge
tolerance), whether the serial or the threaded executor runs the job; and
an injected mean shift must flow through DriftMonitor → scheduler refit →
atomic pipeline swap without dropping or reordering queued batches.
"""

import numpy as np
import pytest

from repro import Sintel
from repro.benchmark import default_streaming_signals, intervals_match
from repro.core.executor import get_executor
from repro.core.fleet import StreamScheduler
from repro.streaming import PageHinkley

BATCH = 50


def _batch_and_stream(data):
    """Detect ``data`` whole, then stream it in micro-batches: one job."""
    sintel = Sintel("azure", k=4.0)
    sintel.fit(data)
    batch_anomalies = sintel.detect(data)

    runner = sintel.stream(window_size=len(data), warmup=64,
                           drift_detector=None)
    for start in range(0, len(data), BATCH):
        runner.send(data[start:start + BATCH])
    runner.close()
    return batch_anomalies, runner.anomalies()


@pytest.mark.parametrize("executor", ["serial", "threaded"])
@pytest.mark.parametrize("signal", default_streaming_signals(),
                         ids=lambda signal: signal.name)
def test_stream_matches_batch_detection(signal, executor):
    [(batch_anomalies, stream_anomalies)] = get_executor(executor).map(
        _batch_and_stream, [signal.to_array()])

    assert batch_anomalies, "batch detection found nothing to compare"
    assert intervals_match(batch_anomalies, stream_anomalies, tolerance=BATCH)


def test_drift_retrain_swaps_pipeline_without_losing_batches():
    rng = np.random.default_rng(7)
    n = 1000
    values = np.sin(2 * np.pi * np.arange(n) / 80) * 0.2 + rng.normal(0, 0.1, n)
    values[600:] += 5.0  # injected mean shift
    data = np.column_stack([np.arange(n, dtype=float), values])

    sintel = Sintel("azure", k=4.0)
    sintel.fit(data[:400])
    # A one-lane scheduler owns the stream's refits.
    scheduler = StreamScheduler(refit_sync=True)
    lane = scheduler.add_stream(
        sintel, window_size=400, warmup=64,
        drift_detector=PageHinkley(threshold=20.0, min_samples=30))
    runner = lane.runner
    original = runner.pipeline

    # Queue every micro-batch up front, so the refit and swap happen
    # while later batches are still waiting on the lane.
    sent = [data[start:start + 40] for start in range(400, n, 40)]
    for chunk in sent:
        scheduler.ingest(lane.lane_id, chunk)
    scheduler.run_until_idle()
    scheduler.close_stream(lane.lane_id)

    state = runner.state()
    # Drift was confirmed after the shift and exactly one retrain ran.
    assert state["drift"]["points"]
    assert state["retrains"] == 1
    assert state["retrain_error"] is None
    assert runner.pipeline is not original and runner.pipeline.fitted
    # Every queued micro-batch was processed, in order: the buffered
    # window is exactly the tail of what was sent.
    assert state["samples_seen"] == sum(len(chunk) for chunk in sent)
    tail = np.vstack(sent)[-state["window"]:]
    np.testing.assert_array_equal(runner.window, tail)
