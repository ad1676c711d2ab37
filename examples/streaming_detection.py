"""Streaming detection: live micro-batches, drift, and retraining.

The paper's deployment discussion (§5) calls for running pipelines against
live signals and refreshing them when drift is observed. This example
serves one stream as the single lane of a ``StreamScheduler``, pushes
micro-batches, watches stable-id anomaly events appear incrementally, and
lets an injected mean shift trigger a drift-confirmed refit with an atomic
pipeline swap — the same refit path the REST API and the fleet use.

Run with:  python examples/streaming_detection.py
"""

from repro import Sintel
from repro.core import StreamScheduler
from repro.data import generate_signal
from repro.streaming import PageHinkley


def main():
    # 1. Train a pipeline on historical data, exactly as in batch mode.
    signal = generate_signal(
        "live-telemetry", length=900, n_anomalies=3, random_state=7,
        flavour="periodic", anomaly_types=("collective",),
    )
    data = signal.to_array()
    train, live = data[:300], data[300:]

    sintel = Sintel("azure", k=4.0)
    sintel.fit(train)
    print(f"trained on {len(train)} rows; streaming {len(live)} live rows")

    # 2. Open a stream as the one lane of a scheduler. The lane's runner
    #    keeps a sliding window, runs each micro-batch through the
    #    pipeline's execution plan, and reconciles overlapping detections
    #    into stable-id events; the scheduler refits the lane when its
    #    drift monitor fires (inline here, so the run is deterministic).
    scheduler = StreamScheduler(refit_sync=True)
    lane = scheduler.add_stream(
        sintel, window_size=400, warmup=64,
        drift_detector=PageHinkley(threshold=25.0, min_samples=30),
    )
    runner = lane.runner

    # 3. Push micro-batches as they "arrive", one scheduling round each.
    #    An injected mean shift in the second half of the live data makes
    #    the drift monitor fire.
    live = live.copy()
    live[300:, 1] += 4.0  # regime change mid-stream
    for start in range(0, len(live), 50):
        scheduler.ingest(lane.lane_id, live[start:start + 50])
        changed = scheduler.run_round().get(lane.lane_id, [])
        for event in changed:
            print(f"  batch {runner.state()['batches']:>2}  "
                  f"{event.event_id:<8} {event.status:<7} "
                  f"[{event.start:>6.0f} .. {event.end:>6.0f}]")

    # 4. Close the stream (closing flushes every still-open event).
    scheduler.close_stream(lane.lane_id)

    state = runner.state()
    print(f"\nsamples ingested : {state['samples_seen']}")
    print(f"events closed    : {state['events_closed']}")
    print(f"drift points     : {state['drift']['points']}")
    print(f"retrains         : {state['retrains']}")
    print("\nfinal anomaly events (start, end, severity):")
    for start, end, severity in runner.anomalies():
        print(f"  {int(start):>6} .. {int(end):>6}   severity={severity:.3f}")


if __name__ == "__main__":
    main()
