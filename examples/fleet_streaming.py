"""64 concurrent streams on one pipeline through the fleet plane.

One ``StreamRunner`` per live signal pays the plan-dispatch overhead N
times per scheduling round for what is numerically one batched
computation. The fleet plane fixes that: streams sharing a fitted
pipeline are grouped, each round coalesces one pending micro-batch per
lane into a single stream-batch plan execution, and a tier-aware
scheduler (hot / warm / cold, budget floors per tier) keeps every lane's
model fresh against its SLA without refit storms.

This example fits one dense autoencoder, registers 64 streams against it
with three SLA classes, replays eight micro-batch rounds while a logical
clock advances, and prints the tier assignments, refit traffic, and the
fleet's throughput and coalescing statistics.

Run with:  python examples/fleet_streaming.py
"""

import time

from repro import Sintel
from repro.core import StreamScheduler
from repro.data import WorkloadGenerator

N_STREAMS = 64
BATCH_SIZE = 50
ROUND_SECONDS = 60.0  # logical time between scheduling rounds


def main():
    # 1. One deterministic workload per stream, plus a training signal.
    generator = WorkloadGenerator(seed=7, length=400,
                                  anomalies_per_signal=2,
                                  taxonomy=("collective",))
    train = generator.signal(0).to_array()
    signals = [generator.signal(index + 1, name=f"stream-{index:02d}")
               for index in range(N_STREAMS)]

    # 2. Fit once; every lane shares this fitted pipeline object, so the
    #    whole fleet lands in a single stream-batch group.
    sintel = Sintel("dense_autoencoder", window_size=40, epochs=8)
    sintel.fit(train)

    # 3. A tier-aware scheduler over the fused fleet plane. The injected
    #    logical clock makes staleness (and therefore tiering) visible
    #    within one example run instead of hours of wall time.
    clock = {"now": 0.0}
    scheduler = StreamScheduler(refit_sync=True, refit_budget=2,
                                clock=lambda: clock["now"],
                                exact=False)

    # Three SLA classes: tight deadlines go hot as staleness accumulates,
    # medium deadlines pass through warm, no-SLA lanes stay cold.
    def sla_for(index):
        if index < 8:
            return 120.0
        if index < 32:
            return 600.0
        return None

    for index, signal in enumerate(signals):
        scheduler.add_stream(sintel.pipeline, stream_id=signal.name,
                             window_size=200, warmup=100,
                             drift_detector=None,
                             sla_deadline=sla_for(index))

    # 4. Replay eight micro-batch rounds across all 64 streams.
    arrays = [signal.to_array() for signal in signals]
    n_rounds = arrays[0].shape[0] // BATCH_SIZE
    started = time.perf_counter()
    total_events = 0
    for round_index in range(n_rounds):
        lo, hi = round_index * BATCH_SIZE, (round_index + 1) * BATCH_SIZE
        for signal, rows in zip(signals, arrays):
            scheduler.ingest(signal.name, rows[lo:hi])
        clock["now"] += ROUND_SECONDS
        changed = scheduler.run_round()
        total_events += sum(len(events) for events in changed.values())
        tiers = scheduler.tiers()
        print(f"round {round_index + 1}: t={clock['now']:5.0f}s  "
              f"hot={tiers['hot']:2d} warm={tiers['warm']:2d} "
              f"cold={tiers['cold']:2d}  "
              f"events so far={total_events}")
    elapsed = time.perf_counter() - started

    # 5. What the fleet did, in numbers.
    stats = scheduler.stats()
    rows_total = N_STREAMS * arrays[0].shape[0]
    print(f"\n{N_STREAMS} streams, {n_rounds} rounds, "
          f"{rows_total} rows in {elapsed:.2f}s "
          f"({rows_total / elapsed:,.0f} rows/s)")
    print(f"groups={stats['groups']}  plan runs={stats['plan_runs']}  "
          f"lanes/plan={stats['coalesce_ratio']:.1f}  "
          f"occupancy={stats['occupancy']}")
    print(f"refits by tier={stats['refits_by_tier']}  "
          f"standby cache={stats['standby']}")
    for lane in scheduler.fleet.lanes()[:4]:
        events = lane.runner.events
        print(f"{lane.lane_id}: tier={lane.tier} "
              f"events={[event.to_tuple()[:2] for event in events]}")


if __name__ == "__main__":
    main()
