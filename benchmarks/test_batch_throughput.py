"""E10 — Batched detection: throughput and parity vs the loop, both planes.

The batch data plane runs N signals through each pipeline step together.
Two planes are measured at batch size 8 over the Fig. 7a pipeline set:

* ``exact=True`` — fused NumPy passes over stacked arrays where the
  primitives support it, per-signal loops elsewhere, with results
  guaranteed **bitwise equal** to N independent ``detect`` calls;
* ``exact=False`` — additionally lowers the LSTM/AE forwards to fused
  single-precision passes (one concatenated network forward per step,
  input projections hoisted into single GEMMs). Parity is **tolerance
  based** (``PARITY_RTOL`` / ``PARITY_ATOL``) because both the precision
  and the BLAS summation order change.

Expectation shape: on the exact plane, pipelines whose detection cost
lives in preprocessing/postprocessing (azure, dense AE, arima) gain
several times over the loop while recurrent-forward pipelines gain little
(their matmuls cannot be batch-fused without breaking bitwise parity).
The fused plane is exactly what unlocks those recurrent pipelines — the
committed JSON records the measured ≥2x speedups on
lstm_dynamic_threshold / lstm_autoencoder at batch 8.

Both planes run in one thread here. The fused forward spreads its window
tiles over every usable core only from ``2 * TILE`` windows on
(``repro.nn.network.TILE``), and this batch (8 signals of 300 rows,
about 2,100 windows) is one tile.

The numbers land in machine-readable ``BENCH_batch.json`` with one entry
per plane and an ``environment`` block (commit, usable cores, Python,
numpy and BLAS, the BLAS thread variables, ``TILE``, the forward's
thread count and the repeat count); CI's ``bench-batch`` leg re-runs this
experiment and gates on both parities and on the recurrent pipelines'
fused plane running at least 5x faster than their exact plane over the
same signals.
"""

import json

from bench_utils import FAST_PIPELINE_OPTIONS, environment, write_output

from repro.benchmark import benchmark_batch, default_batch_signals

#: Timed runs per plane and pipeline; each reports its best.
REPEATS = 3

#: Pipelines whose modeling primitives genuinely declare
#: ``supports_fused_batch``.
FUSED_PIPELINES = ("lstm_dynamic_threshold", "lstm_autoencoder", "tadgan")

#: Pipelines gated on the fused plane beating the exact plane on the same
#: signals: the recurrent pipelines whose forwards the time-major kernel
#: rewrites.
FUSION_GATED = ("lstm_dynamic_threshold", "lstm_autoencoder")


def _render(result, title):
    records = result["records"]
    summary = result["summary"]
    lines = [
        f"{title} (batch size {summary['batch_size']}, best of 3)",
        f"{'pipeline':<24} {'loop':>10} {'batch':>10} {'speedup':>9} "
        f"{'signals/s':>11} {'parity':>7}",
    ]
    for record in records:
        lines.append(
            f"{record['pipeline']:<24} {record['loop_time'] * 1000:>8.1f}ms "
            f"{record['batch_time'] * 1000:>8.1f}ms "
            f"{record['speedup']:>8.2f}x {record['throughput_batch']:>11.1f} "
            f"{str(record['parity']):>7}"
        )
    lines.append(
        f"{'mean/aggregate':<24} {'':>10} {'':>10} "
        f"{summary['speedup_mean']:>8.2f}x "
        f"{summary['throughput_batch_total']:>11.1f} "
        f"{summary['parity_rate']:>7.0%}"
    )
    lines.append(
        f"geomean={summary['speedup_geomean']:.2f}x "
        f"best={summary['speedup_best']:.2f}x "
        f"aggregate={summary['aggregate_speedup']:.2f}x"
    )
    return lines


def _render_fusion(records):
    lines = ["Fusion report (fused plane, per chain)"]
    for record in records:
        report = record.get("fusion")
        if not report:
            continue
        arena = report["arena"]
        lines.append(
            f"{record['pipeline']:<24} chains={report['n_chains']} "
            f"steps_fused={report['n_fused_steps']} "
            f"arena_allocs={arena['allocations']} "
            f"arena_bytes_reused={arena['bytes_reused']}"
        )
        for group in report["groups"]:
            lines.append(f"    {group['name']}")
        if "speedup_vs_exact" in record:
            lines.append(
                f"    vs exact plane: "
                f"{record['speedup_vs_exact']:.2f}x "
                f"({record['exact_batch_time'] * 1000:.1f}ms -> "
                f"{record['batch_time'] * 1000:.1f}ms)"
            )
    return lines


def test_batch_throughput_and_parity():
    signals = default_batch_signals(n_signals=8, length=300)
    exact = benchmark_batch(signals=signals,
                            pipeline_options=FAST_PIPELINE_OPTIONS,
                            repeats=REPEATS, exact=True)
    fused = benchmark_batch(signals=signals,
                            pipeline_options=FAST_PIPELINE_OPTIONS,
                            repeats=REPEATS, exact=False)

    # Every pipeline must run on both planes, with full parity: bitwise
    # on the exact plane, within the documented tolerance on the fused
    # plane — the CI gate for the exact=False contract.
    for result in (exact, fused):
        assert result["summary"]["n_ok"] == len(result["records"]) == 6
        assert result["summary"]["parity_rate"] == 1.0
    exact_times = {record["pipeline"]: record["batch_time"]
                   for record in exact["records"]}
    for record in fused["records"]:
        if record["pipeline"] in FUSED_PIPELINES:
            record["exact_batch_time"] = exact_times[record["pipeline"]]
            record["speedup_vs_exact"] = (record["exact_batch_time"]
                                          / record["batch_time"])
    # The fused pipelines must beat the loop clearly even on noisy CI
    # hardware; the committed JSON records the actual measured speedups.
    assert exact["summary"]["speedup_best"] >= 1.5
    assert exact["summary"]["speedup_mean"] > 1.0
    # The fused plane's reason to exist: a clear win on at least one
    # recurrent-forward pipeline. Measured ~3.5-4x locally; the floor is
    # deliberately loose because this runs on shared CI runners — parity
    # above is the hard gate, the speedup floor only catches the fused
    # path degenerating to the loop entirely. (Speedups are ratios of
    # same-run measurements, so host speed largely cancels.)
    fused_recurrent = [record["speedup"] for record in fused["records"]
                       if record["pipeline"] in FUSED_PIPELINES]
    assert max(fused_recurrent) >= 1.3
    # The time-major arena kernel must clearly beat the exact plane's
    # float64 forwards over the same signals on the recurrent pipelines
    # (measured 8-11x on 2 vCPUs). Same-run ratio, so host speed cancels
    # — the floor catches the fused forward degenerating towards the
    # exact plane's cost.
    for record in fused["records"]:
        if record["pipeline"] in FUSION_GATED:
            assert record["speedup_vs_exact"] >= 5.0, record["pipeline"]
        if record["pipeline"] in FUSED_PIPELINES:
            assert record.get("fusion", {}).get("n_chains", 0) >= 1

    lines = _render(exact, "E10 - Batched detection throughput, exact plane")
    lines.append("")
    lines.extend(_render(
        fused, "E10 - Batched detection throughput, fused plane "
               "(exact=False, single-precision NN forwards)"))
    lines.append("")
    lines.extend(_render_fusion(fused["records"]))
    write_output("batch_throughput.txt", "\n".join(lines))
    write_output("BENCH_batch.json", json.dumps(
        {"environment": environment(REPEATS), "records": exact["records"],
         "summary": exact["summary"], "fused": fused}, indent=2))
    write_output("batch_fusion_report.json", json.dumps(
        [{"pipeline": record["pipeline"],
          "fusion": record.get("fusion"),
          "exact_batch_time": record.get("exact_batch_time"),
          "speedup_vs_exact": record.get("speedup_vs_exact")}
         for record in fused["records"]], indent=2))
