"""Batch-detection throughput benchmark: ``detect_batch`` vs the loop.

``benchmark_batch`` measures the batched data plane against the per-signal
baseline under identical conditions: for every pipeline it fits once, runs
``N`` signals through a plain ``detect`` loop, runs the same signals
through one :meth:`~repro.core.pipeline.Pipeline.detect_batch` pass, and
records wall times, throughput (signals per second), the speedup, and
parity with the loop — asserted on every run rather than assumed.

Parity comes in the two flavours of the batch plane itself:

* ``exact=True`` (default) — the batch result must be **bitwise equal**
  to the loop (the exact plane's guarantee);
* ``exact=False`` — the fused plane (single-precision concatenated NN
  forwards) must match within the documented tolerance
  (:data:`PARITY_RTOL` / :data:`PARITY_ATOL` on the anomaly tuples),
  checked by :func:`anomalies_within_tolerance`. The record additionally
  reports ``parity_max_dev``, the worst absolute deviation observed.

Timing uses best-of-``repeats`` for both paths, so scheduler noise on a
busy machine shrinks both numbers instead of skewing the ratio.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.plan import FusedStep
from repro.core.sintel import Sintel
from repro.data.signal import Signal
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import BenchmarkError

__all__ = [
    "PARITY_RTOL",
    "PARITY_ATOL",
    "anomalies_within_tolerance",
    "benchmark_batch",
    "default_batch_signals",
    "explain_plan",
    "fusion_report",
    "run_batch_on_pipeline",
]

#: Relative tolerance of the fused (``exact=False``) batch plane, applied
#: to every anomaly tuple ``(start, end, severity)``. Single-precision
#: forwards deviate around 1e-7 relative on the raw network outputs; the
#: thresholding stages flatten most of it, so this band is generous for
#: timestamps yet still tight enough to catch a real behaviour change.
PARITY_RTOL = 1e-4
#: Absolute tolerance companion of :data:`PARITY_RTOL` (severities near 0).
PARITY_ATOL = 1e-6


def anomalies_within_tolerance(current: Sequence[List[tuple]],
                               reference: Sequence[List[tuple]],
                               rtol: float = PARITY_RTOL,
                               atol: float = PARITY_ATOL) -> bool:
    """Whether two per-signal anomaly batches match within tolerance.

    Requires the same number of signals and the same number of anomalies
    per signal; every ``(start, end, severity)`` tuple must satisfy
    ``allclose`` under ``rtol`` / ``atol``.
    """
    if len(current) != len(reference):
        return False
    for now, then in zip(current, reference):
        if len(now) != len(then):
            return False
        if not now:
            continue
        if not np.allclose(np.asarray(now, dtype=float),
                           np.asarray(then, dtype=float),
                           rtol=rtol, atol=atol):
            return False
    return True


def max_anomaly_deviation(current: Sequence[List[tuple]],
                          reference: Sequence[List[tuple]]) -> float:
    """Worst absolute deviation between two shape-matching anomaly batches.

    Returns ``inf`` when the batches disagree on counts (no aligned
    comparison exists).
    """
    if len(current) != len(reference):
        return float("inf")
    worst = 0.0
    for now, then in zip(current, reference):
        if len(now) != len(then):
            return float("inf")
        if not now:
            continue
        worst = max(worst, float(np.max(np.abs(
            np.asarray(now, dtype=float) - np.asarray(then, dtype=float)))))
    return worst


def default_batch_signals(n_signals: int = 8, length: int = 300,
                          n_anomalies: int = 2,
                          random_state: int = 0) -> List[Signal]:
    """``n_signals`` labeled workload signals sized for quick sweeps.

    Generated by the deterministic
    :class:`~repro.data.synthetic.WorkloadGenerator` (one spawned child
    seed per index), so the batch groups are realistic — identical
    lengths, different content — and every signal carries ground-truth
    labels, bitwise identical across platforms and start methods.
    """
    generator = WorkloadGenerator(
        seed=random_state, n_channels=1, length=length,
        anomalies_per_signal=n_anomalies,
    )
    return [generator.signal(index, name=f"batch-{index:02d}")
            for index in range(n_signals)]


def fusion_report(pipeline) -> dict:
    """Per-chain fusion report for a pipeline's fused batch plan.

    Returns the chains the fusion pass formed (``groups``: name, member
    steps, categories, step count) and the state of the plan's arena
    (allocations, reuses, bytes held/reused, buffer shapes). Run a batch
    through the fused plane first — the arena is sized lazily from the
    batch shapes, so a freshly compiled plan reports an empty pool.
    """
    plan = pipeline.compiled_plan("batch", exact=False)
    groups = [dict(group, n_steps=len(group["steps"]))
              for group in plan.fusion_groups]
    return {
        "groups": groups,
        "n_chains": len(groups),
        "n_fused_steps": sum(group["n_steps"] for group in groups),
        "arena": plan.arena.stats(),
    }


def explain_plan(pipeline_name: str,
                 pipeline_options: Optional[dict] = None,
                 signals: Optional[Sequence[Signal]] = None) -> str:
    """Render a pipeline's compiled batch plans with fusion and arena info.

    Fits the pipeline on a small synthetic signal (forcing ``epochs=1``
    when the spec factory accepts it — plan structure does not depend on
    training length), runs one fused batch so the arena is sized, and
    returns a human-readable description of both batch plans: every node
    in execution order, the fusion chains with their categories, and the
    arena's buffer shapes and byte counts.
    """
    import inspect

    from repro.pipelines import PIPELINE_REGISTRY

    options = dict(pipeline_options or {})
    factory = PIPELINE_REGISTRY.get(pipeline_name)
    if factory is not None and "epochs" not in options:
        if "epochs" in inspect.signature(factory).parameters:
            options["epochs"] = 1
    if signals is None:
        signals = default_batch_signals(n_signals=4, length=240)
    arrays = [signal.to_array() if isinstance(signal, Signal)
              else np.asarray(signal, dtype=float) for signal in signals]

    sintel = Sintel(pipeline_name, **options)
    sintel.fit(arrays[0])
    sintel.detect_many(arrays, exact=False)  # sizes the fused plan's arena
    pipeline = sintel.pipeline

    lines = [f"pipeline: {pipeline_name}"]
    for exact in (True, False):
        plan = pipeline.compiled_plan("batch", exact=exact)
        plane = "exact (bitwise)" if exact else "fused (tolerance)"
        lines.append(f"  batch plan [{plane}]: {len(plan.nodes)} node(s)")
        for node in plan.nodes:
            kind = "chain" if isinstance(node, FusedStep) else "step "
            lines.append(f"    {kind}  {node.name}")
    report = fusion_report(pipeline)
    lines.append(f"  fusion: {report['n_chains']} chain(s) covering "
                 f"{report['n_fused_steps']} step(s)")
    for group in report["groups"]:
        members = ", ".join(
            f"{step} ({category})"
            for step, category in zip(group["steps"], group["categories"]))
        lines.append(f"    {group['name']}: {members}")
    arena = report["arena"]
    lines.append(
        f"  arena: {arena['allocations']} allocation(s), "
        f"{arena['reuses']} reuse(s), {arena['bytes_held']} bytes held, "
        f"{arena['bytes_reused']} bytes reused")
    for shape in arena["shapes"]:
        lines.append(f"    buffer {shape}")
    return "\n".join(lines)


def _best_of(action, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        action()
        best = min(best, time.perf_counter() - started)
    return best


def run_batch_on_pipeline(pipeline_name: str, signals: Sequence[Signal],
                          repeats: int = 3,
                          pipeline_options: Optional[dict] = None,
                          exact: bool = True) -> dict:
    """Measure one pipeline's loop vs batch detection over ``signals``."""
    record = {
        "pipeline": pipeline_name,
        "batch_size": len(signals),
        "exact": bool(exact),
        "status": "ok",
    }
    try:
        arrays = [signal.to_array() if isinstance(signal, Signal)
                  else np.asarray(signal, dtype=float) for signal in signals]
        sintel = Sintel(pipeline_name, **(pipeline_options or {}))
        started = time.perf_counter()
        sintel.fit(arrays[0])
        record["fit_time"] = time.perf_counter() - started

        # Warm both paths once (plan compilation, lazy caches) so the
        # measured passes compare steady-state work.
        loop_result = [sintel.detect(array) for array in arrays]
        batch_result = sintel.detect_many(arrays, exact=exact)

        loop_time = _best_of(
            lambda: [sintel.detect(array) for array in arrays], repeats)
        batch_time = _best_of(
            lambda: sintel.detect_many(arrays, exact=exact), repeats)

        if exact:
            parity = batch_result == loop_result
        else:
            parity = anomalies_within_tolerance(batch_result, loop_result)
            record["parity_max_dev"] = max_anomaly_deviation(
                batch_result, loop_result)
            record["fusion"] = fusion_report(sintel.pipeline)
        record.update({
            "loop_time": loop_time,
            "batch_time": batch_time,
            "speedup": loop_time / batch_time if batch_time > 0 else float("inf"),
            "throughput_loop": len(arrays) / loop_time if loop_time > 0
            else float("inf"),
            "throughput_batch": len(arrays) / batch_time if batch_time > 0
            else float("inf"),
            "n_anomalies": sum(len(entry) for entry in batch_result),
            "parity": parity,
        })
    except Exception as error:  # noqa: BLE001 - a failing pipeline is a result
        record.update({"status": "error", "error": str(error), "parity": False})
    return record


def benchmark_batch(pipelines: Optional[Sequence[str]] = None,
                    signals: Optional[Sequence[Signal]] = None,
                    batch_size: int = 8,
                    repeats: int = 3,
                    pipeline_options: Optional[Dict[str, dict]] = None,
                    exact: bool = True,
                    verbose: bool = False) -> dict:
    """Run the batch-vs-loop throughput sweep over the Fig. 7a pipelines.

    Args:
        pipelines: pipeline names (default: the paper's six benchmark
            pipelines).
        signals: signals forming the batch (default:
            :func:`default_batch_signals` of ``batch_size`` signals).
        batch_size: number of generated signals when ``signals`` is None.
        repeats: timing repetitions; both paths report their best run.
        pipeline_options: per-pipeline spec-factory overrides.
        exact: measure the bitwise-exact batch plane (``True``, default)
            or the fused single-precision plane (``False``) whose parity
            is tolerance-based.
        verbose: print one line per pipeline.

    Returns:
        ``{"records": [...], "summary": {...}}``. The summary's
        ``speedup_mean`` (arithmetic mean of per-pipeline speedups) and
        ``speedup_geomean`` are the headline batch-throughput numbers;
        ``aggregate_speedup`` is total loop time over total batch time
        (dominated by the slowest pipeline); ``parity_rate`` must be 1.0 —
        every batch result bitwise-equal (``exact=True``) or
        tolerance-equal (``exact=False``) to its per-signal loop.
    """
    if batch_size < 1:
        raise BenchmarkError("batch_size must be at least 1")
    if repeats < 1:
        raise BenchmarkError("repeats must be at least 1")
    if pipelines is None:
        from repro.pipelines import BENCHMARK_PIPELINES

        pipelines = list(BENCHMARK_PIPELINES)
    if signals is None:
        signals = default_batch_signals(n_signals=batch_size)
    pipeline_options = pipeline_options or {}

    records = []
    for pipeline_name in pipelines:
        record = run_batch_on_pipeline(
            pipeline_name, signals, repeats=repeats,
            pipeline_options=pipeline_options.get(pipeline_name),
            exact=exact,
        )
        records.append(record)
        if verbose:  # pragma: no cover - console output
            print(f"{pipeline_name:<24} status={record['status']} "
                  f"speedup={record.get('speedup', 0):.2f}x "
                  f"parity={record.get('parity')}")

    ok = [record for record in records if record["status"] == "ok"]
    summary = {
        "n_records": len(records),
        "n_ok": len(ok),
        "batch_size": len(signals),
        "exact": bool(exact),
        "parity_rate": (sum(1 for r in ok if r["parity"]) / len(ok)) if ok
        else 0.0,
    }
    if not exact:
        summary["parity_rtol"] = PARITY_RTOL
        summary["parity_atol"] = PARITY_ATOL
    if ok:
        speedups = np.asarray([record["speedup"] for record in ok])
        total_loop = float(np.sum([record["loop_time"] for record in ok]))
        total_batch = float(np.sum([record["batch_time"] for record in ok]))
        summary.update({
            "speedup_mean": float(np.mean(speedups)),
            "speedup_geomean": float(np.exp(np.mean(np.log(speedups)))),
            "speedup_best": float(np.max(speedups)),
            "aggregate_speedup": (total_loop / total_batch
                                  if total_batch > 0 else float("inf")),
            "throughput_batch_total": float(
                np.sum([record["throughput_batch"] for record in ok])),
        })
    return {"records": records, "summary": summary}
