"""Ground-truth quality benchmark over the labeled synthetic workload.

The real datasets score detectors against curated-but-opaque annotations;
the :class:`~repro.data.synthetic.WorkloadGenerator` fleet scores them
against *known* ground truth with a per-anomaly class taxonomy. That makes
two things gateable in CI that the dataset benchmarks cannot gate:

* **per-class quality** — recall broken down by anomaly class (point /
  contextual / collective / changepoint) plus overall precision, per
  pipeline, compared against the committed ``BENCH_synthetic.json``
  baseline with a small tolerance;
* **channel attribution** — the multivariate pipelines' dominant-channel
  claim checked against the labels' affected channels.

Everything is seeded: the generator is deterministic across platforms and
start methods, and the pipelines are deterministic given their seeds, so
the quality numbers are reproducible rather than statistical.

``disable_detection=True`` is the negative control: the run proceeds
normally but every pipeline's detections are discarded before scoring,
simulating a silently broken detection stage. The gate MUST fail on that
run — CI asserts it does, proving the gate is load-bearing.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.sintel import Sintel
from repro.data.signal import LABELS_KEY, Signal
from repro.data.synthetic import WorkloadGenerator
from repro.evaluation import (
    attribution_accuracy,
    merge_class_scores,
    per_class_scores,
)

__all__ = [
    "SYNTHETIC_PIPELINES",
    "SYNTHETIC_MV_PIPELINE",
    "default_synthetic_fleet",
    "default_mv_fleet",
    "benchmark_synthetic",
    "synthetic_gate",
    "format_synthetic",
]

#: The univariate pipelines the synthetic quality leg runs, with
#: deterministic fast configurations. The pair is chosen for complementary
#: blind spots: azure (spectral residual) catches contextual anomalies but
#: with low precision; the dense autoencoder is precise but nearly blind to
#: contextual anomalies. Gating both per class keeps either failure mode
#: from hiding in an average.
SYNTHETIC_PIPELINES: Dict[str, dict] = {
    "azure": {"k": 2.5},
    "dense_autoencoder": {"window_size": 40, "epochs": 8},
}

#: The multivariate pipeline used for the channel-attribution gate.
SYNTHETIC_MV_PIPELINE: Tuple[str, dict] = (
    "mv_dense_autoencoder", {"window_size": 30, "epochs": 10},
)

#: Generator settings for the committed baseline. Changing any of these
#: invalidates ``BENCH_synthetic.json`` — regenerate it in the same commit.
FLEET_SEED = 42
FLEET_SIGNALS = 8
FLEET_LENGTH = 600
MV_FLEET_SEED = 7
MV_FLEET_SIGNALS = 3
MV_FLEET_CHANNELS = 3
MV_FLEET_LENGTH = 500


def default_synthetic_fleet(seed: int = FLEET_SEED,
                            n_signals: int = FLEET_SIGNALS,
                            length: int = FLEET_LENGTH) -> List[Signal]:
    """The univariate labeled fleet the quality gate runs on."""
    generator = WorkloadGenerator(seed=seed, n_channels=1, length=length,
                                  anomalies_per_signal=3)
    return [generator.signal(index) for index in range(n_signals)]


def default_mv_fleet(seed: int = MV_FLEET_SEED,
                     n_signals: int = MV_FLEET_SIGNALS,
                     n_channels: int = MV_FLEET_CHANNELS,
                     length: int = MV_FLEET_LENGTH) -> List[Signal]:
    """The multivariate labeled fleet the attribution gate runs on."""
    generator = WorkloadGenerator(seed=seed, n_channels=n_channels,
                                  length=length, anomalies_per_signal=2)
    return [generator.signal(index) for index in range(n_signals)]


def _run_pipeline(name: str, options: dict, signals: List[Signal],
                  executor=None,
                  disable_detection: bool = False) -> List[list]:
    """Fit+detect one pipeline on every signal, returning events per signal."""
    detections = []
    for signal in signals:
        data = signal.to_array()
        sintel = Sintel(name, executor=executor, **options)
        sintel.fit(data)
        detected = sintel.detect(data)
        if disable_detection:
            detected = []
        detections.append(detected)
    return detections


def _quality_view(detections: List[list]) -> List[List[Tuple[float, float]]]:
    """Reduce detections to the deterministic fields used for parity."""
    return [[(float(row[0]), float(row[1])) for row in events]
            for events in detections]


def benchmark_synthetic(pipelines: Optional[Dict[str, dict]] = None,
                        disable_detection: bool = False,
                        parity_executor: Optional[str] = "process",
                        mv: bool = True) -> dict:
    """Run the synthetic ground-truth quality benchmark.

    Args:
        pipelines: mapping pipeline name -> options; defaults to
            :data:`SYNTHETIC_PIPELINES`.
        disable_detection: the negative control — discard every detection
            before scoring, so the gate must fail.
        parity_executor: executor name to re-run the first pipeline under
            and compare against the serial events exactly (``None`` skips).
        mv: also run the multivariate attribution leg.

    Returns a JSON-serializable result dictionary.
    """
    pipelines = dict(pipelines or SYNTHETIC_PIPELINES)
    fleet = default_synthetic_fleet()
    generator = WorkloadGenerator(seed=FLEET_SEED, n_channels=1,
                                  length=FLEET_LENGTH, anomalies_per_signal=3)

    result: dict = {
        "fleet": {
            "seed": FLEET_SEED,
            "n_signals": FLEET_SIGNALS,
            "length": FLEET_LENGTH,
            "fingerprint": generator.fingerprint(FLEET_SIGNALS),
        },
        "disable_detection": bool(disable_detection),
        "pipelines": {},
    }

    first_detections = None
    for name, options in pipelines.items():
        detections = _run_pipeline(name, options, fleet,
                                   disable_detection=disable_detection)
        if first_detections is None:
            first_detections = detections
        scores = [per_class_scores(signal.metadata[LABELS_KEY], events)
                  for signal, events in zip(fleet, detections)]
        merged = merge_class_scores(scores)
        merged["options"] = options
        result["pipelines"][name] = merged

    # Executor parity: the first pipeline re-run under another executor
    # must produce exactly the same events as the serial run.
    if parity_executor is not None and pipelines:
        first_name, first_options = next(iter(pipelines.items()))
        parity_detections = _run_pipeline(
            first_name, first_options, fleet, executor=parity_executor,
            disable_detection=disable_detection)
        result["parity"] = {
            "pipeline": first_name,
            "executor": parity_executor,
            "ok": _quality_view(parity_detections)
            == _quality_view(first_detections),
        }

    if mv:
        name, options = SYNTHETIC_MV_PIPELINE
        mv_fleet = default_mv_fleet()
        detections = _run_pipeline(name, options, mv_fleet,
                                   disable_detection=disable_detection)
        accuracy = [attribution_accuracy(signal.metadata[LABELS_KEY], events)
                    for signal, events in zip(mv_fleet, detections)]
        correct = sum(item["correct"] for item in accuracy)
        total = sum(item["total"] for item in accuracy)
        result["attribution"] = {
            "pipeline": name,
            "options": options,
            "fleet": {
                "seed": MV_FLEET_SEED,
                "n_signals": MV_FLEET_SIGNALS,
                "n_channels": MV_FLEET_CHANNELS,
                "length": MV_FLEET_LENGTH,
            },
            "correct": correct,
            "total": total,
            "accuracy": correct / total if total else 0.0,
        }

    return result


#: Slack allowed between the committed baseline and a fresh run. Quality is
#: deterministic on a fixed platform; the tolerance only covers numeric
#: differences across BLAS builds and Python versions.
GATE_TOLERANCE = 0.1


def synthetic_gate(current: dict, baseline: dict,
                   tolerance: float = GATE_TOLERANCE) -> Tuple[bool, List[str]]:
    """Gate a fresh run against the committed baseline.

    Checks, per pipeline: recall per anomaly class and overall precision
    must not drop more than ``tolerance`` below the baseline. The
    multivariate leg's attribution accuracy is gated the same way, and at
    least one truth-overlapping attributed event must exist at all.

    Returns ``(ok, failures)`` where ``failures`` lists every violated
    check — empty when the gate passes.
    """
    failures: List[str] = []

    for name, base in baseline.get("pipelines", {}).items():
        fresh = current.get("pipelines", {}).get(name)
        if fresh is None:
            failures.append(f"{name}: missing from the current run")
            continue
        for cls, counts in base["classes"].items():
            floor = counts["recall"] - tolerance
            got = fresh["classes"].get(cls, {}).get("recall", 0.0)
            if got < floor:
                failures.append(
                    f"{name}: recall[{cls}] {got:.2f} < floor {floor:.2f}")
        floor = base["precision"] - tolerance
        if fresh["precision"] < floor:
            failures.append(
                f"{name}: precision {fresh['precision']:.2f} "
                f"< floor {floor:.2f}")

    base_attr = baseline.get("attribution")
    if base_attr is not None:
        fresh_attr = current.get("attribution")
        if fresh_attr is None:
            failures.append("attribution: missing from the current run")
        else:
            if fresh_attr["total"] == 0:
                failures.append("attribution: no attributed events "
                                "overlapped a labeled truth")
            floor = base_attr["accuracy"] - tolerance
            if fresh_attr["accuracy"] < floor:
                failures.append(
                    f"attribution: accuracy {fresh_attr['accuracy']:.2f} "
                    f"< floor {floor:.2f}")

    parity = current.get("parity")
    if parity is not None and not parity["ok"]:
        failures.append(
            f"parity: {parity['pipeline']} events under "
            f"{parity['executor']} executor diverged from serial")

    return not failures, failures


def format_synthetic(result: dict) -> str:
    """Render a result dictionary as the human-readable report table."""
    lines = [
        "Synthetic ground-truth quality "
        f"(fleet seed={result['fleet']['seed']}, "
        f"n={result['fleet']['n_signals']}, "
        f"fingerprint={result['fleet']['fingerprint'][:12]})",
    ]
    for name, scores in result["pipelines"].items():
        lines.append(f"{name} (precision {scores['precision']:.2f}, "
                     f"recall {scores['recall']:.2f}, f1 {scores['f1']:.2f})")
        for cls, counts in scores["classes"].items():
            lines.append(f"    {cls:<12} recall {counts['tp']}/"
                         f"{counts['support']} = {counts['recall']:.2f}")
    attribution = result.get("attribution")
    if attribution:
        lines.append(
            f"{attribution['pipeline']} channel attribution "
            f"{attribution['correct']}/{attribution['total']} "
            f"= {attribution['accuracy']:.2f}")
    parity = result.get("parity")
    if parity:
        lines.append(f"parity ({parity['pipeline']} via "
                     f"{parity['executor']}): "
                     f"{'ok' if parity['ok'] else 'DIVERGED'}")
    return "\n".join(lines)
