"""E11 — Synthetic ground-truth quality: per-class recall, precision,
channel attribution, and process fan-out parity on the labeled fleet.

Unlike the dataset benchmarks (Table 3), the synthetic leg knows exactly
what it planted: every anomaly carries its class (point / contextual /
collective / changepoint) and affected channels. The run is gated per
class against the committed ``BENCH_synthetic.json`` baseline, so a
detector silently losing one anomaly class fails CI even if its average
F1 barely moves.

Two built-in proofs keep the gate honest:

* the **negative control** re-runs with detection disabled — the gate
  must FAIL on that run, or the check is not load-bearing;
* **executor parity** fans the first pipeline's per-signal fit+detect
  jobs out through ``ProcessExecutor.map`` (fitting in pool workers) and
  requires exactly the serial events.
"""

import json
import os

from bench_utils import OUTPUT_DIR, write_output

from repro.benchmark import (
    benchmark_synthetic,
    format_synthetic,
    synthetic_gate,
)

BASELINE_PATH = os.path.join(OUTPUT_DIR, "BENCH_synthetic.json")


def _load_baseline():
    with open(BASELINE_PATH) as handle:
        return json.load(handle)


def test_synthetic_quality_gate():
    baseline = _load_baseline()
    result = benchmark_synthetic()

    write_output("synthetic_quality.txt", format_synthetic(result))
    write_output("BENCH_synthetic.json", json.dumps(result, indent=2))

    # The generator itself must be byte-stable: same seed, same fleet.
    assert result["fleet"]["fingerprint"] == baseline["fleet"]["fingerprint"]

    # Per-class quality and channel attribution against the committed
    # baseline, plus serial/process executor parity.
    ok, failures = synthetic_gate(result, baseline)
    assert ok, "synthetic quality gate failed:\n" + "\n".join(failures)
    assert result["parity"]["ok"]

    # Every anomaly class must be represented in the fleet — a taxonomy
    # class with zero support would make its recall gate vacuous.
    for scores in result["pipelines"].values():
        for cls, counts in scores["classes"].items():
            assert counts["support"] > 0, cls


def test_synthetic_negative_control():
    """Detection disabled -> the gate MUST fail, proving it is load-bearing."""
    baseline = _load_baseline()
    result = benchmark_synthetic(disable_detection=True,
                                 parity_executor=None)
    ok, failures = synthetic_gate(result, baseline)
    assert not ok, ("the synthetic quality gate passed with detection "
                    "disabled; the check is not load-bearing")
    # Every pipeline's recall collapse (not just one check) must be caught.
    for name in baseline["pipelines"]:
        assert any(failure.startswith(name) for failure in failures), name
