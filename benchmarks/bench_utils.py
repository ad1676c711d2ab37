"""Shared constants and helpers for the experiment benchmarks.

A run writes every regenerated table and ``BENCH_*.json`` under
``build/benchmarks/`` (ignored by git), so running the benchmarks leaves
the tree unchanged. The files committed under ``benchmarks/output/`` are
the baselines and reference tables: tests only read them. To re-record
one, copy the regenerated file across, e.g.
``cp build/benchmarks/BENCH_synthetic.json benchmarks/output/``.
"""

import os

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Committed baselines and reference tables (read, never written, by runs).
BASELINE_DIR = os.path.join(_ROOT, "benchmarks", "output")

#: Where a run writes its regenerated tables and series.
OUTPUT_DIR = os.path.join(_ROOT, "build", "benchmarks")

#: Dataset scale used throughout the benchmarks.
SCALE = 0.04

#: Scaled-down pipeline options (small windows, few epochs) for the runs.
FAST_PIPELINE_OPTIONS = {
    "lstm_dynamic_threshold": {"window_size": 40, "epochs": 3},
    "lstm_autoencoder": {"window_size": 40, "epochs": 3},
    "dense_autoencoder": {"window_size": 40, "epochs": 8},
    "tadgan": {"window_size": 40, "epochs": 2},
    "arima": {"window_size": 40},
    "azure": {},
}


def write_output(filename: str, content: str) -> str:
    """Persist a regenerated table under ``build/benchmarks/``."""
    os.makedirs(OUTPUT_DIR, exist_ok=True)
    path = os.path.join(OUTPUT_DIR, filename)
    with open(path, "w") as handle:
        handle.write(content + "\n")
    return path
