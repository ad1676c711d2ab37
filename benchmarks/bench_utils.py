"""Shared constants and helpers for the experiment benchmarks.

A run writes every regenerated table and ``BENCH_*.json`` under
``build/benchmarks/`` (ignored by git), so running the benchmarks leaves
the tree unchanged. The files committed under ``benchmarks/output/`` are
the baselines and reference tables: tests only read them. To re-record
one, copy the regenerated file across, e.g.
``cp build/benchmarks/BENCH_synthetic.json benchmarks/output/``.
"""

import os
import platform

import numpy as np

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


#: Environment variables that size the BLAS / OpenMP thread pools.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(_ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(repeats: int) -> dict:
    """The machine and build a benchmark's numbers were measured on.

    The fused NN forward runs its window tiles on one thread per usable
    core, so a committed speed means little without the core count.
    """
    from repro.nn import network

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not on Linux
        usable = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(),
        "usable_cores": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(),
        "blas_threads_env": {name: os.environ.get(name)
                             for name in BLAS_THREAD_VARS},
        "fused_tile": network.TILE,
        "fused_forward_threads": network._tile_threads(),
        "repeats": repeats,
    }
