"""Statistics, resource and environment helpers shared by every workload."""

from __future__ import annotations

import glob
import math
import multiprocessing
import os
import platform
import resource
import statistics

import numpy as np


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (0 for no samples)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def tail_percentile(planned_samples: int) -> int:
    """The highest percentile with at least ten samples beyond it.

    Computed from the sample count the workload *plans* (fixed by its
    schedule), so the reported percentile does not flip between runs
    whose sample counts differ by a few. Below 20 samples no percentile
    qualifies and the maximum (100) is reported instead.
    """
    if planned_samples < 20:
        return 100
    return max(50, min(99, math.floor(100 - 1000 / planned_samples)))


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def _git_sha(root: str) -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head_path = os.path.join(root, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.exists(ref_path):
                with open(ref_path) as handle:
                    return handle.read().strip()
            packed = os.path.join(root, ".git", "packed-refs")
            with open(packed) as handle:
                for line in handle:
                    if line.strip().endswith(ref):
                        return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown (not a git checkout)"


def _blas_runtime_threads() -> str:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    try:
        import ctypes

        libs = glob.glob(os.path.join(os.path.dirname(np.__file__),
                                      os.pardir, "numpy.libs",
                                      "libscipy_openblas*.so*"))
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                function = getattr(lib, symbol, None)
                if function is not None:
                    function.restype = ctypes.c_int
                    return str(function())
    except OSError:
        pass
    return "unavailable"


def _openblas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def environment(root: str, seed: int, seconds: int, trace: bool,
                repeats: dict, blas_vars) -> dict:
    """The environment block printed with every result."""
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(root),
        "nproc": usable,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _openblas_version(),
        "blas_threads_env": {name: os.environ.get(name)
                             for name in blas_vars},
        "blas_threads_runtime": _blas_runtime_threads(),
        "mp_start_method": (os.environ.get("REPRO_MP_START")
                            or multiprocessing.get_start_method()),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "repeats": repeats,
    }
