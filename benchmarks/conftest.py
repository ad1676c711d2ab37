"""Shared fixtures for the experiment benchmarks (E1-E8 in DESIGN.md).

The paper's evaluation ran 492 real signals on an HPC cluster with Keras
models; these benchmarks reproduce every table and figure at laptop scale:
small synthetic dataset variants, short signals, few epochs. The *shape* of
the results (who wins, by roughly what factor, where crossovers fall) is
asserted in each module; absolute numbers necessarily differ.

Every experiment writes its regenerated table to ``build/benchmarks/``,
so a run leaves the tree unchanged; the committed copies under
``benchmarks/output/`` are the baselines (see ``bench_utils``).
"""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from bench_utils import FAST_PIPELINE_OPTIONS, SCALE  # noqa: E402

from repro.benchmark import benchmark  # noqa: E402
from repro.data import load_benchmark_datasets  # noqa: E402


@pytest.fixture(scope="session")
def benchmark_datasets():
    """The three scaled-down benchmark datasets (NAB, NASA, YAHOO)."""
    return load_benchmark_datasets(scale=SCALE, random_state=0)


@pytest.fixture(scope="session")
def full_benchmark_result(benchmark_datasets):
    """One shared run of the full quality + computational benchmark.

    Used by both the Table 3 (quality) and Figure 7a (computational)
    experiments so the expensive pipeline runs happen only once per session.
    """
    return benchmark(
        datasets=benchmark_datasets,
        max_signals=2,
        pipeline_options=FAST_PIPELINE_OPTIONS,
        random_state=0,
    )
