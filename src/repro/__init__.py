"""Reproduction of *Sintel: A Machine Learning Framework to Extract
Insights from Signals* (SIGMOD 2022).

The top-level package exposes the most common entry points:

* :class:`repro.Sintel` — fit / detect / evaluate a pipeline end-to-end;
* :func:`repro.load_pipeline` and :func:`repro.list_pipelines` — the
  pipeline hub;
* :func:`repro.load_dataset` — synthetic benchmark datasets;
* :func:`repro.run_benchmark` — the quality + computational benchmark suite
  (also available as :func:`repro.benchmark.benchmark`).
"""

from repro.core import (
    Pipeline,
    ProcessExecutor,
    SerialExecutor,
    Sintel,
    StreamEvent,
    StreamRunner,
    Template,
    ThreadedExecutor,
    get_executor,
    list_executors,
    list_primitives,
)
from repro.data import Dataset, Signal, load_benchmark_datasets, load_dataset
from repro.pipelines import list_pipelines, load_pipeline, load_template

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Sintel",
    "Pipeline",
    "Template",
    "StreamRunner",
    "StreamEvent",
    "Signal",
    "Dataset",
    "list_primitives",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "get_executor",
    "list_executors",
    "list_pipelines",
    "load_pipeline",
    "load_template",
    "load_dataset",
    "load_benchmark_datasets",
    "run_benchmark",
]


def run_benchmark(*args, **kwargs):
    """Run the benchmark suite (lazy import of :mod:`repro.benchmark`).

    Named ``run_benchmark`` so it never collides with the
    :mod:`repro.benchmark` subpackage when that module is imported.
    """
    from repro.benchmark import benchmark as _benchmark

    return _benchmark(*args, **kwargs)
