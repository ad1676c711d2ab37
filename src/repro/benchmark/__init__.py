"""``repro.benchmark``: the standardized benchmarking framework (paper §3.4)."""

from repro.benchmark.api import (
    DEFAULT_ROUTES,
    benchmark_api,
    overload_proof,
    percentile,
)
from repro.benchmark.batch import (
    PARITY_ATOL,
    PARITY_RTOL,
    anomalies_within_tolerance,
    benchmark_batch,
    default_batch_signals,
    run_batch_on_pipeline,
)
from repro.benchmark.comparison import (
    FEATURE_MATRIX,
    FEATURES,
    SYSTEMS,
    feature_coverage,
    format_table,
)
from repro.benchmark.profiling import (
    primitive_overhead,
    profile_overhead,
    profile_pipeline_steps,
    run_primitives_standalone,
)
from repro.benchmark.regression import (
    compare_results,
    failure_kinds,
    format_delta_table,
    format_report,
)
from repro.benchmark.results import BenchmarkResult, merge_shard_checkpoints
from repro.benchmark.runner import (
    DEFAULT_PIPELINE_OPTIONS,
    benchmark,
    run_pipeline_on_signal,
    shard_jobs,
)
from repro.benchmark.synthetic import (
    SYNTHETIC_MV_PIPELINE,
    SYNTHETIC_PIPELINES,
    benchmark_synthetic,
    default_mv_fleet,
    default_synthetic_fleet,
    format_synthetic,
    synthetic_gate,
)
from repro.benchmark.streaming import (
    benchmark_fleet_streaming,
    benchmark_streaming,
    default_streaming_signals,
    intervals_match,
    run_fleet_at_scale,
    run_stream_on_signal,
)

__all__ = [
    "benchmark",
    "run_pipeline_on_signal",
    "DEFAULT_PIPELINE_OPTIONS",
    "BenchmarkResult",
    "merge_shard_checkpoints",
    "shard_jobs",
    "compare_results",
    "failure_kinds",
    "format_delta_table",
    "format_report",
    "benchmark_batch",
    "default_batch_signals",
    "run_batch_on_pipeline",
    "anomalies_within_tolerance",
    "PARITY_RTOL",
    "PARITY_ATOL",
    "benchmark_api",
    "overload_proof",
    "percentile",
    "DEFAULT_ROUTES",
    "benchmark_synthetic",
    "synthetic_gate",
    "format_synthetic",
    "default_synthetic_fleet",
    "default_mv_fleet",
    "SYNTHETIC_PIPELINES",
    "SYNTHETIC_MV_PIPELINE",
    "benchmark_streaming",
    "benchmark_fleet_streaming",
    "run_fleet_at_scale",
    "run_stream_on_signal",
    "default_streaming_signals",
    "intervals_match",
    "profile_pipeline_steps",
    "run_primitives_standalone",
    "primitive_overhead",
    "profile_overhead",
    "FEATURES",
    "SYSTEMS",
    "FEATURE_MATRIX",
    "feature_coverage",
    "format_table",
]
