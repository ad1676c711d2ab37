"""``python -m repro.benchmark`` — sharded benchmark runs from the shell.

Three subcommands cover the shard lifecycle end to end:

* ``run`` — execute one (optionally sharded) benchmark slice, writing
  per-job checkpoints so an interrupted invocation resumes;
* ``merge`` — combine the shard checkpoints into one ``BENCH_*.json``;
* ``check`` — compare a ``BENCH_*.json`` against a committed baseline and
  exit non-zero on regression (the CI gate).

Example — the CI ``bench-regression`` job::

    python -m repro.benchmark run --pipelines azure arima --max-signals 1 \\
        --scale 0.02 --shard-index 0 --shard-count 2 \\
        --checkpoint-dir bench-ci --executor process --workers 2 --no-memory
    python -m repro.benchmark run ... --shard-index 1 --shard-count 2 ...
    python -m repro.benchmark merge --checkpoint-dir bench-ci \\
        --output bench-ci/BENCH_ci.json
    python -m repro.benchmark check --current bench-ci/BENCH_ci.json \\
        --baseline benchmarks/output/BENCH_ci_baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.executor import list_executors

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchmark",
        description="Sharded, resumable benchmark runs and the CI "
                    "perf-regression gate.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one (optionally sharded) benchmark slice")
    run.add_argument("--pipelines", nargs="+", default=None,
                     help="pipeline names (default: the paper's six)")
    run.add_argument("--datasets", nargs="+", default=None,
                     help="dataset names (default: all three synthetic sets)")
    run.add_argument("--method", default="overlapping",
                     choices=("overlapping", "weighted"))
    run.add_argument("--scale", type=float, default=0.02,
                     help="synthetic dataset scale (default: 0.02)")
    run.add_argument("--max-signals", type=int, default=None,
                     help="cap on signals per dataset")
    run.add_argument("--random-state", type=int, default=0)
    run.add_argument("--shard-index", type=int, default=None,
                     help="this invocation's shard (0-based)")
    run.add_argument("--shard-count", type=int, default=None,
                     help="total number of shards")
    run.add_argument("--checkpoint-dir", default=None,
                     help="directory for per-job JSONL checkpoints "
                          "(enables resume)")
    run.add_argument("--no-resume", action="store_true",
                     help="discard an existing checkpoint instead of "
                          "resuming from it")
    run.add_argument("--workers", type=int, default=1,
                     help="process-pool size for the jobs; 1 without "
                          "--executor runs them in the caller (default: 1)")
    run.add_argument("--executor", default=None,
                     help="job fan-out executor name ("
                          f"{', '.join(list_executors())})")
    run.add_argument("--no-memory", action="store_true",
                     help="skip tracemalloc memory profiling (faster)")
    run.add_argument("--verbose", action="store_true",
                     help="print one line per finished job")
    run.add_argument("--output", default=None,
                     help="also write this slice as a BENCH_*.json")
    run.add_argument("--explain-plan", action="store_true",
                     help="print each pipeline's compiled batch plan — "
                          "fusion chains and arena buffer sizes — instead "
                          "of benchmarking")

    merge = commands.add_parser(
        "merge", help="combine shard checkpoints into one BENCH_*.json")
    merge.add_argument("--checkpoint-dir", default=None,
                       help="directory holding the shard-*.jsonl files")
    merge.add_argument("--shards", nargs="+", default=None,
                       help="explicit shard checkpoint paths (alternative "
                            "to --checkpoint-dir)")
    merge.add_argument("--allow-partial", action="store_true",
                       help="merge even when some shards are missing")
    merge.add_argument("--output", required=True,
                       help="path of the merged BENCH_*.json")

    check = commands.add_parser(
        "check",
        help="compare a BENCH_*.json against a baseline; prints a "
             "per-pipeline delta table and exits 1 on quality/coverage "
             "failures, 3 on timing-only regressions",
    )
    check.add_argument("--current", required=True,
                       help="freshly produced BENCH_*.json")
    check.add_argument("--baseline", required=True,
                       help="committed baseline BENCH_*.json")
    check.add_argument("--time-tolerance", type=float, default=0.2,
                       help="relative wall-time band per pipeline "
                            "(default: 0.2 = ±20%%)")
    check.add_argument("--quality-atol", type=float, default=0.0,
                       help="absolute tolerance on quality metrics "
                            "(default: 0.0 = exact)")
    check.add_argument("--report", default=None,
                       help="also write the comparison report as JSON")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    if args.explain_plan:
        return _command_explain(args)
    from repro.benchmark.runner import benchmark

    result = benchmark(
        pipelines=args.pipelines,
        datasets=args.datasets,
        method=args.method,
        scale=args.scale,
        max_signals=args.max_signals,
        random_state=args.random_state,
        profile_memory=not args.no_memory,
        verbose=args.verbose,
        workers=args.workers,
        executor=args.executor,
        shard_index=args.shard_index,
        shard_count=args.shard_count,
        checkpoint_dir=args.checkpoint_dir,
        resume=not args.no_resume,
    )
    shard = (f"shard {args.shard_index}/{args.shard_count}"
             if args.shard_count is not None else "full run")
    errors = sum(1 for r in result.records if r.get("status") != "ok")
    print(f"{shard}: {len(result)} jobs finished ({errors} errored)")
    if args.output:
        result.sort_canonical().to_json(args.output)
        print(f"wrote {args.output}")
    return 0


def _command_explain(args: argparse.Namespace) -> int:
    from repro.benchmark.batch import explain_plan

    pipelines = args.pipelines
    if pipelines is None:
        from repro.pipelines import BENCHMARK_PIPELINES

        pipelines = list(BENCHMARK_PIPELINES)
    for index, name in enumerate(pipelines):
        if index:
            print()
        print(explain_plan(name))
    return 0


def _command_merge(args: argparse.Namespace) -> int:
    from repro.benchmark.results import merge_shard_checkpoints

    if (args.checkpoint_dir is None) == (args.shards is None):
        print("merge: give exactly one of --checkpoint-dir or --shards",
              file=sys.stderr)
        return 2
    result = merge_shard_checkpoints(
        args.checkpoint_dir if args.checkpoint_dir is not None else args.shards,
        expect_complete=not args.allow_partial,
    )
    result.to_json(args.output)
    print(f"merged {len(result)} records into {args.output}")
    return 0


#: ``check`` exit codes: quality/coverage failures (the benchmark's
#: *behaviour* changed) vs timing-only regressions (it merely got slower).
#: A report with both kinds exits with the quality code — correctness
#: dominates. The timing code deliberately avoids 2, which argparse uses
#: for usage errors — a consumer soft-failing on timing must never
#: mistake a broken invocation for a slowdown.
EXIT_QUALITY_FAILURE = 1
EXIT_TIMING_FAILURE = 3


def _command_check(args: argparse.Namespace) -> int:
    from repro.benchmark.regression import (
        compare_results,
        failure_kinds,
        format_delta_table,
        format_report,
    )
    from repro.benchmark.results import BenchmarkResult

    report = compare_results(
        BenchmarkResult.from_json(args.current),
        BenchmarkResult.from_json(args.baseline),
        time_tolerance=args.time_tolerance,
        quality_atol=args.quality_atol,
    )
    print(format_report(report))
    print()
    print(format_delta_table(report))
    if args.report:
        with open(args.report, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.report}")
    kinds = failure_kinds(report)
    if "quality" in kinds:
        return EXIT_QUALITY_FAILURE
    if "timing" in kinds:
        return EXIT_TIMING_FAILURE
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "merge":
        return _command_merge(args)
    return _command_check(args)
