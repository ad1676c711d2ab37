"""Run one benchmark workload and print its ledger.

    python3 stackbench/run.py --workload {sweep,batch,stream,api} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the timed phase runs untraced and the last line of
standard output is the JSON result with the end-to-end metrics. With
``--trace 1`` the timed phase is split in two halves, the first untraced
and the second traced, and the JSON carries the per-layer ledger
(``trace.overhead_frac`` compares the two halves). The lines before it
are the human-readable ledger: the environment block, every metric with
its unit and sample count, the workload's own named metrics and the
output checks. The exit code is 1 when an output check fails, 2 when the
program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

#: BLAS/OpenMP thread pools are pinned before numpy loads, identically for
#: every workload: two ``sweep`` pool workers on two cores would otherwise
#: oversubscribe them with BLAS threads.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "batch", "stream", "api"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _arena_counts(pools) -> dict:
    return {id(pool): pool.stats() for pool in pools}


def _traced_phase(workload, half: float, untraced: dict) -> dict:
    """Run the traced half and return the per-layer ledger."""
    from tracing import SpanIndex, Tracer, layer_metrics

    trace_dir = os.path.join(OUT, f"trace-{os.getpid()}")
    os.makedirs(trace_dir, exist_ok=True)
    tracer = Tracer(trace_dir)
    tracer.install()
    workload.before_traced(tracer)
    known = workload.arenas()
    before = _arena_counts(known)
    tracer.enabled = True
    traced = workload.run(half, tracer)
    tracer.enabled = False
    after = _arena_counts(set(known) | set(tracer.arenas))
    spans = tracer.collect()
    os.rmdir(trace_dir)

    facts = workload.facts(traced)
    facts["overhead_frac"] = (workload.unit_wall(traced)
                              / workload.unit_wall(untraced) - 1.0)
    for key in ("allocations", "reuses"):
        facts[f"arena_{key}"] = sum(
            stats[key] - before.get(pool, {}).get(key, 0)
            for pool, stats in after.items())
    index = SpanIndex(spans, os.getpid())
    layers = layer_metrics(index, traced["wall"], facts)
    summary = os.path.join(
        OUT, f"{workload.name}-seed{workload.seed}-trace.json")
    with open(summary, "w") as handle:
        json.dump({"layers": layers, "spans": index.summary(),
                   "n_spans": len(spans)}, handle, indent=1)
    return layers


def _print_table(title, rows) -> None:
    print(f"-- {title}")
    for name, value, unit, samples in rows:
        print(f"   {name:<36} {value:>14.6g} {unit:<10} n={samples}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"stackbench: no program found at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)

    from common import environment, median, peak_rss_mb
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    workload.set_up()
    setup_s = median(workload.setup_times)

    if args.trace:
        half = args.seconds / 2.0
        untraced = workload.run(half)
        metrics = _traced_phase(workload, half, untraced)
        units = {}
    else:
        phase = workload.run(args.seconds, min_units=workload.min_units)
        gated, rows = workload.report(phase)
        gated["setup_s"] = (setup_s, "s", len(workload.setup_times))
        gated["peak_rss_mb"] = (peak_rss_mb(), "MB", 1)
        metrics = {name: value for name, (value, _, _) in gated.items()}
        units = {name: unit for name, (_, unit, _) in gated.items()}

    workload.check()
    correct = not workload.problems

    env = environment(ROOT, args.seed, args.seconds, bool(args.trace),
                      {"setup": len(workload.setup_times),
                       "min_units": workload.min_units},
                      BLAS_THREADS)
    print(f"stackbench {args.workload}: seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    if args.trace:
        _print_table("per-layer ledger (traced half)",
                     [(name, value, _unit(name), "-")
                      for name, value in metrics.items()])
    else:
        _print_table("end-to-end metrics",
                     [(name, value, unit, samples)
                      for name, (value, unit, samples)
                      in sorted(gated.items())])
        _print_table(f"{args.workload} metrics", rows)
    reference = getattr(workload, "reference_used", None)
    if reference is not None:
        print(f"-- reference F1 for seed {args.seed}: "
              f"{'checked' if reference else 'not recorded'}")
    print(f"-- checks: {'ok' if correct else 'FAILED'} "
          f"(attempted={workload.attempted}, failed={workload.failed})")
    for message in workload.problems:
        print(f"   {message}")

    result = {
        "correct": correct,
        "attempted": max(1, int(workload.attempted)),
        "failed": int(workload.failed),
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or _unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def _unit(name: str) -> str:
    """Unit of a per-layer metric, read from the words of its name."""
    words = re.split(r"[._]", name)
    if "ms" in words:
        return "ms"
    if "s" in words:
        return "s"
    if "ratio" in words or "frac" in words:
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
