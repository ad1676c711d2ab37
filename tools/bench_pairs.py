#!/usr/bin/env python
"""Compare two checkouts on one benchmark workload, in alternating pairs.

Usage::

    python tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --pairs N --seed S

Each checkout must hold the repository, ``BENCHMARK.json`` included. The
benchmark command and its run length are read from the parent's
``BENCHMARK.json`` and run unchanged from each checkout's root:
``<command> --workload W --seed S --seconds <run_seconds>``. Pair ``i``
runs the parent first when ``i`` is even and the change first when it is
odd. Each run's last line of standard output is its JSON result.

For every metric the script prints each side's median and quartiles,
the parent's interquartile range, how many pairs the change won (ties
count for neither side) and whether a gain may be claimed: at least ten
pairs were run, the change wins at least nine tenths of them, the medians
differ, in the metric's better direction, by more than the parent's
interquartile range, and the change's share of failed operations, summed
over its runs, is no higher than the parent's. For the end-to-end metrics
it also prints how much worse the change's median is than the parent's
and a verdict against the bound ``BENCHMARK.json`` fixes: ``WORSE`` past
the bound; ``unresolved`` when the parent's interquartile range, relative
to its median, is wider than the bound, unless every run of the change
reads better than every run of the parent; ``ok`` otherwise. The exit code
is 1 when a run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Optional, Tuple


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="checkout of the parent commit")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    return args


def run_once(checkout: str, benchmark: dict, workload: str,
             seed: int) -> dict:
    """One benchmark run from ``checkout``; returns its JSON result."""
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"])]
    completed = subprocess.run(command, cwd=checkout, capture_output=True,
                               text=True)
    lines = completed.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0,
                  "metrics": {}}
    result["exit_code"] = completed.returncode
    return result


#: Fewest pairs on which a gain may be claimed.
MIN_PAIRS = 10


def quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return low, high


def failed_share(results: List[dict]) -> float:
    """Failed operations over attempted ones, summed over ``results``."""
    attempted = sum(result["attempted"] for result in results)
    failed = sum(result["failed"] for result in results)
    return failed / max(attempted, 1)


def summarize(pairs: List[Tuple[dict, dict]], directions: Dict[str, str],
              bounds: Dict[str, float]) -> List[dict]:
    """One row per metric both sides of every pair reported.

    ``pairs`` holds ``(parent_result, change_result)`` tuples; directions
    map a metric to ``"higher"`` or ``"lower"``, bounds an end-to-end
    metric to the fraction by which it may worsen.
    """
    names = set.intersection(*[set(parent["metrics"]) & set(change["metrics"])
                               for parent, change in pairs])
    fails_no_more = (failed_share([c for _, c in pairs])
                     <= failed_share([p for p, _ in pairs]))
    rows = []
    for name in sorted(names):
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        parent_q1, parent_q3 = quartiles(parent)
        change_q1, change_q3 = quartiles(change)
        row = {"metric": name, "unit": pairs[0][0]["metrics"][name]["unit"],
               "parent_median": statistics.median(parent),
               "parent_q1": parent_q1, "parent_q3": parent_q3,
               "parent_iqr": parent_q3 - parent_q1,
               "change_median": statistics.median(change),
               "change_q1": change_q1, "change_q3": change_q3,
               "pairs": len(pairs), "wins": None, "gain": None,
               "worse_frac": None, "bound": bounds.get(name),
               "verdict": None}
        better = directions.get(name)
        if better in ("higher", "lower"):
            sign = 1.0 if better == "higher" else -1.0
            row["wins"] = sum(sign * (c - p) > 0
                              for p, c in zip(parent, change))
            gap = sign * (row["change_median"] - row["parent_median"])
            row["gain"] = (len(pairs) >= MIN_PAIRS
                           and row["wins"] >= 0.9 * len(pairs)
                           and gap > row["parent_iqr"] and fails_no_more)
            if row["parent_median"]:
                scale = abs(row["parent_median"])
                row["worse_frac"] = -gap / scale
                if row["bound"] is not None:
                    separated = (min(sign * c for c in change)
                                 > max(sign * p for p in parent))
                    if row["worse_frac"] > row["bound"]:
                        row["verdict"] = "WORSE"
                    elif (row["parent_iqr"] / scale > row["bound"]
                          and not separated):
                        row["verdict"] = "unresolved"
                    else:
                        row["verdict"] = "ok"
        rows.append(row)
    return rows


def _cell(value: Optional[float], spec: str = ".4g") -> str:
    return "-" if value is None else format(value, spec)


def print_rows(rows: List[dict]) -> None:
    header = (f"{'metric':<24} {'unit':<5} {'parent':>10} "
              f"{'parent q1..q3':>21} {'change':>10} {'change q1..q3':>21} "
              f"{'parent IQR':>10} {'wins':>6} {'gain':>5} {'worse':>8} "
              f"{'bound':>6} verdict")
    print(header)
    print("-" * len(header))
    for row in rows:
        wins = "-" if row["wins"] is None else f"{row['wins']}/{row['pairs']}"
        gain = "-" if row["gain"] is None else ("yes" if row["gain"] else "no")
        parent_span = f"{_cell(row['parent_q1'])}..{_cell(row['parent_q3'])}"
        change_span = f"{_cell(row['change_q1'])}..{_cell(row['change_q3'])}"
        print(f"{row['metric']:<24} {row['unit']:<5} "
              f"{_cell(row['parent_median']):>10} {parent_span:>21} "
              f"{_cell(row['change_median']):>10} {change_span:>21} "
              f"{_cell(row['parent_iqr']):>10} {wins:>6} {gain:>5} "
              f"{_cell(row['worse_frac'], '+.1%'):>8} "
              f"{_cell(row['bound'], '.0%'):>6} {row['verdict'] or '-'}")


def main(argv=None) -> int:
    args = _parse(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    metrics = benchmark.get("end_to_end", []) + benchmark.get("per_layer", [])
    directions = {metric["name"]: metric["better"] for metric in metrics}
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark.get("end_to_end", [])}
    sides = {"parent": args.parent, "change": args.change}
    pairs = []
    healthy = True
    for index in range(args.pairs):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            result = run_once(sides[side], benchmark, args.workload,
                              args.seed)
            results[side] = result
            values = {name: metric["value"]
                      for name, metric in sorted(result["metrics"].items())}
            print(f"pair {index + 1} {side}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} exit={result['exit_code']} "
                  f"{json.dumps(values)}", flush=True)
            healthy = healthy and result["correct"] \
                and result["exit_code"] == 0
        pairs.append((results["parent"], results["change"]))
    print(f"\n{args.workload}: seed={args.seed} pairs={args.pairs} "
          f"seconds={benchmark['run_seconds']} failed share: parent "
          f"{failed_share([p for p, _ in pairs]):.2%}, change "
          f"{failed_share([c for _, c in pairs]):.2%}")
    print_rows(summarize(pairs, directions, bounds))
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
