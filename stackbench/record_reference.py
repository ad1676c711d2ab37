"""Record the ``sweep`` workload's per-pipeline F1 for a range of seeds.

    python3 stackbench/record_reference.py --seeds 0-29

Runs one pool sweep per seed with exactly the settings of the ``sweep``
workload and writes ``stackbench/reference.json``, which the workload's
output check compares against. Re-record only when a change is meant to
alter detection quality, and show the per-pipeline differences when you
do.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run  # first: it pins the BLAS thread pools before numpy loads

from workloads import REFERENCE_PATH, Sweep


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-29",
                        help="inclusive seed range, e.g. 0-29")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.join(run.ROOT, "src"))

    recorded = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH) as handle:
            recorded = json.load(handle).get("sweep_f1", {})
    for seed in _seeds(args.seeds):
        result = Sweep.sweep(Sweep(seed, 0).build_datasets())
        failed = [r for r in result.records if r["status"] != "ok"]
        if failed:
            print(f"seed {seed}: {len(failed)} failed job(s); not recorded")
            continue
        recorded[str(seed)] = Sweep._f1_by_pipeline(result.records)
        print(f"seed {seed}: {recorded[str(seed)]}", flush=True)
    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"sweep_f1": dict(sorted(recorded.items(),
                                           key=lambda item: int(item[0])))},
                  handle, indent=1, sort_keys=False)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
