#!/usr/bin/env python
"""CI hygiene checker for the GitHub Actions workflows.

Run from the lint job (and locally: ``python tools/check_workflows.py``).
Fails the build when a workflow regresses on any of the rules the repo
has adopted:

1. every job sets ``timeout-minutes`` — a hung runner must not burn the
   six-hour default;
2. every remote action is pinned to an exact release tag
   (``owner/repo@vX.Y.Z``) — floating major tags (``@v4``) silently pull
   new code into CI;
3. every ``bench-*`` job uploads its artifacts with
   ``if-no-files-found: error`` — a benchmark leg that produced no
   artifact must fail, not upload nothing;
4. every ``.py`` / ``.json`` path under ``tests/``, ``benchmarks/``,
   ``examples/`` or ``tools/`` that a workflow names — test files a leg
   runs, scripts, committed benchmark baselines — exists in the tree, so
   a deleted file left in a leg fails lint instead of failing at run
   time.

The rules also apply to composite actions under ``.github/actions/``.
"""

from __future__ import annotations

import os
import re
import sys
from typing import List

import yaml

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKFLOWS_DIR = os.path.join(REPO_ROOT, ".github", "workflows")
ACTIONS_DIR = os.path.join(REPO_ROOT, ".github", "actions")

#: Exact release tag (v1.2.3) or a full commit SHA.
EXACT_REF = re.compile(r"@(v\d+\.\d+\.\d+|[0-9a-f]{40})$")
#: A repository path a workflow may name: a ``.py`` or ``.json`` file under
#: one of the tracked top-level directories (not preceded by another path
#: segment, so ``/tmp/benchmarks/x.json`` is not taken for one).
REPO_PATH_REF = re.compile(
    r"(?<![\w./-])(?:tests|benchmarks|examples|tools)/[\w./-]*\.(?:py|json)\b")


def _yaml_files(directory: str) -> List[str]:
    found = []
    for root, _dirs, files in os.walk(directory):
        for name in sorted(files):
            if name.endswith((".yml", ".yaml")):
                found.append(os.path.join(root, name))
    return found


def _check_uses(where: str, steps, errors: List[str]) -> None:
    for step in steps or []:
        uses = step.get("uses")
        if not uses or uses.startswith("./"):
            continue
        if not EXACT_REF.search(uses):
            errors.append(
                f"{where}: action {uses!r} is not pinned to an exact "
                f"release tag (expected owner/repo@vX.Y.Z or a full SHA)")


def check_workflow(path: str) -> List[str]:
    errors: List[str] = []
    rel = os.path.relpath(path, REPO_ROOT)
    with open(path) as handle:
        workflow = yaml.safe_load(handle)

    for job_name, job in (workflow.get("jobs") or {}).items():
        where = f"{rel}:{job_name}"
        if "timeout-minutes" not in job:
            errors.append(f"{where}: job has no timeout-minutes")
        _check_uses(where, job.get("steps"), errors)

        if job_name.startswith("bench-"):
            uploads = [step for step in job.get("steps") or []
                       if (step.get("uses") or "").startswith(
                           "actions/upload-artifact")]
            if not uploads:
                errors.append(f"{where}: bench job uploads no artifacts")
            for step in uploads:
                policy = (step.get("with") or {}).get("if-no-files-found")
                if policy != "error":
                    errors.append(
                        f"{where}: artifact upload must set "
                        f"if-no-files-found: error (got {policy!r})")

    # Repository paths named by the workflow must exist.
    with open(path) as handle:
        text = handle.read()
    for named in sorted(set(REPO_PATH_REF.findall(text))):
        if not os.path.exists(os.path.join(REPO_ROOT, named)):
            errors.append(f"{rel}: names {named}, which is not in the tree")
    return errors


def check_composite_action(path: str) -> List[str]:
    errors: List[str] = []
    rel = os.path.relpath(path, REPO_ROOT)
    with open(path) as handle:
        action = yaml.safe_load(handle)
    _check_uses(rel, (action.get("runs") or {}).get("steps"), errors)
    return errors


def main() -> int:
    errors: List[str] = []
    workflows = _yaml_files(WORKFLOWS_DIR)
    if not workflows:
        errors.append("no workflow files found under .github/workflows")
    for path in workflows:
        errors.extend(check_workflow(path))
    if os.path.isdir(ACTIONS_DIR):
        for path in _yaml_files(ACTIONS_DIR):
            errors.extend(check_composite_action(path))

    if errors:
        for error in errors:
            print(f"::error::{error}")
        return 1
    print(f"workflow hygiene ok: {len(workflows)} workflow(s) checked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
