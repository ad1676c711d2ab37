"""The workflow hygiene checker in ``tools/check_workflows.py``."""

import importlib.util
import os
import textwrap

import pytest

pytest.importorskip("yaml")

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "tools", "check_workflows.py")

#: A minimal workflow that passes every other rule; ``{run}`` is the
#: command of its only step.
WORKFLOW = textwrap.dedent("""\
    name: CI
    on: [push]
    jobs:
      tests:
        runs-on: ubuntu-latest
        timeout-minutes: 10
        steps:
          - run: {run}
    """)


@pytest.fixture(scope="module")
def check_workflows():
    spec = importlib.util.spec_from_file_location("check_workflows", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(check_workflows, tmp_path, run):
    path = tmp_path / "ci.yml"
    path.write_text(WORKFLOW.format(run=run))
    return check_workflows.check_workflow(str(path))


def test_missing_test_file_fails(check_workflows, tmp_path):
    errors = _check(check_workflows, tmp_path,
                    "python -m pytest tests/core/test_executor.py "
                    "tests/core/test_no_such_file.py")
    assert len(errors) == 1
    assert "tests/core/test_no_such_file.py" in errors[0]


def test_existing_and_foreign_paths_pass(check_workflows, tmp_path):
    # Only paths under the tracked directories count; a path that merely
    # contains one of their names further down is someone else's file.
    errors = _check(check_workflows, tmp_path,
                    "python tools/code_lines.py src && cp "
                    "benchmarks/output/BENCH_api.json /tmp/tests/copy.json")
    assert errors == []


def test_repository_workflows_pass(check_workflows):
    assert check_workflows.main() == 0
