"""The alternating-pairs comparison in ``tools/bench_pairs.py``."""

import importlib.util
import json
import os
import sys
import textwrap

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                    "tools", "bench_pairs.py")

DIRECTIONS = {"throughput_per_s": "higher", "setup_s": "lower"}
BOUNDS = {"throughput_per_s": 0.25, "setup_s": 0.25}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(throughput, setup=1.0, failed=0):
    return {"correct": True, "attempted": 10, "failed": failed, "metrics": {
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"}}}


def _row(rows, name):
    [row] = [row for row in rows if row["metric"] == name]
    return row


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_iqr(bench_pairs):
    parent = [10.0, 11.0, 12.0, 10.5, 11.5, 10.0, 11.0, 12.0, 10.5, 11.5]
    nine = [(_result(p), _result(p + 5.0 if i else p - 1.0))
            for i, p in enumerate(parent)]
    row = _row(bench_pairs.summarize(nine, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["wins"] == 9 and row["gain"] is True
    assert row["parent_median"] == 11.0 and row["parent_iqr"] == 1.0

    eight = [(_result(p), _result(p + 5.0 if i < 8 else p))
             for i, p in enumerate(parent)]
    row = _row(bench_pairs.summarize(eight, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["wins"] == 8 and row["gain"] is False  # ties win nothing

    close = [(_result(p), _result(p + 0.1)) for p in parent]
    row = _row(bench_pairs.summarize(close, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["wins"] == 10 and row["gain"] is False  # gap inside the IQR


def test_lower_is_better_and_worse_fraction(bench_pairs):
    pairs = [(_result(10.0, setup=2.0), _result(7.0, setup=1.0))
             for _ in range(10)]
    rows = bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS)
    setup = _row(rows, "setup_s")
    assert setup["wins"] == 10 and setup["gain"] is True
    assert setup["worse_frac"] == pytest.approx(-0.5)
    assert setup["verdict"] == "ok"
    throughput = _row(rows, "throughput_per_s")
    assert throughput["wins"] == 0 and throughput["gain"] is False
    assert throughput["worse_frac"] == pytest.approx(0.3)
    assert throughput["verdict"] == "WORSE"


def test_no_gain_on_fewer_than_ten_pairs(bench_pairs):
    for count in (1, 4, 9):
        pairs = [(_result(10.0, setup=2.0), _result(20.0, setup=1.0))
                 for _ in range(count)]
        for row in bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS):
            assert row["wins"] == count and row["gain"] is False, count


def test_no_gain_when_the_change_fails_a_larger_share(bench_pairs):
    pairs = [(_result(10.0), _result(20.0, failed=1 if i == 3 else 0))
             for i in range(10)]
    row = _row(bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["wins"] == 10 and row["gain"] is False
    pairs = [(_result(10.0, failed=1), _result(20.0, failed=1))
             for _ in range(10)]
    row = _row(bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["gain"] is True


def test_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    # Parent quartiles 7.5..12.5 around a median of 10: a 50% spread
    # against a 25% bound, so a 10% lower change median shows nothing.
    parent = [5.0, 7.5, 10.0, 12.5, 15.0] * 2
    pairs = [(_result(p), _result(p - 1.0)) for p in parent]
    row = _row(bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert (row["parent_q1"], row["parent_q3"]) == (7.5, 12.5)
    assert (row["change_q1"], row["change_q3"]) == (6.5, 11.5)
    assert row["worse_frac"] == pytest.approx(0.1)
    assert row["verdict"] == "unresolved"
    # Unless every change run reads better than every parent run.
    pairs = [(_result(p), _result(p + 20.0)) for p in parent]
    row = _row(bench_pairs.summarize(pairs, DIRECTIONS, BOUNDS),
               "throughput_per_s")
    assert row["verdict"] == "ok" and row["gain"] is True


def _checkout(root, name, throughput, log):
    """A fake checkout whose benchmark prints one JSON result line."""
    path = root / name
    path.mkdir()
    (path / "bench.py").write_text(textwrap.dedent(f"""\
        import sys
        with open({str(log)!r}, "a") as handle:
            handle.write({name!r} + " " + " ".join(sys.argv[1:]) + "\\n")
        print("human-readable ledger")
        print({json.dumps(_result(throughput))!r})
        """))
    (path / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "bench.py"], "run_seconds": 3,
        "end_to_end": [{"name": metric, "better": better, "bound": 0.25}
                       for metric, better in DIRECTIONS.items()]}))
    return str(path)


def test_runs_alternate_and_the_table_prints(bench_pairs, tmp_path, capsys):
    log = tmp_path / "runs.log"
    parent = _checkout(tmp_path, "parent", 10.0, log)
    change = _checkout(tmp_path, "change", 20.0, log)
    assert bench_pairs.main([parent, change, "--workload", "api",
                             "--pairs", "3", "--seed", "7"]) == 0
    runs = log.read_text().splitlines()
    assert [run.split()[0] for run in runs] == [
        "parent", "change", "change", "parent", "parent", "change"]
    assert all(run.split()[1:] == ["--workload", "api", "--seed", "7",
                                   "--seconds", "3"] for run in runs)
    table = capsys.readouterr().out.split("\n\n")[-1]
    assert "throughput_per_s" in table and "3/3" in table
