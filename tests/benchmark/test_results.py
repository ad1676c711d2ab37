"""Tests for BenchmarkResult aggregation and checkpoint reading."""

import json

import pytest

from repro.benchmark import BenchmarkResult
from repro.benchmark.results import read_checkpoint_lines


def _record(pipeline, dataset, f1, fit_time=1.0, status="ok"):
    return {
        "pipeline": pipeline, "dataset": dataset, "signal": f"{dataset}-sig",
        "status": status, "f1": f1, "precision": f1, "recall": f1,
        "fit_time": fit_time, "detect_time": 0.5, "memory": 1e6,
    }


@pytest.fixture
def result():
    result = BenchmarkResult()
    result.add(_record("arima", "NAB", 0.5))
    result.add(_record("arima", "NAB", 0.7))
    result.add(_record("arima", "NASA", 0.4))
    result.add(_record("azure", "NAB", 0.2))
    result.add(_record("azure", "NASA", 0.0, status="error"))
    return result


class TestAggregation:
    def test_pipelines_and_datasets_discovered(self, result):
        assert result.pipelines == ["arima", "azure"]
        assert result.datasets == ["NAB", "NASA"]

    def test_quality_table_mean_std(self, result):
        table = result.quality_table()
        mean, std = table["arima"]["NAB"]["f1"]
        assert mean == pytest.approx(0.6)
        assert std == pytest.approx(0.1)

    def test_error_records_excluded_from_quality(self, result):
        table = result.quality_table()
        assert "NASA" not in table["azure"]

    def test_computational_table_sums_times(self, result):
        table = result.computational_table()
        assert table["arima"]["fit_time"] == pytest.approx(3.0)
        assert table["arima"]["signals"] == 3
        assert table["arima"]["memory_mb"] == pytest.approx(1.0)

    def test_ok_records_filtering(self, result):
        assert len(result.ok_records()) == 4
        assert len(result.ok_records(pipeline="azure")) == 1
        assert len(result.ok_records(dataset="NASA")) == 1

    def test_formatting_contains_pipelines(self, result):
        quality = result.format_quality()
        computational = result.format_computational()
        assert "arima" in quality and "azure" in quality
        assert "train time" in computational

    def test_csv_roundtrip(self, result, tmp_path):
        path = tmp_path / "records.csv"
        result.to_csv(path)
        content = path.read_text()
        assert "pipeline" in content.splitlines()[0]
        assert len(content.splitlines()) == len(result) + 1

    def test_empty_csv_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            BenchmarkResult().to_csv(tmp_path / "empty.csv")


class TestReadCheckpointLines:
    def _jsonl(self, tmp_path, lines):
        path = tmp_path / "ckpt.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_torn_trailing_line_always_dropped(self, tmp_path):
        path = tmp_path / "ckpt.jsonl"
        path.write_text(json.dumps({"kind": "record", "key": "a",
                                    "record": {}}) + "\n" + '{"kind": "rec')
        assert len(read_checkpoint_lines(str(path))) == 1

    def test_corrupt_middle_line_raises_by_default(self, tmp_path):
        path = self._jsonl(tmp_path, ['{"kind": "header"}', "{broken",
                                      '{"kind": "record", "key": "a", '
                                      '"record": {}}'])
        with pytest.raises(ValueError, match="line 2"):
            read_checkpoint_lines(path)

    def test_missing_file_skip_returns_empty(self, tmp_path):
        missing = str(tmp_path / "never-written.jsonl")
        with pytest.raises(FileNotFoundError):
            read_checkpoint_lines(missing)

    def test_blank_lines_ignored(self, tmp_path):
        path = self._jsonl(tmp_path, ['{"kind": "header"}', "",
                                      '{"kind": "record", "key": "a", '
                                      '"record": {}}'])
        assert len(read_checkpoint_lines(path)) == 2
