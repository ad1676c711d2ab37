"""Benchmark result containers, table formatting, and shard merging."""

from __future__ import annotations

import csv
import glob
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = ["BenchmarkResult", "merge_shard_checkpoints", "read_checkpoint_lines"]


def read_checkpoint_lines(path) -> List[dict]:
    """Parse a JSONL checkpoint file, tolerating a torn final line.

    A process killed mid-append (SIGKILL, OOM, full disk) leaves a partial
    trailing line; that line is dropped, so its job is simply recomputed on
    resume. A checkpoint has one writer, which cannot tear a middle line,
    so a corrupt line anywhere else means the file is damaged and parsing
    raises rather than silently losing records. A missing file raises
    :class:`FileNotFoundError`.
    """
    with open(path) as handle:
        lines = handle.read().splitlines()
    entries: List[dict] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            entries.append(json.loads(line))
        except json.JSONDecodeError:
            if index == len(lines) - 1:
                break
            raise ValueError(
                f"Corrupt checkpoint line {index + 1} in {path}; the file "
                "is damaged beyond a torn trailing write"
            )
    return entries


@dataclass
class BenchmarkResult:
    """Raw per-signal benchmark records plus aggregation helpers.

    Every record is a dictionary with at least ``pipeline``, ``dataset``,
    ``signal``, the quality metrics (``f1``, ``precision``, ``recall``), the
    computational metrics (``fit_time``, ``detect_time``, ``memory``), and a
    ``status`` field (``"ok"`` or ``"error"``).
    """

    records: List[dict] = field(default_factory=list)
    method: str = "overlapping"

    def add(self, record: dict) -> None:
        """Append a record."""
        self.records.append(dict(record))

    # ------------------------------------------------------------------ #
    @property
    def pipelines(self) -> List[str]:
        """Pipelines present in the records."""
        return sorted({record["pipeline"] for record in self.records})

    @property
    def datasets(self) -> List[str]:
        """Datasets present in the records."""
        return sorted({record["dataset"] for record in self.records})

    def ok_records(self, pipeline: Optional[str] = None,
                   dataset: Optional[str] = None) -> List[dict]:
        """Successful records, optionally filtered."""
        selected = [record for record in self.records if record.get("status") == "ok"]
        if pipeline is not None:
            selected = [r for r in selected if r["pipeline"] == pipeline]
        if dataset is not None:
            selected = [r for r in selected if r["dataset"] == dataset]
        return selected

    # ------------------------------------------------------------------ #
    def quality_table(self, metrics=("f1", "precision", "recall")) -> Dict[str, dict]:
        """Aggregate quality metrics per pipeline per dataset (Table 3).

        Returns ``{pipeline: {dataset: {metric: (mean, std)}}}``.
        """
        table: Dict[str, dict] = {}
        for pipeline in self.pipelines:
            table[pipeline] = {}
            for dataset in self.datasets:
                rows = self.ok_records(pipeline, dataset)
                if not rows:
                    continue
                table[pipeline][dataset] = {
                    metric: (
                        float(np.mean([row[metric] for row in rows])),
                        float(np.std([row[metric] for row in rows])),
                    )
                    for metric in metrics
                }
        return table

    def computational_table(self) -> Dict[str, dict]:
        """Aggregate computational metrics per pipeline (Figure 7a).

        Returns ``{pipeline: {"fit_time": s, "detect_time": s, "memory": MB}}``
        summed over every benchmarked signal, mirroring the paper's totals.
        """
        table = {}
        for pipeline in self.pipelines:
            rows = self.ok_records(pipeline)
            if not rows:
                continue
            table[pipeline] = {
                "fit_time": float(np.sum([row["fit_time"] for row in rows])),
                "detect_time": float(np.sum([row["detect_time"] for row in rows])),
                "memory_mb": float(np.max([row.get("memory", 0) for row in rows]) / 1e6),
                "signals": len(rows),
            }
        return table

    # ------------------------------------------------------------------ #
    def format_quality(self) -> str:
        """Render the Table 3 layout as aligned text."""
        table = self.quality_table()
        lines = []
        header = f"{'pipeline':<24}" + "".join(
            f"{dataset + ' ' + metric:>18}"
            for dataset in self.datasets
            for metric in ("f1", "precision", "recall")
        )
        lines.append(header)
        lines.append("-" * len(header))
        for pipeline in self.pipelines:
            cells = [f"{pipeline:<24}"]
            for dataset in self.datasets:
                metrics = table.get(pipeline, {}).get(dataset)
                for metric in ("f1", "precision", "recall"):
                    if metrics is None:
                        cells.append(f"{'-':>18}")
                    else:
                        mean, std = metrics[metric]
                        cells.append(f"{mean:>10.3f} ±{std:>5.2f}")
            lines.append("".join(cells))
        return "\n".join(lines)

    def format_computational(self) -> str:
        """Render the Figure 7a aggregates as aligned text."""
        table = self.computational_table()
        lines = [f"{'pipeline':<24}{'train time (s)':>16}{'latency (s)':>14}"
                 f"{'memory (MB)':>14}{'signals':>10}"]
        lines.append("-" * len(lines[0]))
        for pipeline, row in sorted(table.items()):
            lines.append(
                f"{pipeline:<24}{row['fit_time']:>16.2f}{row['detect_time']:>14.2f}"
                f"{row['memory_mb']:>14.2f}{row['signals']:>10}"
            )
        return "\n".join(lines)

    def to_csv(self, path) -> None:
        """Dump the raw records to a CSV file."""
        if not self.records:
            raise ValueError("There are no records to write")
        fieldnames = sorted({key for record in self.records for key in record})
        with open(path, "w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=fieldnames)
            writer.writeheader()
            writer.writerows(self.records)

    # ------------------------------------------------------------------ #
    def sort_canonical(self) -> "BenchmarkResult":
        """Sort records by (dataset, pipeline, signal), in place.

        This is the canonical ``BENCH_*.json`` order: independent of shard
        layout, worker count, and dataset insertion order, so merged shard
        outputs and single-run outputs compare byte-for-byte on identity.
        """
        self.records.sort(
            key=lambda r: (r.get("dataset", ""), r.get("pipeline", ""),
                           r.get("signal", ""))
        )
        return self

    def to_json(self, path) -> None:
        """Write the result as a ``BENCH_*.json`` document."""
        payload = {"method": self.method, "records": self.records}
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2, default=float)
            handle.write("\n")

    @classmethod
    def from_json(cls, path) -> "BenchmarkResult":
        """Load a result written by :meth:`to_json`."""
        with open(path) as handle:
            payload = json.load(handle)
        return cls(records=list(payload.get("records", [])),
                   method=payload.get("method", "overlapping"))

    def __len__(self) -> int:
        return len(self.records)


# --------------------------------------------------------------------------- #
# shard merging
# --------------------------------------------------------------------------- #
def merge_shard_checkpoints(
        source: Union[str, Sequence[str]],
        expect_complete: bool = True) -> BenchmarkResult:
    """Combine per-shard checkpoint files into one canonical result.

    Args:
        source: a checkpoint directory (every ``shard-*.jsonl`` inside is
            merged) or an explicit sequence of checkpoint file paths.
        expect_complete: verify that the shard files form one full run —
            consistent headers, every shard index from ``0`` to
            ``shard_count - 1`` present exactly once. Disable to merge a
            partial collection (e.g. to inspect an in-flight run).

    Returns:
        A :class:`BenchmarkResult` with the union of every shard's records
        in canonical (dataset, pipeline, signal) order.

    Raises:
        ValueError: on inconsistent headers, duplicate job keys across
            shards, or (with ``expect_complete``) missing shards.
    """
    if isinstance(source, (str, os.PathLike)):
        paths = sorted(glob.glob(os.path.join(str(source), "shard-*.jsonl")))
        if not paths:
            raise ValueError(f"No shard-*.jsonl checkpoints found in {source!r}")
    else:
        paths = list(source)
        if not paths:
            raise ValueError("No checkpoint files given")

    headers: List[dict] = []
    records: Dict[str, dict] = {}
    counts_by_path: Dict[str, int] = {}
    for path in paths:
        counts_by_path[path] = 0
        for entry in read_checkpoint_lines(path):
            if entry.get("kind") == "header":
                headers.append({**entry, "path": path})
            elif entry.get("kind") == "record":
                if entry["key"] in records:
                    raise ValueError(
                        f"Job {entry['key']!r} appears in more than one "
                        "shard checkpoint; the shards do not partition "
                        "one run"
                    )
                records[entry["key"]] = entry["record"]
                counts_by_path[path] += 1

    methods = {header.get("method") for header in headers}
    if len(methods) > 1:
        raise ValueError(
            f"Checkpoints mix evaluation methods {sorted(methods, key=str)}"
        )
    if expect_complete:
        if not headers:
            raise ValueError("No checkpoint headers found; nothing to verify")
        counts = {header.get("shard_count") for header in headers}
        if len(counts) != 1:
            raise ValueError(
                "Checkpoints disagree on shard_count: "
                f"{sorted(counts, key=str)}"
            )
        if not isinstance(next(iter(counts)), int):
            raise ValueError(
                f"Checkpoint headers carry no usable shard_count in {paths}"
            )
        expected = set(range(counts.pop()))
        seen = [header.get("shard_index") for header in headers]
        if sorted(seen, key=str) != sorted(expected, key=str):
            raise ValueError(
                f"Expected shards {sorted(expected)}, "
                f"found {sorted(seen, key=str)}"
            )
        # Each shard must have finished every job its header announced —
        # an interrupted shard would otherwise merge into a silently
        # incomplete "canonical" result.
        for header in headers:
            announced = header.get("n_jobs")
            finished = counts_by_path[header["path"]]
            if isinstance(announced, int) and finished < announced:
                raise ValueError(
                    f"Shard {header.get('shard_index')} "
                    f"({header['path']}) finished {finished} of "
                    f"{announced} jobs; resume it before merging, or pass "
                    "expect_complete=False for a partial merge"
                )

    method = methods.pop() if methods else "overlapping"
    result = BenchmarkResult(records=list(records.values()), method=method)
    return result.sort_canonical()
