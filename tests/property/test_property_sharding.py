"""A merged sharded benchmark does not depend on the shard layout.

Hypothesis draws a shard count (1 to 4), a fan-out per shard (in the
caller, a process pool of one or two, or ``workers=2`` with no
executor), the order in which the shards run, and one interrupted shard:
once every shard has run, the last record of its checkpoint is removed
and the shard runs again, resuming from the records that are left. The
merged checkpoints' deterministic fields must equal an unsharded serial
run's, record for record; moving one record's ``f1`` by one ulp must
break the equality (the negative control). Azure and arima run over two
small ``WorkloadGenerator`` datasets of two signals each: eight jobs.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark import benchmark, merge_shard_checkpoints
from repro.data.synthetic import WorkloadGenerator

PIPELINES = ["azure", "arima"]

#: ``benchmark`` keyword arguments of each drawable fan-out.
FAN_OUTS = {
    "serial": {},
    "process-1": {"executor": "process", "workers": 1},
    "process-2": {"executor": "process", "workers": 2},
    "workers-2": {"workers": 2},
}

#: Fields a sharded run must reproduce exactly (timings differ per run).
DETERMINISTIC = ("pipeline", "dataset", "signal", "status", "f1",
                 "precision", "recall", "n_detected", "n_truth")


def _quality_view(result):
    return [{field: record.get(field) for field in DETERMINISTIC}
            for record in result.sort_canonical().records]


@st.composite
def layouts(draw):
    """Shard count, per-shard fan-out, run order and interrupted shard."""
    count = draw(st.integers(1, 4))
    return {"count": count,
            "fan_outs": [draw(st.sampled_from(sorted(FAN_OUTS)))
                         for _ in range(count)],
            "order": draw(st.permutations(range(count))),
            "interrupted": draw(st.integers(0, count - 1))}


@pytest.fixture(scope="module")
def datasets():
    return {name: WorkloadGenerator(seed=seed, length=200,
                                    anomalies_per_signal=2).fleet(2, name)
            for seed, name in ((1, "alpha"), (2, "beta"))}


@pytest.fixture(scope="module")
def unsharded(datasets):
    return _quality_view(benchmark(pipelines=PIPELINES, datasets=datasets,
                                   profile_memory=False))


def _run_layout(datasets, layout, directory):
    """Run every shard of ``layout``, interrupt one, resume it, merge."""
    count = layout["count"]
    common = dict(pipelines=PIPELINES, datasets=datasets,
                  profile_memory=False, shard_count=count,
                  checkpoint_dir=directory)
    for index in layout["order"]:
        benchmark(shard_index=index, **common,
                  **FAN_OUTS[layout["fan_outs"][index]])

    index = layout["interrupted"]
    path = os.path.join(directory, f"shard-{index:03d}-of-{count:03d}.jsonl")
    with open(path) as handle:
        lines = handle.read().splitlines()
    with open(path, "w") as handle:
        handle.write("\n".join(lines[:-1]) + "\n")
    benchmark(shard_index=index, **common,
              **FAN_OUTS[layout["fan_outs"][index]])
    return merge_shard_checkpoints(directory)


@settings(max_examples=25, deadline=None)
@given(layout=layouts())
def test_merge_does_not_depend_on_the_layout(datasets, unsharded, layout):
    with tempfile.TemporaryDirectory() as directory:
        merged = _run_layout(datasets, layout, directory)
    assert _quality_view(merged) == unsharded


def test_one_ulp_breaks_the_equality(datasets, unsharded):
    layout = {"count": 3, "fan_outs": ["serial", "process-2", "workers-2"],
              "order": [2, 0, 1], "interrupted": 1}
    with tempfile.TemporaryDirectory() as directory:
        view = _quality_view(_run_layout(datasets, layout, directory))
    assert view == unsharded
    view[0]["f1"] = float(np.nextafter(view[0]["f1"], np.inf))
    assert view != unsharded
