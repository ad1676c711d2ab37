"""The batch step-fusion pass: chains, splits, arenas and precision.

The fusion pass lowers contiguous runs of fusable batch steps into single
:class:`~repro.core.plan.FusedStep` nodes. These tests pin its contract: a
non-fusable step mid-chain splits the run into two fused nodes around a
plain passthrough; results stay bitwise-identical to the unfused plan on
every executor; the plan's arena genuinely reuses buffers across repeat
batches; and the reduced-precision plane is opt-in, validated and
tolerance-correct.
"""

import numpy as np
import pytest

from repro.core.executor import get_executor
from repro.core.pipeline import Pipeline
from repro.core.plan import FusedStep
from repro.core.sintel import Sintel
from repro.exceptions import PipelineError

EXECUTORS = ["serial", "threaded", "process"]

#: Two fusable runs around a non-fusable middle step: ``differencing``
#: declares no ``fuse_category``, so the chain must split around it.
SPLIT_SPEC = {
    "name": "split",
    "steps": [
        {
            "primitive": "time_segments_aggregate",
            "hyperparameters": {"interval": None, "method": "mean"},
        },
        {"primitive": "SimpleImputer"},
        {"primitive": "differencing"},
        {"primitive": "MinMaxScaler"},
        {"primitive": "StandardScaler"},
    ],
}


def _data(rows: int = 240):
    timestamps = np.arange(rows, dtype=float)
    values = np.sin(timestamps / 12.0) + 0.01 * timestamps
    return np.column_stack([timestamps, values])


def _signals(n: int = 4):
    out = []
    for seed in range(n):
        rng = np.random.default_rng(seed)
        base = _data()
        base[:, 1] += 0.05 * rng.standard_normal(len(base))
        out.append(base)
    return out


@pytest.fixture()
def split_pipeline():
    pipeline = Pipeline(SPLIT_SPEC)
    pipeline.fit(_data())
    return pipeline


def _batch_context(signals):
    return {"data": [np.asarray(s, dtype=float) for s in signals],
            "events": [None] * len(signals)}


def _run_batch_plan(job):
    """Run a fitted pipeline's exact batch plan: one fan-out job."""
    pipeline, signals = job
    context, _ = pipeline.compiled_plan("batch", exact=True).run(
        _batch_context(signals))
    return context


def _assert_context_equal(actual: dict, expected: dict) -> None:
    assert set(actual) == set(expected)
    for key, want in expected.items():
        got = actual[key]
        if isinstance(want, list):
            assert len(got) == len(want)
            for got_entry, want_entry in zip(got, want):
                np.testing.assert_array_equal(got_entry, want_entry)
        else:
            np.testing.assert_array_equal(got, want)


class TestChainSplitting:
    def test_non_fusable_step_splits_the_chain(self, split_pipeline):
        plan = split_pipeline.compiled_plan("batch", exact=True)
        names = [node.name for node in plan]
        assert len(names) == 3
        assert names[0].startswith("fused:") and "+" in names[0]
        assert names[1] == split_pipeline.steps[2]["name"]
        assert names[2].startswith("fused:") and "+" in names[2]
        members = [node.members for node in plan.nodes]
        assert members[0] == (0, 1)
        assert members[1] is None
        assert members[2] == (3, 4)
        assert [group["steps"] for group in plan.fusion_groups] == [
            [split_pipeline.steps[0]["name"], split_pipeline.steps[1]["name"]],
            [split_pipeline.steps[3]["name"], split_pipeline.steps[4]["name"]],
        ]

    def test_single_fusable_step_stays_plain(self):
        pipeline = Pipeline({
            "name": "single",
            "steps": [
                {
                    "primitive": "time_segments_aggregate",
                    "hyperparameters": {"interval": None, "method": "mean"},
                },
                {"primitive": "differencing"},
            ],
        })
        pipeline.fit(_data())
        plan = pipeline.compiled_plan("batch", exact=True)
        assert all(node.members is None for node in plan.nodes)
        assert plan.fusion_groups == []

    def test_no_fusion_env_disables_the_pass(self, split_pipeline,
                                             monkeypatch):
        monkeypatch.setenv("REPRO_NO_FUSION", "1")
        plan = split_pipeline.compiled_plan("batch", exact=True)
        assert len(plan.nodes) == len(split_pipeline.steps)
        assert plan.fusion_groups == []


class TestFusedParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bitwise_identical_to_unfused_plan(self, split_pipeline,
                                               executor, monkeypatch):
        signals = _signals()
        monkeypatch.setenv("REPRO_NO_FUSION", "1")
        unfused_plan = split_pipeline.compiler.compile("batch", exact=True)
        monkeypatch.delenv("REPRO_NO_FUSION")
        reference, _ = unfused_plan.run(_batch_context(signals))
        # The job compiles the fused plan wherever the executor runs it.
        [context] = get_executor(executor).map(
            _run_batch_plan, [(split_pipeline, signals)])
        _assert_context_equal(context, reference)

    def test_fused_step_rejects_fit(self, split_pipeline):
        node = split_pipeline.compiled_plan("batch", exact=True).nodes[0]
        assert node.members is not None
        with pytest.raises(PipelineError, match="produce-only"):
            node.execute(_batch_context(_signals()), True)

    def test_fused_step_is_batch_only(self):
        with pytest.raises(PipelineError, match="batch"):
            FusedStep("detect", [])


class TestArenaAndPrecision:
    def test_precision_requires_inexact_plan(self, split_pipeline):
        with pytest.raises(PipelineError, match="requires exact=False"):
            split_pipeline.detect_batch(_signals(), precision="float32")

    def test_unknown_precision_rejected(self, split_pipeline):
        with pytest.raises(PipelineError, match="Unknown precision"):
            split_pipeline.detect_batch(_signals(), exact=False,
                                        precision="float16")

    def test_precision_plane_close_to_exact(self):
        signals = _signals()
        sintel = Sintel("azure")
        sintel.fit(signals[0])
        exact = sintel.detect_many(signals)
        reduced = sintel.detect_many(signals, exact=False,
                                     precision="float32")
        assert len(reduced) == len(exact)
        for exact_events, reduced_events in zip(exact, reduced):
            assert len(reduced_events) == len(exact_events)
            for exact_event, reduced_event in zip(exact_events,
                                                  reduced_events):
                np.testing.assert_allclose(reduced_event, exact_event,
                                           rtol=1e-3, atol=1e-5)

    def test_arena_reuses_buffers_across_batches(self):
        signals = _signals()
        sintel = Sintel("lstm_dynamic_threshold", window_size=20, epochs=1)
        sintel.fit(signals[0])
        sintel.detect_many(signals, exact=False)
        plan = sintel.pipeline.compiled_plan("batch", exact=False)
        first = plan.arena.stats()
        assert first["allocations"] > 0
        sintel.detect_many(signals, exact=False)
        second = plan.arena.stats()
        assert second["allocations"] == first["allocations"]
        assert second["reuses"] > first["reuses"]
        assert second["bytes_reused"] > 0
