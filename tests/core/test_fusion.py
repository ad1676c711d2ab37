"""The batch step-fusion pass: chains, splits, arenas and precision.

The fusion pass lowers contiguous runs of fusable batch steps into single
:class:`~repro.core.plan.FusedStep` nodes. These tests pin its contract: a
non-fusable step mid-chain splits the run into two fused nodes around a
plain passthrough; results stay bitwise-identical to the step-by-step
reference interpreter on every executor; a fused chain still reports one
timing per member step; the plan's arena genuinely reuses buffers across
repeat batches, for forwards inside a chain and outside one; and the
reduced-precision plane is opt-in, validated and tolerance-correct.
"""

import numpy as np
import pytest

import reference
from repro.benchmark.profiling import profile_pipeline_steps
from repro.core.executor import get_executor
from repro.core.pipeline import Pipeline
from repro.core.plan import FusedStep
from repro.core.sintel import Sintel
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import PipelineError
from repro.pipelines import get_pipeline_spec

EXECUTORS = ["serial", "process"]

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


class TestChainSplitting:
    def test_non_fusable_step_splits_the_chain(self, split_pipeline):
        plan = split_pipeline.compiled_plan("batch", exact=True)
        names = [node.name for node in plan]
        assert len(names) == 3
        assert names[0].startswith("fused:") and "+" in names[0]
        assert names[1] == split_pipeline.steps[2]["name"]
        assert names[2].startswith("fused:") and "+" in names[2]
        assert [isinstance(node, FusedStep) for node in plan] == [
            True, False, True]
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
        assert not any(isinstance(node, FusedStep) for node in plan)
        assert plan.fusion_groups == []


class TestFusedParity:
    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_bitwise_identical_to_unfused_plan(self, split_pipeline,
                                               executor):
        # The unfused oracle is the reference interpreter: it runs each
        # primitive's produce in order, with no plan, fusion or arena.
        signals = _signals()
        primitives = reference.fit(SPLIT_SPEC, _data())
        # The job compiles the fused plan wherever the executor runs it.
        [context] = get_executor(executor).map(
            _run_batch_plan, [(split_pipeline, signals)])
        for index, data in enumerate(signals):
            actual = {name: values[index] for name, values in context.items()}
            expected = reference.detect(SPLIT_SPEC, primitives, data)
            reference.assert_same(actual, expected)
            with pytest.raises(AssertionError):
                reference.assert_same(reference.nudge(actual), expected)

    def test_fused_step_is_batch_only(self):
        with pytest.raises(PipelineError, match="batch"):
            FusedStep("detect", [])


class TestMemberTimings:
    """A fused chain times each member like a plain node (Fig. 7b)."""

    @pytest.fixture(scope="class")
    def lstm(self):
        # The batch plan fuses six of its seven steps into one chain.
        pipeline = Pipeline(get_pipeline_spec("lstm_dynamic_threshold",
                                              window_size=30, epochs=1))
        pipeline.fit(_data())
        return pipeline

    def test_step_timings_name_every_step(self, lstm):
        [chain] = lstm.compiled_plan("batch").fusion_groups
        assert len(chain["steps"]) == 6
        names = {step["name"] for step in lstm.steps}
        lstm.detect(_data())
        assert set(lstm.step_timings) == names
        lstm.detect_batch(_signals())
        assert set(lstm.step_timings) == names

    def test_profile_reports_detect_time_for_every_step(self, lstm):
        signal = WorkloadGenerator(seed=3, n_channels=1, length=240).signal(0)
        steps = profile_pipeline_steps(lstm, signal)
        assert set(steps) == {step["name"] for step in lstm.steps}
        assert all(step["detect_time"] > 0 for step in steps.values())


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

    def test_unchained_fused_forward_leases_from_the_plan_arena(self):
        # labels_from_events and probabilities_to_intervals declare no
        # fuse_category, so the classifier's forward runs outside any
        # chain, as a plain node.
        signals = _signals()
        sintel = Sintel("lstm_classifier", window_size=20, epochs=1)
        sintel.fit(signals[0], events=[(100.0, 120.0)])
        plan = sintel.pipeline.compiled_plan("batch", exact=False)
        classifier = sintel.pipeline.steps[5]["name"]
        assert classifier in [node.name for node in plan.nodes]
        sintel.detect_many(signals, exact=False)
        first = plan.arena.stats()["reuses"]
        sintel.detect_many(signals, exact=False)
        assert plan.arena.stats()["reuses"] > first
