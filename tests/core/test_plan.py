"""The unified plan IR: PlanCompiler lowering and CompiledStep contracts.

Every execution surface lowers through one
:class:`~repro.core.plan.PlanCompiler` into mode-tagged
:class:`~repro.core.plan.CompiledStep` step bodies, one mode per
semantics (fit / batch / stream_batch). These tests pin the IR's
guarantees: fitting belongs to the fit mode (no plan, node or step takes
a runtime ``fit`` flag), every step lowered exactly once, and plan
*reuse* — a refit keeps running the compiled plans instead of lowering
them again.
"""

import inspect
import pickle

import numpy as np
import pytest

from repro.core.pipeline import Pipeline
from repro.core.plan import (
    PLAN_MODES,
    CompiledStep,
    ExecutionPlan,
    FusedStep,
    LaneStep,
    PlanCompiler,
)
from repro.exceptions import PipelineError
from repro.pipelines import get_pipeline_spec

ALL_MODE_PLANS = [("fit", True), ("batch", True), ("batch", False),
                  ("stream_batch", True)]


def _data(rows: int = 240):
    timestamps = np.arange(rows, dtype=float)
    values = np.sin(timestamps / 12.0) + 0.01 * timestamps
    return np.column_stack([timestamps, values])


@pytest.fixture()
def fitted_pipeline():
    pipeline = Pipeline(get_pipeline_spec("azure"))
    pipeline.fit(_data())
    return pipeline


class TestCompiledStep:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PipelineError, match="Unknown plan mode"):
            CompiledStep("training", {"name": "x"}, object())

    @pytest.mark.parametrize("owner", [ExecutionPlan, CompiledStep,
                                       FusedStep, LaneStep],
                             ids=lambda owner: owner.__name__)
    def test_no_runtime_fit_flag(self, owner):
        # Fitting is a property of the mode: only a fit-mode plan fits.
        assert "fit" not in inspect.signature(owner.run).parameters

    def test_fit_mode_payload_fits(self):
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(_data())
        plan = pipeline.compiled_plan("fit")
        # Swap unfitted primitives into the cells, then replay the plan
        # node by node: every fit-mode node must leave the stateful
        # primitives of its cell fitted.
        pipeline._rebuild_primitives()
        stateful = [cell[1] for cell in pipeline._primitives
                    if cell[1].fit_args]
        unfitted = [pickle.dumps(primitive) for primitive in stateful]
        context = {"data": _data(), "events": None}
        for node in plan:
            context.update(node.execute(context))
        assert stateful
        for primitive, before in zip(stateful, unfitted):
            assert pickle.dumps(primitive) != before
        assert "anomalies" in context
        assert pipeline.detect(_data()) == Pipeline(get_pipeline_spec(
            "arima", window_size=30)).fit(_data()).detect(_data())


class TestModeLowering:
    @pytest.mark.parametrize("mode,exact", ALL_MODE_PLANS)
    def test_every_mode_lowers_every_step(self, fitted_pipeline, mode, exact):
        # Batch and stream-batch plans run the fusion pass, so a node may
        # cover a whole chain of steps (named ``fused:<a+b+...>``); every
        # step must still be covered exactly once, in order.
        plan = fitted_pipeline.compiled_plan(mode, exact=exact)
        covered = []
        for node in plan:
            if node.name.startswith("fused:"):
                covered.extend(node.name[len("fused:"):].split("+"))
            else:
                covered.append(node.name)
        assert covered == [step["name"] for step in fitted_pipeline.steps]

    def test_fused_plan_writes_the_same_variables(self, fitted_pipeline):
        unfused = fitted_pipeline.compiled_plan("fit")
        fused = fitted_pipeline.compiled_plan("batch", exact=True)
        assert len(fused.nodes) < len(unfused.nodes)

    def test_detect_planes_share_the_batch_plans(self, fitted_pipeline):
        # detect is a batch of one and partial_detect a one-lane stream
        # batch, so neither lowers a plan of its own.
        fitted_pipeline.detect(_data())
        fitted_pipeline.detect_batch([_data(), _data(300)])
        assert fitted_pipeline.plan_compilations == 2  # fit + batch
        fitted_pipeline.partial_detect(_data())
        assert fitted_pipeline.plan_compilations == 3  # + stream_batch

    def test_compiler_rejects_unknown_mode(self, fitted_pipeline):
        with pytest.raises(PipelineError, match="Unknown plan mode"):
            fitted_pipeline.compiler.compile("training")

    def test_plan_cache_and_compilation_counter(self, fitted_pipeline):
        compiler = fitted_pipeline.compiler
        before = compiler.compilations
        plan = compiler.plan("stream_batch")
        assert compiler.compilations == before + 1
        assert compiler.plan("stream_batch") is plan
        assert compiler.compilations == before + 1


class TestRefitReusesCompiledPlans:
    def test_refit_keeps_compilation_count_constant(self):
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(_data())
        pipeline.detect(_data())
        pipeline.detect_batch([_data(), _data(300)])
        compiled = pipeline.plan_compilations
        for offset in range(4):
            pipeline.fit(_data(240 + 16 * offset))
            pipeline.detect(_data())
        assert pipeline.plan_compilations == compiled

    def test_refit_results_match_fresh_pipeline(self):
        data_a, data_b = _data(), _data(320)
        refitted = Pipeline(get_pipeline_spec("arima", window_size=30))
        refitted.fit(data_a)
        refitted.detect(data_a)
        refitted.fit(data_b)
        fresh = Pipeline(get_pipeline_spec("arima", window_size=30))
        fresh.fit(data_b)
        assert refitted.detect(data_b) == fresh.detect(data_b)

    def test_refit_restamps_stateful_fingerprints(self):
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(_data())
        plan = pipeline.compiled_plan("batch")
        pipeline.fit(_data(300))
        assert pipeline.compiled_plan("batch") is plan

    def test_hyperparameter_change_drops_compiler(self):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(_data())
        assert pipeline.plan_compilations > 0
        pipeline.set_hyperparameters({"fixed_threshold": {"k": 4.0}})
        assert pipeline._compiler is None
        assert pipeline.plan_compilations == 0

    def test_pickled_pipeline_recompiles_lazily(self):
        pipeline = Pipeline(get_pipeline_spec("azure"))
        pipeline.fit(_data())
        expected = pipeline.detect(_data())
        clone = pickle.loads(pickle.dumps(pipeline))
        assert clone._compiler is None
        assert clone.detect(_data()) == expected


class TestPlanCompilerStandalone:
    def test_lowering_plain_cells(self):
        # The compiler works on bare [step, primitive] cells, independent
        # of Pipeline plumbing.
        from repro.core.primitive import get_primitive

        step = {"name": "only", "primitive": "fixed_threshold"}
        compiler = PlanCompiler([[step, get_primitive("fixed_threshold")]])
        assert PLAN_MODES == ("fit", "batch", "stream_batch")
        plan = compiler.plan("batch")
        assert plan.nodes[0].name == "only"
        assert compiler.compilations == 1
