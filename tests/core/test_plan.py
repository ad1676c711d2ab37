"""The unified plan IR: PlanCompiler lowering and CompiledStep contracts.

Every execution surface (fit / detect / stream / batch) lowers through one
:class:`~repro.core.plan.PlanCompiler` into mode-tagged
:class:`~repro.core.plan.CompiledStep` step bodies. These tests pin the
IR's guarantees: mode semantics (produce-only modes reject fit), every
step lowered exactly once, and plan *reuse* — a refit keeps running the
compiled plans instead of lowering them again.
"""

import pickle

import numpy as np
import pytest

from repro.core.pipeline import Pipeline
from repro.core.plan import PLAN_MODES, CompiledStep, PlanCompiler
from repro.exceptions import PipelineError
from repro.pipelines import get_pipeline_spec

ALL_MODE_PLANS = [("fit", True), ("detect", True), ("stream", True),
                  ("batch", True), ("batch", False)]


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

    @pytest.mark.parametrize("mode", ["detect", "stream", "batch"])
    def test_produce_only_modes_reject_fit(self, fitted_pipeline, mode):
        node = fitted_pipeline.compiled_plan(mode).nodes[0]
        with pytest.raises(PipelineError, match="produce-only"):
            node.execute({"data": _data()}, True)

    def test_fit_mode_payload_fits(self):
        pipeline = Pipeline(get_pipeline_spec("arima", window_size=30))
        pipeline.fit(_data())
        plan = pipeline.compiled_plan("fit")
        # Swap unfitted primitives into the cells, then replay the plan
        # node by node: every fit-mode node must run with fit=True and
        # leave the stateful primitives of its cell fitted.
        pipeline._rebuild_primitives()
        stateful = [cell[1] for cell in pipeline._primitives
                    if cell[1].fit_args]
        unfitted = [pickle.dumps(primitive) for primitive in stateful]
        context = {"data": _data(), "events": None}
        for node in plan:
            context.update(node.execute(context, True))
        assert stateful
        for primitive, before in zip(stateful, unfitted):
            assert pickle.dumps(primitive) != before
        assert "anomalies" in context
        assert pipeline.detect(_data()) == Pipeline(get_pipeline_spec(
            "arima", window_size=30)).fit(_data()).detect(_data())


class TestModeLowering:
    @pytest.mark.parametrize("mode,exact", ALL_MODE_PLANS)
    def test_every_mode_lowers_every_step(self, fitted_pipeline, mode, exact):
        # Batch plans run the fusion pass, so a node may cover a whole
        # chain of steps (named ``fused:<a+b+...>``); every step must
        # still be covered exactly once, in order.
        plan = fitted_pipeline.compiled_plan(mode, exact=exact)
        covered = []
        for node in plan:
            if node.name.startswith("fused:"):
                covered.extend(node.name[len("fused:"):].split("+"))
            else:
                covered.append(node.name)
        assert covered == [step["name"] for step in fitted_pipeline.steps]

    def test_fused_plan_writes_the_same_variables(self, fitted_pipeline):
        unfused = fitted_pipeline.compiled_plan("detect")
        fused = fitted_pipeline.compiled_plan("batch", exact=True)
        assert len(fused.nodes) < len(unfused.nodes)

    def test_compiler_rejects_unknown_mode(self, fitted_pipeline):
        with pytest.raises(PipelineError, match="Unknown plan mode"):
            fitted_pipeline.compiler.compile("training")

    def test_plan_cache_and_compilation_counter(self, fitted_pipeline):
        compiler = fitted_pipeline.compiler
        before = compiler.compilations
        plan = compiler.plan("stream")
        assert compiler.compilations == before + 1
        assert compiler.plan("stream") is plan
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
        plan = pipeline.compiled_plan("detect")
        pipeline.fit(_data(300))
        assert pipeline.compiled_plan("detect") is plan

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
        assert set(PLAN_MODES) == {"fit", "detect", "stream", "batch",
                                   "stream_batch"}
        plan = compiler.plan("detect")
        assert plan.nodes[0].name == "only"
        assert compiler.compilations == 1
