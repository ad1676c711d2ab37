"""Tests for Template and Pipeline."""

import pytest

from repro.core.pipeline import Pipeline, Template
from repro.core.primitive import get_primitive_class
from repro.exceptions import NotFittedError, PipelineError
from repro.pipelines import get_pipeline_spec


def _simple_spec():
    """A fast statistical pipeline used throughout these tests."""
    return get_pipeline_spec("arima", window_size=30)


def _data(signal):
    return signal.to_array()


class TestTemplate:
    def test_steps_get_unique_names(self):
        spec = {
            "name": "double-impute",
            "steps": [
                {"primitive": "time_segments_aggregate"},
                {"primitive": "SimpleImputer"},
                {"primitive": "SimpleImputer"},
            ],
        }
        template = Template(spec)
        names = [step["name"] for step in template.steps]
        assert len(set(names)) == 3

    def test_missing_variable_rejected(self):
        spec = {
            "name": "broken",
            "steps": [{"primitive": "find_anomalies"}],  # needs errors/index
        }
        with pytest.raises(PipelineError, match="requires variable"):
            Template(spec)

    def test_empty_spec_rejected(self):
        with pytest.raises(PipelineError):
            Template({"name": "empty", "steps": []})

    def test_step_without_primitive_rejected(self):
        with pytest.raises(PipelineError):
            Template({"name": "bad", "steps": [{"hyperparameters": {}}]})

    def test_tunable_space_collects_step_hyperparameters(self):
        template = Template(_simple_spec())
        space = template.get_tunable_hyperparameters()
        assert "rolling_window_sequences" in space
        assert "find_anomalies" in space
        assert "window_size" in space["rolling_window_sequences"]

    def test_default_hyperparameters_include_spec_overrides(self):
        template = Template(_simple_spec())
        defaults = template.get_default_hyperparameters()
        assert defaults["rolling_window_sequences"]["window_size"] == 30

    def test_engines_in_order(self):
        template = Template(_simple_spec())
        engines = template.engines
        assert engines[0] == "preprocessing"
        assert "modeling" in engines
        assert engines[-1] == "postprocessing"

    def test_create_pipeline(self):
        template = Template(_simple_spec())
        pipeline = template.create_pipeline()
        assert isinstance(pipeline, Pipeline)


class TestPipelineExecution:
    def test_fit_detect_returns_interval_tuples(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal))
        anomalies = pipeline.detect(_data(small_signal))
        assert isinstance(anomalies, list)
        for start, end, severity in anomalies:
            assert start <= end

    def test_detect_before_fit_rejected(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        with pytest.raises(NotFittedError):
            pipeline.detect(_data(small_signal))

    def test_fit_detect_shortcut(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        anomalies = pipeline.fit_detect(_data(small_signal))
        assert isinstance(anomalies, list)

    def test_visualization_returns_context(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal))
        anomalies, context = pipeline.detect(_data(small_signal), visualization=True)
        assert "errors" in context
        assert "y_hat" in context
        assert "anomalies" in context

    def test_step_timings_recorded(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal))
        assert set(pipeline.step_timings) == {step["name"] for step in pipeline.steps}
        for timing in pipeline.step_timings.values():
            assert timing["elapsed"] >= 0.0
            assert timing["engine"] in ("preprocessing", "modeling", "postprocessing")

    @pytest.mark.parametrize(
        "name,options",
        [("azure", {}),
         ("dense_autoencoder", {"window_size": 30, "epochs": 1})],
        ids=["azure", "dense_autoencoder"])
    def test_fit_runs_the_batch_kernels(self, small_signal, monkeypatch,
                                        name, options):
        # Fit is a batch of one: it produces through the exact kernels,
        # never through the per-signal reference ``produce``.
        def reference_only(self, **kwargs):
            raise AssertionError(f"{self.name}.produce ran during fit")

        for primitive in ("time_segments_aggregate", "reconstruction_errors",
                          "find_anomalies"):
            monkeypatch.setattr(get_primitive_class(primitive), "produce",
                                reference_only)
        pipeline = Pipeline(get_pipeline_spec(name, **options))
        pipeline.fit(_data(small_signal))
        assert pipeline.fitted

    def test_profile_records_memory(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal), profile=True)
        assert any(t["memory"] > 0 for t in pipeline.step_timings.values())

    def test_profile_preserves_outer_tracemalloc(self, small_signal):
        # Step profiling must not clobber a trace started by an outer
        # profiler (e.g. the benchmark runner's profile_memory=True).
        import tracemalloc

        tracemalloc.start()
        try:
            pipeline = Pipeline(_simple_spec())
            pipeline.fit(_data(small_signal), profile=True)
            assert tracemalloc.is_tracing()
            assert all(t["memory"] >= 0
                       for t in pipeline.step_timings.values())
        finally:
            tracemalloc.stop()

    def test_detection_finds_injected_anomaly(self, small_signal):
        from repro.evaluation import contextual_recall

        pipeline = Pipeline(_simple_spec())
        anomalies = pipeline.fit_detect(_data(small_signal))
        assert contextual_recall(small_signal.anomalies, anomalies) > 0.0


class TestPipelineHyperparameters:
    def test_get_and_set_nested(self):
        pipeline = Pipeline(_simple_spec())
        pipeline.set_hyperparameters({"find_anomalies": {"min_percent": 0.25}})
        assert pipeline.get_hyperparameters()["find_anomalies"]["min_percent"] == 0.25

    def test_set_flat_tuple_keys(self):
        pipeline = Pipeline(_simple_spec())
        pipeline.set_hyperparameters({("ARIMA", "p"): 7})
        assert pipeline.get_hyperparameters()["ARIMA"]["p"] == 7

    def test_unknown_step_rejected(self):
        pipeline = Pipeline(_simple_spec())
        with pytest.raises(PipelineError, match="Unknown pipeline step"):
            pipeline.set_hyperparameters({"nonexistent": {"x": 1}})

    def test_non_dict_values_rejected(self):
        pipeline = Pipeline(_simple_spec())
        with pytest.raises(PipelineError):
            pipeline.set_hyperparameters({"ARIMA": 5})

    def test_set_hyperparameters_resets_fitted(self, small_signal):
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal))
        assert pipeline.fitted
        pipeline.set_hyperparameters({"ARIMA": {"p": 3}})
        assert not pipeline.fitted

    def test_detect_with_cleared_primitives_raises(self, small_signal):
        # A stale fitted flag must not let detect() silently rebuild and
        # run fresh, unfitted primitives.
        pipeline = Pipeline(_simple_spec())
        pipeline.fit(_data(small_signal))
        pipeline.set_hyperparameters({"ARIMA": {"p": 3}})
        pipeline.fitted = True  # simulate external state desync
        with pytest.raises(NotFittedError):
            pipeline.detect(_data(small_signal))

    def test_constructor_hyperparameters_applied(self):
        pipeline = Pipeline(_simple_spec(),
                            hyperparameters={"ARIMA": {"p": 9}})
        assert pipeline.get_hyperparameters()["ARIMA"]["p"] == 9

    def test_hyperparameters_are_deep_copies(self):
        pipeline = Pipeline(_simple_spec())
        first = pipeline.get_hyperparameters()
        first["ARIMA"]["p"] = 99
        assert pipeline.get_hyperparameters()["ARIMA"]["p"] != 99
