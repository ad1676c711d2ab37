"""Tests for the Sintel core API."""

import numpy as np
import pytest

from repro.core import Pipeline, Sintel, Template
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import NotFittedError, PipelineError, PrimitiveError
from repro.pipelines import get_pipeline_spec


PIPELINE = "arima"
OPTIONS = {"window_size": 30}


class TestConstruction:
    def test_from_name(self):
        sintel = Sintel(PIPELINE, **OPTIONS)
        assert sintel.pipeline_name == "arima"
        assert not sintel.fitted

    def test_from_spec_dict(self):
        sintel = Sintel(get_pipeline_spec(PIPELINE, **OPTIONS))
        assert isinstance(sintel.pipeline, Pipeline)

    def test_from_template(self):
        template = Template(get_pipeline_spec(PIPELINE, **OPTIONS))
        sintel = Sintel(template)
        assert sintel.pipeline_name == "arima"

    def test_from_pipeline_instance(self):
        pipeline = Pipeline(get_pipeline_spec(PIPELINE, **OPTIONS))
        sintel = Sintel(pipeline)
        assert sintel.pipeline is pipeline

    def test_fitted_pipeline_instance_detects(self, small_signal):
        # ``fitted`` is the wrapped pipeline's flag, not a second one.
        data = small_signal.to_array()
        pipeline = Pipeline(get_pipeline_spec(PIPELINE, **OPTIONS)).fit(data)
        sintel = Sintel(pipeline)
        assert sintel.fitted
        assert sintel.detect(data) == pipeline.detect(data)
        with pytest.raises(AttributeError):
            sintel.fitted = False

    def test_invalid_source_rejected(self):
        with pytest.raises(PipelineError):
            Sintel(42)

    def test_hyperparameters_forwarded(self):
        sintel = Sintel(PIPELINE, hyperparameters={"ARIMA": {"p": 8}}, **OPTIONS)
        assert sintel.get_hyperparameters()["ARIMA"]["p"] == 8


class TestFitDetect:
    def test_fit_detect_on_signal_object(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        anomalies = sintel.fit_detect(small_signal)
        assert isinstance(anomalies, list)
        assert sintel.fitted

    def test_fit_detect_on_array(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        anomalies = sintel.fit_detect(small_signal.to_array())
        assert isinstance(anomalies, list)

    def test_bare_value_series_gets_timestamps(self):
        values = np.sin(np.linspace(0, 20, 300))
        values[150:160] += 5
        sintel = Sintel(PIPELINE, **OPTIONS)
        anomalies = sintel.fit_detect(values)
        assert isinstance(anomalies, list)

    def test_detect_before_fit_rejected(self, small_signal):
        with pytest.raises(NotFittedError):
            Sintel(PIPELINE, **OPTIONS).detect(small_signal)

    def test_invalid_data_shape_rejected(self):
        sintel = Sintel(PIPELINE, **OPTIONS)
        with pytest.raises(PipelineError):
            sintel.fit(np.zeros((3, 3, 3)))

    def test_visualization_passthrough(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        sintel.fit(small_signal)
        anomalies, context = sintel.detect(small_signal, visualization=True)
        assert "errors" in context


@pytest.mark.filterwarnings("ignore:Mean of empty slice:RuntimeWarning")
class TestFailedFit:
    """A fit that raises leaves the pipeline as it was before the call."""

    @staticmethod
    def _data():
        # The NaN rows are imputed with the fitted imputer's means, so a
        # refit of the imputer alone would move the detected events.
        data = WorkloadGenerator(seed=1, length=300).signal(0).to_array()
        data[100:130, 1] = np.nan
        return data

    def test_failed_refit_keeps_the_previous_fit(self):
        data = self._data()
        sintel = Sintel("azure").fit(data)
        expected = sintel.detect(data)
        compilations = sintel.pipeline.plan_compilations
        with pytest.raises(PrimitiveError, match="at least 8 samples"):
            sintel.fit(data[:5])
        assert sintel.fitted
        assert sintel.pipeline.plan_compilations == compilations
        assert sintel.detect(data) == expected

    def test_failed_refit_keeps_an_open_stream(self):
        data = self._data()
        events = []
        for refit in (False, True):
            sintel = Sintel("azure").fit(data)
            runner = sintel.stream(window_size=200, warmup=100,
                                   drift_detector=None)
            runner.send(data[:150])
            if refit:
                with pytest.raises(PrimitiveError):
                    sintel.fit(data[:5])
            runner.send(data[150:])
            events.append(runner.anomalies())
        assert events[1] == events[0]

    def test_failed_first_fit_leaves_the_pipeline_unfitted(self):
        data = self._data()
        sintel = Sintel("azure")
        with pytest.raises(PrimitiveError):
            sintel.fit(data[:5])
        assert not sintel.fitted
        with pytest.raises(NotFittedError):
            sintel.detect(data)


class TestEvaluate:
    def test_overlapping_scores(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        scores = sintel.evaluate(small_signal, small_signal.anomalies, fit=True)
        assert set(scores) == {"precision", "recall", "f1"}
        assert 0.0 <= scores["f1"] <= 1.0

    def test_weighted_scores_include_accuracy(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        scores = sintel.evaluate(small_signal, small_signal.anomalies, fit=True,
                                 method="weighted")
        assert "accuracy" in scores

    def test_unknown_method_rejected(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        with pytest.raises(ValueError):
            sintel.evaluate(small_signal, small_signal.anomalies, fit=True,
                            method="cosmic")

    def test_evaluate_fits_when_not_fitted(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        sintel.evaluate(small_signal, small_signal.anomalies)
        assert sintel.fitted


class TestHyperparametersAndPersistence:
    def test_tunable_space_exposed(self):
        sintel = Sintel(PIPELINE, **OPTIONS)
        space = sintel.get_tunable_hyperparameters()
        assert "find_anomalies" in space

    def test_set_hyperparameters_resets_fit(self, small_signal):
        sintel = Sintel(PIPELINE, **OPTIONS)
        sintel.fit(small_signal)
        sintel.set_hyperparameters({"ARIMA": {"p": 3}})
        assert not sintel.fitted

    def test_save_load_roundtrip(self, small_signal, tmp_path):
        sintel = Sintel(PIPELINE, **OPTIONS)
        expected = sintel.fit_detect(small_signal)
        path = tmp_path / "model.pkl"
        sintel.save(path)

        loaded = Sintel.load(path)
        assert loaded.fitted
        assert loaded.detect(small_signal) == expected

    def test_load_rejects_foreign_pickle(self, tmp_path):
        import pickle

        path = tmp_path / "other.pkl"
        with open(path, "wb") as handle:
            pickle.dump({"not": "sintel"}, handle)
        with pytest.raises(PipelineError):
            Sintel.load(path)
