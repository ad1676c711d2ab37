"""Tests for TuningSession (supervised and unsupervised settings)."""

import pytest

from repro.exceptions import TuningError
from repro.tuning import TuningSession


OPTIONS = {"window_size": 30}


class TestConstruction:
    def test_supervised_requires_ground_truth(self, small_signal):
        with pytest.raises(TuningError):
            TuningSession("arima", small_signal.to_array(), setting="supervised",
                          pipeline_options=OPTIONS)

    def test_unknown_setting_rejected(self, small_signal):
        with pytest.raises(TuningError):
            TuningSession("arima", small_signal.to_array(),
                          ground_truth=small_signal.anomalies,
                          setting="semi", pipeline_options=OPTIONS)

    def test_unsupervised_requires_regression_metric(self, small_signal):
        with pytest.raises(TuningError):
            TuningSession("arima", small_signal.to_array(), setting="unsupervised",
                          metric="f1", pipeline_options=OPTIONS)

    def test_engine_restriction_limits_space(self, small_signal):
        session = TuningSession(
            "arima", small_signal.to_array(), ground_truth=small_signal.anomalies,
            engines=["postprocessing"], pipeline_options=OPTIONS,
        )
        steps = {step for step, _ in session.tuner.space.keys}
        # Only postprocessing steps of the ARIMA pipeline expose hyperparameters.
        assert steps == {"find_anomalies", "regression_errors"}

    def test_unknown_engine_restriction_yields_empty_space(self, small_signal):
        with pytest.raises(TuningError):
            TuningSession("arima", small_signal.to_array(),
                          ground_truth=small_signal.anomalies,
                          engines=["quantum"], pipeline_options=OPTIONS)


class TestRuns:
    def test_supervised_run_returns_history(self, small_signal):
        session = TuningSession(
            "arima", small_signal.to_array(), ground_truth=small_signal.anomalies,
            engines=["postprocessing"], tuner="uniform", pipeline_options=OPTIONS,
        )
        result = session.run(iterations=3)
        assert len(result.history) == 3
        assert 0.0 <= result.best_score <= 1.0
        assert result.best_score >= result.default_score
        assert "find_anomalies" in result.best_hyperparameters

    def test_unsupervised_run_uses_negated_regression_metric(self, small_signal):
        session = TuningSession(
            "arima", small_signal.to_array(), setting="unsupervised", metric="mse",
            engines=["modeling"], tuner="uniform", pipeline_options=OPTIONS,
        )
        result = session.run(iterations=2)
        # Scores are negated MSE values, so they must be non-positive.
        assert result.best_score <= 0.0

    def test_failed_candidates_recorded_not_raised(self, small_signal):
        session = TuningSession(
            "arima", small_signal.to_array(), ground_truth=small_signal.anomalies,
            engines=["modeling"], tuner="uniform", pipeline_options=OPTIONS,
        )

        original = session.score_candidate

        def flaky(candidate):
            if len(session.tuner.trials) == 1:
                raise RuntimeError("boom")
            return original(candidate)

        session.score_candidate = flaky
        result = session.run(iterations=3)
        assert any("error" in item for item in result.history)
        assert len(result.history) == 3

    def test_zero_iterations_rejected(self, small_signal):
        session = TuningSession(
            "arima", small_signal.to_array(), ground_truth=small_signal.anomalies,
            engines=["postprocessing"], pipeline_options=OPTIONS,
        )
        with pytest.raises(TuningError):
            session.run(iterations=0)

    def test_custom_scorer(self, small_signal):
        calls = []

        def scorer(pipeline):
            calls.append(pipeline)
            return float(len(calls))

        session = TuningSession(
            "arima", small_signal.to_array(), scorer=scorer,
            engines=["postprocessing"], tuner="uniform", pipeline_options=OPTIONS,
        )
        result = session.run(iterations=3)
        assert result.best_score == 3.0
        assert result.improvement == pytest.approx(2.0)
