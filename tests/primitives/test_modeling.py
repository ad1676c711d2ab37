"""Tests for modeling primitives.

The neural primitives are trained with tiny architectures and few epochs —
the goal is to verify the fit/produce contract, output shapes, and that
learning actually reduces error, not to reach paper-level accuracy.
"""

import numpy as np
import pytest

from repro.core.sintel import Sintel
from repro.data.synthetic import WorkloadGenerator
from repro.exceptions import NotFittedError, PrimitiveError
from repro.primitives.modeling import (
    ARIMA,
    ArimaModel,
    DenseAutoencoder,
    LSTMAutoencoder,
    LSTMTimeSeriesClassifier,
    LSTMTimeSeriesRegressor,
    SpectralResidual,
    TadGAN,
)


class TestLSTMRegressor:
    def test_fit_produce_shapes(self, tiny_windows):
        X, y = tiny_windows
        model = LSTMTimeSeriesRegressor(epochs=2, lstm_units=8, batch_size=32)
        model.fit(X=X, y=y)
        out = model.produce(X=X)
        assert out["y_hat"].shape == (len(X), 1)

    def test_learns_sine_continuation(self, tiny_windows):
        X, y = tiny_windows
        model = LSTMTimeSeriesRegressor(epochs=15, lstm_units=16, batch_size=32,
                                        dropout_rate=0.0, learning_rate=0.01)
        model.fit(X=X, y=y)
        predictions = model.produce(X=X)["y_hat"]
        mse = float(np.mean((predictions - y) ** 2))
        assert mse < 0.1

    def test_produce_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            LSTMTimeSeriesRegressor().produce(X=np.zeros((2, 5, 1)))

    def test_unknown_hyperparameter_rejected(self):
        with pytest.raises(PrimitiveError):
            LSTMTimeSeriesRegressor(number_of_unicorns=3)


class TestAutoencoders:
    @pytest.mark.parametrize("cls,kwargs", [
        (LSTMAutoencoder, {"epochs": 2, "lstm_units": 8, "latent_dim": 4}),
        (DenseAutoencoder, {"epochs": 5, "hidden_units": 16, "latent_dim": 4}),
    ])
    def test_reconstruction_shape_matches_input(self, cls, kwargs, tiny_windows):
        X, _ = tiny_windows
        model = cls(**kwargs)
        model.fit(X=X)
        out = model.produce(X=X)
        assert out["y_hat"].shape == X.shape

    def test_dense_ae_learns_to_reconstruct(self, tiny_windows):
        X, _ = tiny_windows
        model = DenseAutoencoder(epochs=40, hidden_units=32, latent_dim=8,
                                 dropout_rate=0.0, learning_rate=0.01)
        model.fit(X=X)
        reconstruction = model.produce(X=X)["y_hat"]
        mse = float(np.mean((reconstruction - X) ** 2))
        assert mse < 0.2

    def test_2d_windows_accepted(self):
        X = np.random.default_rng(0).normal(size=(30, 12))
        model = DenseAutoencoder(epochs=2)
        model.fit(X=X)
        assert model.produce(X=X)["y_hat"].shape == (30, 12, 1)

    def test_produce_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            LSTMAutoencoder().produce(X=np.zeros((2, 5, 1)))


class TestFittedWindowShape:
    """A model fitted on a shrunk window rejects other window shapes.

    ``rolling_window_sequences`` shrinks the window of a signal shorter
    than ``window_size + target_size``: fitted on 60 rows, the default
    100-row window becomes 58 rows, while the full 600-row signal later
    yields 100-row windows.
    """

    @pytest.fixture(scope="class")
    def signal(self):
        return WorkloadGenerator(seed=1, length=600).signal(0).to_array()

    @pytest.mark.parametrize("call", ["detect", "detect_many"])
    @pytest.mark.parametrize("pipeline", ["dense_autoencoder",
                                          "lstm_autoencoder", "tadgan"])
    def test_detect_names_both_shapes(self, signal, pipeline, call):
        sintel = Sintel(pipeline, epochs=1)
        sintel.fit(signal[:60])
        with pytest.raises(PrimitiveError,
                           match=r"shape \(58, 1\).*shape \(100, 1\)"):
            if call == "detect":
                sintel.detect(signal)
            else:
                sintel.detect_many([signal], exact=False)

    @pytest.mark.parametrize("pipeline,short", [
        ("lstm_dynamic_threshold", 8), ("lstm_classifier", 9)])
    def test_lstm_mixed_batch_names_both_shapes_on_both_planes(
            self, pipeline, short):
        # Fitted on 30-row windows; a 10-row signal's windows shrink to
        # ``short`` rows, while the 100-row signal keeps 30.
        sine = np.sin(np.arange(240) / 8.0)
        sintel = Sintel(pipeline, window_size=30, epochs=1)
        events = {"events": [(100.0, 120.0)]} \
            if pipeline == "lstm_classifier" else {}
        sintel.fit(sine, **events)
        messages = []
        for exact in (True, False):
            with pytest.raises(PrimitiveError) as error:
                sintel.detect_many([sine[:10], sine[:100]], exact=exact)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
        assert f"shape (30, 1) but received windows of shape ({short}, 1)" \
            in messages[0]


class TestTadGAN:
    def test_fit_produce_contract(self, tiny_windows):
        X, _ = tiny_windows
        model = TadGAN(epochs=1, lstm_units=8, latent_dim=4, critic_units=8,
                       batch_size=32)
        model.fit(X=X)
        out = model.produce(X=X)
        assert out["y_hat"].shape == X.shape
        assert out["critic"].shape == (len(X),)

    def test_reconstruction_improves_with_training(self, tiny_windows):
        X, _ = tiny_windows
        untrained = TadGAN(epochs=1, lstm_units=8, latent_dim=4, batch_size=64)
        untrained.fit(X=X[:4])  # effectively almost no training signal
        trained = TadGAN(epochs=6, lstm_units=8, latent_dim=4, batch_size=32,
                         learning_rate=0.005)
        trained.fit(X=X)

        error_untrained = np.mean((untrained.produce(X=X)["y_hat"] - X) ** 2)
        error_trained = np.mean((trained.produce(X=X)["y_hat"] - X) ** 2)
        assert error_trained < error_untrained

    def test_produce_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            TadGAN().produce(X=np.zeros((2, 5, 1)))


class TestArimaModel:
    def test_ar_fit_recovers_autoregressive_series(self):
        rng = np.random.default_rng(0)
        series = np.zeros(500)
        for t in range(2, 500):
            series[t] = 0.7 * series[t - 1] - 0.2 * series[t - 2] + rng.normal(0, 0.1)
        model = ArimaModel(p=2, d=0, q=0).fit(series)
        assert model.ar_coef[0] == pytest.approx(0.7, abs=0.1)
        assert model.ar_coef[1] == pytest.approx(-0.2, abs=0.1)

    def test_forecast_of_linear_trend_with_differencing(self):
        series = np.arange(100.0)
        model = ArimaModel(p=2, d=1, q=0).fit(series)
        forecast = model.forecast_next(series)
        assert forecast == pytest.approx(100.0, abs=1.0)

    def test_invalid_orders_rejected(self):
        with pytest.raises(ValueError):
            ArimaModel(p=0, d=0, q=0)
        with pytest.raises(ValueError):
            ArimaModel(p=-1)

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError):
            ArimaModel(p=5).fit(np.arange(4.0))

    def test_forecast_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            ArimaModel(p=2).forecast_next(np.arange(10.0))


class TestArimaPrimitive:
    def test_fit_produce_on_windows(self, tiny_windows):
        X, y = tiny_windows
        model = ARIMA(p=5, d=0, q=1)
        model.fit(X=X, y=y)
        out = model.produce(X=X)
        assert out["y_hat"].shape == (len(X), 1)

    def test_predicts_sine_reasonably(self, tiny_windows):
        X, y = tiny_windows
        model = ARIMA(p=8, d=0, q=0)
        model.fit(X=X, y=y)
        predictions = model.produce(X=X)["y_hat"]
        mse = float(np.mean((predictions - y) ** 2))
        assert mse < 0.05

    def test_produce_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            ARIMA().produce(X=np.zeros((2, 10, 1)))

    def test_too_short_windows_raise_primitive_error(self):
        X = np.zeros((1, 3, 1))
        with pytest.raises(PrimitiveError):
            ARIMA(p=10).fit(X=X, y=np.zeros((1, 1)))


class TestSpectralResidual:
    def test_scores_peak_at_spike(self):
        rng = np.random.default_rng(0)
        series = np.sin(np.linspace(0, 20 * np.pi, 500)) + rng.normal(0, 0.05, 500)
        series[250] += 8.0
        out = SpectralResidual().produce(X=series.reshape(-1, 1),
                                         index=np.arange(500))
        scores = out["errors"]
        assert len(scores) == 500
        assert abs(int(np.argmax(scores)) - 250) <= 3

    def test_index_passthrough(self):
        series = np.sin(np.linspace(0, 10, 100))
        index = np.arange(100) * 30
        out = SpectralResidual().produce(X=series, index=index)
        assert np.array_equal(out["index"], index)

    def test_too_short_input_rejected(self):
        with pytest.raises(PrimitiveError):
            SpectralResidual().produce(X=np.zeros(4), index=np.arange(4))

    def test_length_mismatch_rejected(self):
        with pytest.raises(PrimitiveError):
            SpectralResidual().produce(X=np.zeros(20), index=np.arange(10))


class TestLSTMClassifier:
    def test_fit_produce_probabilities(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 10, 1))
        y = (X.mean(axis=(1, 2)) > 0).astype(float)
        model = LSTMTimeSeriesClassifier(epochs=3, lstm_units=8, batch_size=16)
        model.fit(X=X, y=y)
        probabilities = model.produce(X=X)["y_hat"]
        assert probabilities.shape == (60,)
        assert np.all((probabilities >= 0) & (probabilities <= 1))

    def test_learns_simple_separation(self):
        rng = np.random.default_rng(1)
        negative = rng.normal(-1.0, 0.1, size=(40, 8, 1))
        positive = rng.normal(1.0, 0.1, size=(40, 8, 1))
        X = np.concatenate([negative, positive])
        y = np.concatenate([np.zeros(40), np.ones(40)])
        model = LSTMTimeSeriesClassifier(epochs=15, lstm_units=8, batch_size=16,
                                         learning_rate=0.02, dropout_rate=0.0)
        model.fit(X=X, y=y)
        probabilities = model.produce(X=X)["y_hat"]
        accuracy = np.mean((probabilities > 0.5) == y)
        assert accuracy > 0.9

    def test_produce_before_fit_rejected(self):
        with pytest.raises(NotFittedError):
            LSTMTimeSeriesClassifier().produce(X=np.zeros((2, 5, 1)))
