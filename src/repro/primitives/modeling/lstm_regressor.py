"""LSTM time-series regressor (the modeling step of the LSTM DT pipeline)."""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError
from repro.nn import LSTM, Dense, Dropout, EarlyStopping, Sequential
from repro.primitives.modeling.autoencoders import fitted_windows

__all__ = ["LSTMTimeSeriesRegressor"]


@register_primitive
class LSTMTimeSeriesRegressor(Primitive):
    """Double-stacked LSTM network predicting the next signal values.

    Mirrors the architecture described in the paper's "Dissecting LSTM
    Pipeline" paragraph: two LSTM layers with dropout followed by a dense
    output head, trained to predict the value(s) immediately following each
    rolling window.
    """

    name = "LSTMTimeSeriesRegressor"
    engine = "modeling"
    description = "Double-stacked LSTM forecaster."
    fit_args = ["X", "y"]
    produce_args = ["X"]
    produce_output = ["y_hat"]
    fixed_hyperparameters = {
        "validation_split": 0.2,
        "verbose": False,
        "random_state": 0,
        "patience": 5,
    }
    tunable_hyperparameters = {
        "lstm_units": {"type": "int", "default": 32, "range": [8, 128]},
        "dropout_rate": {"type": "float", "default": 0.3, "range": [0.0, 0.6]},
        "epochs": {"type": "int", "default": 12, "range": [1, 100]},
        "batch_size": {"type": "int", "default": 64, "range": [16, 256]},
        "learning_rate": {"type": "float", "default": 0.005, "range": [1e-4, 1e-1]},
    }

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._model = None
        self._window_shape = None

    def _build(self, input_shape, output_size):
        units = int(self.lstm_units)
        model = Sequential(random_state=int(self.random_state))
        model.add(LSTM(units, return_sequences=True))
        model.add(Dropout(float(self.dropout_rate)))
        model.add(LSTM(units, return_sequences=False))
        model.add(Dropout(float(self.dropout_rate)))
        model.add(Dense(output_size))
        model.compile(optimizer="adam", loss="mse",
                      learning_rate=float(self.learning_rate))
        model.build(input_shape)
        return model

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        elif y.ndim == 3:
            # Multivariate targets (k, target_size, m): the dense head
            # predicts every channel's next values as one flat vector;
            # the error primitive reshapes y_hat back to (target_size, m).
            y = y.reshape(len(y), -1)
        self._window_shape = X.shape[1:]
        self._model = self._build(X.shape[1:], y.shape[1])
        callbacks = [EarlyStopping(monitor="val_loss", patience=int(self.patience))]
        self._model.fit(
            X, y,
            epochs=int(self.epochs),
            batch_size=int(self.batch_size),
            validation_split=float(self.validation_split),
            callbacks=callbacks,
            verbose=bool(self.verbose),
        )

    supports_fused_batch = True
    fuse_category = "forward"

    def produce(self, X):
        if self._model is None:
            raise NotFittedError("LSTMTimeSeriesRegressor must be fit before produce")
        X = fitted_windows(self.name, self._window_shape, X)
        return {"y_hat": self._model.predict(X)}

    def produce_batch_fused(self, X, arena):
        """One concatenated forward pass over every signal's windows.

        The ``exact=False`` batch contract: all signals' rolling windows
        are stacked into a single ``(sum_i n_i, window, ...)`` array and
        pushed through the network in one forward — the LSTM's Python
        time-step loop runs once for the whole batch instead of once per
        signal/chunk, and every per-step matmul covers the full batch.
        Results are tolerance-equal (not bitwise) to the per-signal loop.
        The plan's arena supplies the forward's scratch buffers, so repeat
        batches allocate nothing.
        """
        if self._model is None:
            raise NotFittedError("LSTMTimeSeriesRegressor must be fit before produce")
        arrays = [fitted_windows(self.name, self._window_shape, x)
                  for x in X]
        if not arrays:
            return {"y_hat": []}
        fused = self._model.predict_fused(np.concatenate(arrays, axis=0),
                                          arena)
        splits = np.cumsum([len(array) for array in arrays])[:-1]
        return {"y_hat": np.split(fused, splits, axis=0)}
