"""Supervised LSTM classifier (the modeling step of the supervised pipeline)."""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError
from repro.nn import LSTM, Dense, Dropout, EarlyStopping, Sequential
from repro.primitives.modeling.autoencoders import fitted_windows

__all__ = ["LSTMTimeSeriesClassifier"]


@register_primitive
class LSTMTimeSeriesClassifier(Primitive):
    """LSTM classifier scoring each window's probability of being anomalous.

    This is the modeling primitive of the supervised pipeline in Figure 2b,
    used by the feedback loop: windows labeled by expert annotations train
    the classifier, which then scores unseen windows.
    """

    name = "LSTMTimeSeriesClassifier"
    engine = "modeling"
    description = "LSTM binary classifier over trailing windows."
    fit_args = ["X", "y"]
    produce_args = ["X"]
    produce_output = ["y_hat"]
    fixed_hyperparameters = {
        "validation_split": 0.1,
        "verbose": False,
        "random_state": 0,
        "patience": 5,
    }
    tunable_hyperparameters = {
        "lstm_units": {"type": "int", "default": 24, "range": [8, 128]},
        "dropout_rate": {"type": "float", "default": 0.2, "range": [0.0, 0.6]},
        "epochs": {"type": "int", "default": 15, "range": [1, 100]},
        "batch_size": {"type": "int", "default": 64, "range": [16, 256]},
        "learning_rate": {"type": "float", "default": 0.005, "range": [1e-4, 1e-1]},
    }

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._model = None
        self._window_shape = None

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        if X.ndim == 2:
            X = X[..., np.newaxis]
        y = np.asarray(y, dtype=float).reshape(-1, 1)
        self._window_shape = X.shape[1:]

        model = Sequential(random_state=int(self.random_state))
        model.add(LSTM(int(self.lstm_units), return_sequences=False))
        model.add(Dropout(float(self.dropout_rate)))
        model.add(Dense(1, activation="sigmoid"))
        model.compile(optimizer="adam", loss="binary_crossentropy",
                      learning_rate=float(self.learning_rate))
        model.build(X.shape[1:])

        callbacks = [EarlyStopping(monitor="val_loss", patience=int(self.patience))]
        model.fit(
            X, y,
            epochs=int(self.epochs),
            batch_size=int(self.batch_size),
            validation_split=float(self.validation_split),
            callbacks=callbacks,
            verbose=bool(self.verbose),
        )
        self._model = model

    supports_fused_batch = True
    fuse_category = "forward"

    def produce(self, X):
        if self._model is None:
            raise NotFittedError("LSTMTimeSeriesClassifier must be fit before produce")
        X = fitted_windows(self.name, self._window_shape, X)
        return {"y_hat": self._model.predict(X).ravel()}

    def produce_batch_fused(self, X, arena):
        """Score every signal's windows in one concatenated forward pass.

        The ``exact=False`` batch contract: all signals' trailing windows
        are stacked into a single array and scored in one network forward
        (one recurrent time-step loop for the whole batch). Results are
        tolerance-equal, not bitwise, to the per-signal loop. The plan's
        arena supplies the forward's scratch buffers, so repeat batches
        allocate nothing.
        """
        if self._model is None:
            raise NotFittedError("LSTMTimeSeriesClassifier must be fit before produce")
        arrays = [fitted_windows(self.name, self._window_shape, x)
                  for x in X]
        if not arrays:
            return {"y_hat": []}
        fused = self._model.predict_fused(np.concatenate(arrays, axis=0),
                                          arena).ravel()
        splits = np.cumsum([len(array) for array in arrays])[:-1]
        return {"y_hat": np.split(fused, splits)}
