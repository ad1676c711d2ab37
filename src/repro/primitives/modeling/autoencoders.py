"""Autoencoder modeling primitives (LSTM AE and Dense AE pipelines)."""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError, PrimitiveError
from repro.nn import (
    LSTM,
    Dense,
    Dropout,
    EarlyStopping,
    Flatten,
    RepeatVector,
    Reshape,
    Sequential,
    TimeDistributed,
)

__all__ = ["LSTMAutoencoder", "DenseAutoencoder"]


def fitted_windows(name: str, window_shape: tuple, X) -> np.ndarray:
    """``X`` as float ``(n, window, channels)`` windows of the fitted shape.

    ``rolling_window_sequences`` shrinks the window of a signal shorter
    than ``window_size + target_size``, so a model fitted on such a signal
    learned another window shape than later signals produce. Raise a
    typed error naming both shapes instead of failing inside numpy.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim == 2:
        X = X[..., np.newaxis]
    if X.shape[1:] != tuple(window_shape):
        raise PrimitiveError(
            f"{name} was fitted on windows of shape {tuple(window_shape)} "
            f"but received windows of shape {X.shape[1:]}; refit it on a "
            "signal that yields the same window shape")
    return X


class _WindowAutoencoder(Primitive):
    """Shared fit/produce logic for window-reconstruction autoencoders."""

    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["y_hat"]

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._model = None
        self._window_shape = None

    def _build(self, input_shape) -> Sequential:
        raise NotImplementedError

    def fit(self, X, y=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 2:
            X = X[..., np.newaxis]
        self._window_shape = X.shape[1:]
        self._model = self._build(X.shape[1:])
        callbacks = [EarlyStopping(monitor="val_loss", patience=int(self.patience))]
        target = X if self._reconstruct_3d else X.reshape(len(X), -1)
        trainer = self._model.fit_fused if bool(self.fused_training) \
            else self._model.fit
        trainer(
            X, target,
            epochs=int(self.epochs),
            batch_size=int(self.batch_size),
            validation_split=float(self.validation_split),
            callbacks=callbacks,
            verbose=bool(self.verbose),
        )

    supports_fused_batch = True
    fuse_category = "forward"
    fused_accepts_arena = True

    def produce(self, X):
        if self._model is None:
            raise NotFittedError(f"{self.name} must be fit before produce")
        X = fitted_windows(self.name, self._window_shape, X)
        reconstruction = self._model.predict(X)
        reconstruction = reconstruction.reshape((len(X),) + self._window_shape)
        return {"y_hat": reconstruction}

    def produce_batch_fused(self, X, arena=None):
        """One concatenated reconstruction pass over the whole batch.

        The ``exact=False`` batch contract: every signal's windows are
        stacked into a single array and reconstructed in one network
        forward (one recurrent time-step loop / one set of dense matmuls
        for the entire batch). Results are tolerance-equal, not bitwise,
        to the per-signal loop. Inside a fused chain the plan's arena
        supplies the forward's scratch buffers, so repeat batches
        allocate nothing.
        """
        if self._model is None:
            raise NotFittedError(f"{self.name} must be fit before produce")
        arrays = [fitted_windows(self.name, self._window_shape, x)
                  for x in X]
        if not arrays:
            return {"y_hat": []}
        fused = self._model.predict_fused(np.concatenate(arrays, axis=0),
                                          arena=arena)
        fused = fused.reshape((len(fused),) + self._window_shape)
        splits = np.cumsum([len(array) for array in arrays])[:-1]
        return {"y_hat": np.split(fused, splits, axis=0)}


@register_primitive
class LSTMAutoencoder(_WindowAutoencoder):
    """LSTM encoder-decoder reconstructing each rolling window.

    Follows Malhotra et al. (2016): an LSTM encoder compresses the window
    into a latent vector, which is repeated and decoded by a second LSTM
    with a time-distributed dense output.
    """

    name = "LSTMAutoencoder"
    engine = "modeling"
    description = "LSTM encoder-decoder window reconstructor."
    fixed_hyperparameters = {
        "validation_split": 0.2,
        "verbose": False,
        "random_state": 0,
        "patience": 5,
        "fused_training": False,
    }
    tunable_hyperparameters = {
        "lstm_units": {"type": "int", "default": 24, "range": [8, 128]},
        "latent_dim": {"type": "int", "default": 12, "range": [4, 64]},
        "epochs": {"type": "int", "default": 12, "range": [1, 100]},
        "batch_size": {"type": "int", "default": 64, "range": [16, 256]},
        "learning_rate": {"type": "float", "default": 0.005, "range": [1e-4, 1e-1]},
    }

    _reconstruct_3d = True

    def _build(self, input_shape):
        window_size, n_channels = input_shape
        model = Sequential(random_state=int(self.random_state))
        model.add(LSTM(int(self.lstm_units), return_sequences=False))
        model.add(Dense(int(self.latent_dim), activation="tanh"))
        model.add(RepeatVector(window_size))
        model.add(LSTM(int(self.lstm_units), return_sequences=True))
        model.add(TimeDistributed(Dense(n_channels)))
        model.compile(optimizer="adam", loss="mse",
                      learning_rate=float(self.learning_rate))
        model.build(input_shape)
        return model


@register_primitive
class DenseAutoencoder(_WindowAutoencoder):
    """Fully-connected autoencoder reconstructing flattened windows."""

    name = "DenseAutoencoder"
    engine = "modeling"
    description = "Dense (fully-connected) window reconstructor."
    fixed_hyperparameters = {
        "validation_split": 0.2,
        "verbose": False,
        "random_state": 0,
        "patience": 5,
        "fused_training": False,
    }
    tunable_hyperparameters = {
        "hidden_units": {"type": "int", "default": 64, "range": [16, 256]},
        "latent_dim": {"type": "int", "default": 16, "range": [4, 64]},
        "dropout_rate": {"type": "float", "default": 0.1, "range": [0.0, 0.5]},
        "epochs": {"type": "int", "default": 20, "range": [1, 200]},
        "batch_size": {"type": "int", "default": 64, "range": [16, 256]},
        "learning_rate": {"type": "float", "default": 0.005, "range": [1e-4, 1e-1]},
    }

    _reconstruct_3d = True

    def _build(self, input_shape):
        window_size, n_channels = input_shape
        flat = window_size * n_channels
        model = Sequential(random_state=int(self.random_state))
        model.add(Flatten())
        model.add(Dense(int(self.hidden_units), activation="relu"))
        model.add(Dropout(float(self.dropout_rate)))
        model.add(Dense(int(self.latent_dim), activation="relu"))
        model.add(Dense(int(self.hidden_units), activation="relu"))
        model.add(Dense(flat))
        model.add(Reshape((window_size, n_channels)))
        model.compile(optimizer="adam", loss="mse",
                      learning_rate=float(self.learning_rate))
        model.build(input_shape)
        return model
