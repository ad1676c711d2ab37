"""A small Keras-like ``Sequential`` model built on numpy layers."""

from __future__ import annotations

import numpy as np

from repro.nn.callbacks import History
from repro.nn.layers import Layer
from repro.nn.losses import get_loss
from repro.nn.optimizers import get_optimizer

__all__ = ["Sequential"]


class Sequential:
    """A linear stack of layers trained with mini-batch gradient descent.

    Example:
        >>> from repro.nn import Sequential, Dense
        >>> model = Sequential([Dense(8, activation="relu"), Dense(1)])
        >>> model.compile(optimizer="adam", loss="mse")
    """

    def __init__(self, layers=None, random_state: int = None):
        self.layers = list(layers) if layers else []
        self.loss = None
        self.optimizer = None
        self.built = False
        self.stop_training = False
        self.history = None
        self._rng = np.random.default_rng(random_state)

    def add(self, layer: Layer) -> None:
        """Append a layer to the stack."""
        if self.built:
            raise RuntimeError("Cannot add layers after the model has been built")
        self.layers.append(layer)

    def compile(self, optimizer="adam", loss="mse", **optimizer_kwargs) -> None:
        """Attach an optimizer and a loss to the model."""
        self.optimizer = get_optimizer(optimizer, **optimizer_kwargs) \
            if isinstance(optimizer, str) else optimizer
        self.loss = get_loss(loss)

    def build(self, input_shape) -> None:
        """Build every layer for the given input shape (batch excluded)."""
        shape = tuple(input_shape)
        for layer in self.layers:
            layer.build(shape, self._rng)
            shape = layer.output_shape
        self.built = True

    @property
    def parameter_count(self) -> int:
        """Total number of trainable scalar parameters across layers."""
        return sum(layer.parameter_count for layer in self.layers)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run a forward pass through every layer."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        """Backpropagate ``grad`` through every layer (reverse order)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def zero_grads(self) -> None:
        """Reset accumulated gradients in every layer."""
        for layer in self.layers:
            layer.zero_grads()

    def apply_grads(self) -> None:
        """Apply one optimizer step using the accumulated gradients."""
        for layer in self.layers:
            if not layer.trainable:
                continue
            for key, param in layer.params.items():
                grad = layer.grads[key]
                layer.params[key] = self.optimizer.update(
                    f"{layer.name}/{key}", param, grad
                )
        self.optimizer.step()

    def train_on_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """Run a single optimization step on one batch and return the loss."""
        self.zero_grads()
        predictions = self.forward(x, training=True)
        loss_value = self.loss.loss(y, predictions)
        grad = self.loss.gradient(y, predictions)
        self.backward(grad)
        self.apply_grads()
        return loss_value

    def fit(self, x: np.ndarray, y: np.ndarray, epochs: int = 10, batch_size: int = 32,
            validation_split: float = 0.0, shuffle: bool = True, callbacks=None,
            verbose: bool = False) -> History:
        """Train the model.

        Args:
            x: input array of shape ``(samples, ...)``.
            y: target array with matching first dimension.
            epochs: number of passes over the training data.
            batch_size: mini-batch size.
            validation_split: trailing fraction of the data held out for
                validation loss reporting.
            shuffle: whether to shuffle the training samples each epoch.
            callbacks: optional list of :class:`repro.nn.callbacks.Callback`.
            verbose: print one line per epoch when true.

        Returns:
            A :class:`History` callback with per-epoch metrics.
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if len(x) != len(y):
            raise ValueError("x and y must contain the same number of samples")
        if not self.layers:
            raise RuntimeError("Cannot fit a model with no layers")
        if self.loss is None or self.optimizer is None:
            self.compile()
        if not self.built:
            self.build(x.shape[1:])

        x_train, y_train, x_val, y_val = _split_validation(x, y, validation_split)

        history = History()
        callbacks = list(callbacks or [])
        callbacks.append(history)
        self.history = history
        self.stop_training = False

        for callback in callbacks:
            callback.on_train_begin(self)

        n_samples = len(x_train)
        batch_size = max(1, min(batch_size, n_samples))

        for epoch in range(epochs):
            indices = np.arange(n_samples)
            if shuffle:
                self._rng.shuffle(indices)

            epoch_losses = []
            for start in range(0, n_samples, batch_size):
                batch_idx = indices[start:start + batch_size]
                loss_value = self.train_on_batch(x_train[batch_idx], y_train[batch_idx])
                epoch_losses.append(loss_value)

            logs = {"loss": float(np.mean(epoch_losses))}
            if x_val is not None and len(x_val):
                val_pred = self.forward(x_val, training=False)
                logs["val_loss"] = self.loss.loss(y_val, val_pred)

            if verbose:  # pragma: no cover - console output
                extra = f" val_loss={logs['val_loss']:.5f}" if "val_loss" in logs else ""
                print(f"epoch {epoch + 1}/{epochs} loss={logs['loss']:.5f}{extra}")

            for callback in callbacks:
                callback.on_epoch_end(self, epoch, logs)
            if any(callback.stop_training for callback in callbacks):
                self.stop_training = True
                break

        for callback in callbacks:
            callback.on_train_end(self)

        return history

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Run inference: one full forward pass over every sample."""
        x = np.asarray(x, dtype=float)
        if not self.built:
            self.build(x.shape[1:])
        if len(x) == 0:
            shape = self.layers[-1].output_shape if self.layers else ()
            return np.zeros((0,) + tuple(shape))
        return self.forward(x, training=False)

    def predict_fused(self, x: np.ndarray, arena) -> np.ndarray:
        """Single-precision, cache-free inference over the whole batch.

        The fused batch plane's forward: the input is cast to ``float32``
        and pushed through the stack in **time-major** layout — one
        transpose in, one transpose out, with each recurrent step folded
        into a single GEMM over scratch buffers leased from ``arena``
        (see ``Layer.fused_forward_tm``). The result is cast back to
        ``float64`` for downstream numerics but is only tolerance-equal
        to :meth:`predict` — reduced precision and changed summation
        order are the price of the speedup, which is why only
        ``exact=False`` plans reach this path.

        Args:
            x: input samples, batch axis first (at least one sample).
            arena: the executing plan's
                :class:`~repro.core.arena.ArenaPool`, whose buffers back
                the scratch space.
        """
        x = np.asarray(x, dtype=np.float32)
        if not self.built:
            self.build(x.shape[1:])
        with arena.scope() as take:
            return self._forward_time_major(x, take)

    def _forward_time_major(self, x, take):
        """Run the stack in ``(T, F, N)`` / ``(F, N)`` layout.

        The final cast back to float64 always copies, so no arena-leased
        buffer escapes the caller's scope.
        """
        if x.ndim >= 3:
            out = np.ascontiguousarray(np.moveaxis(x, 0, -1))
        else:
            out = np.ascontiguousarray(x.T)
        for layer in self.layers:
            out = layer.fused_forward_tm(out, take)
        return np.asarray(np.moveaxis(out, -1, 0), dtype=np.float64)

    def get_weights(self):
        """Return a list with each layer's parameter dictionary."""
        return [layer.get_weights() for layer in self.layers]

    def set_weights(self, weights) -> None:
        """Load parameters produced by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ValueError("Weight list length does not match the number of layers")
        for layer, layer_weights in zip(self.layers, weights):
            layer.set_weights(layer_weights)

    def summary(self) -> str:
        """Return a human-readable summary of the layer stack."""
        lines = ["Layer (type)              Output shape         Params"]
        lines.append("-" * len(lines[0]))
        for layer in self.layers:
            shape = layer.output_shape if layer.built else "?"
            lines.append(
                f"{layer.name:<25} {str(shape):<20} {layer.parameter_count}"
            )
        lines.append("-" * len(lines[0]))
        lines.append(f"Total params: {self.parameter_count}")
        return "\n".join(lines)


def _split_validation(x, y, validation_split):
    """Split the trailing ``validation_split`` fraction off for validation."""
    if not 0.0 <= validation_split < 1.0:
        raise ValueError("validation_split must be in [0, 1)")
    if validation_split == 0.0 or len(x) < 2:
        return x, y, None, None
    split = int(len(x) * (1.0 - validation_split))
    split = max(1, min(split, len(x) - 1))
    return x[:split], y[:split], x[split:], y[split:]
