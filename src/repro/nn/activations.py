"""Activation functions and their derivatives.

Every activation is exposed as a small class with ``forward`` and
``backward`` methods so that layers can keep a reference to the activation
and compute gradients without re-deriving the forward pass.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Activation",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Softmax",
    "get_activation",
]


class Activation:
    """Base class for activations.

    Subclasses implement :meth:`forward` and :meth:`backward`. The backward
    method receives the *output* of the forward pass (cached by the caller)
    together with the upstream gradient, and returns the gradient with
    respect to the pre-activation input.
    """

    name = "activation"

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}()"


class Linear(Activation):
    """Identity activation."""

    name = "linear"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad


class ReLU(Activation):
    """Rectified linear unit."""

    name = "relu"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.maximum(x, 0.0)

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (output > 0.0)


class LeakyReLU(Activation):
    """Leaky rectified linear unit with configurable negative slope."""

    name = "leaky_relu"

    def __init__(self, alpha: float = 0.2):
        self.alpha = float(alpha)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.where(x > 0.0, x, self.alpha * x)

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * np.where(output > 0.0, 1.0, self.alpha)


class Sigmoid(Activation):
    """Numerically-stable logistic sigmoid."""

    name = "sigmoid"

    def forward(self, x: np.ndarray) -> np.ndarray:
        # dtype-preserving: float32 inputs (the fused inference plane)
        # stay float32 instead of promoting to float64.
        out = np.empty_like(x)
        positive = x >= 0
        out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
        exp_x = np.exp(x[~positive])
        out[~positive] = exp_x / (1.0 + exp_x)
        return out

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * output * (1.0 - output)


class Tanh(Activation):
    """Hyperbolic tangent."""

    name = "tanh"

    def forward(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x)

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        return grad * (1.0 - output ** 2)


class Softmax(Activation):
    """Softmax over the last axis."""

    name = "softmax"

    def forward(self, x: np.ndarray) -> np.ndarray:
        shifted = x - np.max(x, axis=-1, keepdims=True)
        exp = np.exp(shifted)
        return exp / np.sum(exp, axis=-1, keepdims=True)

    def backward(self, output: np.ndarray, grad: np.ndarray) -> np.ndarray:
        dot = np.sum(grad * output, axis=-1, keepdims=True)
        return output * (grad - dot)


_ACTIVATIONS = {
    None: Linear,
    "linear": Linear,
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "softmax": Softmax,
}


def get_activation(name) -> Activation:
    """Resolve an activation from a name, instance, or ``None``.

    Args:
        name: ``None``, a string name, or an :class:`Activation` instance.

    Returns:
        An :class:`Activation` instance.

    Raises:
        ValueError: if the name is unknown.
    """
    if isinstance(name, Activation):
        return name

    key = name.lower() if isinstance(name, str) else name
    if key not in _ACTIVATIONS:
        known = sorted(k for k in _ACTIVATIONS if isinstance(k, str))
        raise ValueError(f"Unknown activation {name!r}. Known activations: {known}")

    return _ACTIVATIONS[key]()
