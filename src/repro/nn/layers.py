"""Neural-network layers implemented with numpy.

The layers follow a small Keras-like contract:

* ``build(input_shape, rng)`` allocates parameters. ``input_shape`` excludes
  the batch dimension.
* ``forward(x, training)`` computes the output and caches whatever the
  backward pass needs.
* ``backward(grad)`` receives the gradient with respect to the layer output,
  accumulates parameter gradients into ``self.grads`` and returns the
  gradient with respect to the layer input.

Every layer also implements ``fused_forward_tm(x, take)``, the one
inference kernel of the fused batch plane (``exact=False``): it operates
on arrays laid out ``(timesteps, features, batch)`` for sequences and
``(features, batch)`` for flat activations, leasing scratch buffers from
the executing plan's arena through ``take(shape, dtype)``. The transposed
layout makes the recurrent hot loops contiguous (gate blocks become
contiguous row bands, per-step GEMMs fold the input projection, recurrent
matmul and bias into one ``matmul``), which is where the fused plane's
speedup comes from. ``Sequential.predict_fused`` runs the stack once per
tile of the window axis (``batch`` is a tile's width, at most
``2 * TILE - 1`` windows), and tiles may run on several threads at once
over one model, so a kernel reads its layer's parameters and writes only
buffers it leased through ``take`` or allocated itself.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.nn.activations import Sigmoid, Tanh, get_activation
from repro.nn.initializers import get_initializer

__all__ = [
    "Layer",
    "Dense",
    "Dropout",
    "Flatten",
    "Reshape",
    "RepeatVector",
    "TimeDistributed",
    "LSTM",
]

_layer_counter = itertools.count()


class Layer:
    """Base class for all layers."""

    def __init__(self, name: str = None):
        self.name = name or f"{self.__class__.__name__.lower()}_{next(_layer_counter)}"
        self.params = {}
        self.grads = {}
        self.built = False
        self.trainable = True
        self.input_shape = None
        self.output_shape = None

    def build(self, input_shape, rng: np.random.Generator) -> None:
        """Allocate parameters for the given input shape (batch excluded)."""
        self.input_shape = tuple(input_shape)
        self.output_shape = self.compute_output_shape(input_shape)
        self.built = True

    def compute_output_shape(self, input_shape):
        """Return the output shape (batch excluded) for ``input_shape``."""
        return tuple(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        raise NotImplementedError

    def fused_forward_tm(self, x: np.ndarray, take) -> np.ndarray:
        """Time-major fused inference: ``x`` is ``(T, F, N)`` or ``(F, N)``.

        No training caches are built, and the computation runs in the
        *input's* dtype (``float32`` on the fused plane), so results are
        tolerance-equal, not bitwise-equal, to ``forward(x,
        training=False)``. ``take(shape, dtype)`` leases scratch/output
        buffers from the executing plan's arena. Returned arrays may alias
        leased buffers — the caller copies escaping results out of the
        arena scope.
        """
        raise NotImplementedError(
            f"{self.__class__.__name__} has no time-major kernel")

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grads(self) -> None:
        """Reset accumulated parameter gradients."""
        self.grads = {key: np.zeros_like(value) for key, value in self.params.items()}

    @property
    def parameter_count(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(param.size for param in self.params.values()))

    def get_weights(self):
        """Return a copy of the parameter dictionary."""
        return {key: value.copy() for key, value in self.params.items()}

    def set_weights(self, weights) -> None:
        """Load parameters from a dictionary produced by :meth:`get_weights`."""
        for key, value in weights.items():
            if key not in self.params:
                raise KeyError(f"Layer {self.name} has no parameter {key!r}")
            if self.params[key].shape != value.shape:
                raise ValueError(
                    f"Shape mismatch for {self.name}.{key}: "
                    f"{self.params[key].shape} vs {value.shape}"
                )
            self.params[key] = np.asarray(value, dtype=float).copy()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}(name={self.name!r})"


class Dense(Layer):
    """Fully-connected layer applied to the last axis of the input."""

    def __init__(self, units: int, activation=None, kernel_initializer="glorot_uniform",
                 name: str = None):
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
        self.activation = get_activation(activation)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self._cache = None

    def build(self, input_shape, rng):
        in_features = input_shape[-1]
        self.params = {
            "W": self.kernel_initializer((in_features, self.units), rng),
            "b": np.zeros(self.units),
        }
        self.zero_grads()
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        return tuple(input_shape[:-1]) + (self.units,)

    def forward(self, x, training=False):
        z = x @ self.params["W"] + self.params["b"]
        out = self.activation.forward(z)
        self._cache = (x, out)
        return out

    def fused_forward_tm(self, x, take):
        dtype = x.dtype
        weights = self.params["W"].astype(dtype, copy=False)
        bias = self.params["b"].astype(dtype, copy=False)
        if x.ndim == 2:  # (F, N) -> (units, N)
            out = take((self.units, x.shape[1]), dtype)
            np.matmul(weights.T, x, out=out)
            out += bias[:, None]
        else:  # (T, F, N) -> (T, units, N): one batched GEMM per timestep
            out = take((x.shape[0], self.units, x.shape[2]), dtype)
            np.matmul(weights.T[None], x, out=out)
            out += bias[None, :, None]
        return self.activation.forward(out)

    def backward(self, grad):
        x, out = self._cache
        grad = self.activation.backward(out, grad)

        x_2d = x.reshape(-1, x.shape[-1])
        grad_2d = grad.reshape(-1, self.units)
        self.grads["W"] += x_2d.T @ grad_2d
        self.grads["b"] += grad_2d.sum(axis=0)
        return (grad_2d @ self.params["W"].T).reshape(x.shape)


class Dropout(Layer):
    """Inverted dropout: active only during training."""

    def __init__(self, rate: float, name: str = None, seed: int = None):
        super().__init__(name)
        if not 0.0 <= rate < 1.0:
            raise ValueError("rate must be in [0, 1)")
        self.rate = float(rate)
        self._rng = np.random.default_rng(seed)
        self._mask = None

    def build(self, input_shape, rng):
        self._rng = rng
        super().build(input_shape, rng)

    def forward(self, x, training=False):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep) / keep
        return x * self._mask

    def fused_forward_tm(self, x, take):
        return x  # inference: dropout is the identity

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class Flatten(Layer):
    """Flatten every axis but the batch axis."""

    def __init__(self, name: str = None):
        super().__init__(name)
        self._input_full_shape = None

    def compute_output_shape(self, input_shape):
        return (int(np.prod(input_shape)),)

    def forward(self, x, training=False):
        self._input_full_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def fused_forward_tm(self, x, take):
        # (T, C, N) -> (T*C, N): with the batch axis last, flattening the
        # leading axes is a plain reshape that preserves the same
        # feature order as the batch-major ``reshape(N, -1)``.
        return np.ascontiguousarray(x).reshape(-1, x.shape[-1])

    def backward(self, grad):
        return grad.reshape(self._input_full_shape)


class Reshape(Layer):
    """Reshape the non-batch axes to ``target_shape``."""

    def __init__(self, target_shape, name: str = None):
        super().__init__(name)
        self.target_shape = tuple(int(dim) for dim in target_shape)
        self._input_full_shape = None

    def build(self, input_shape, rng):
        if int(np.prod(input_shape)) != int(np.prod(self.target_shape)):
            raise ValueError(
                f"Cannot reshape {tuple(input_shape)} into {self.target_shape}"
            )
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        return self.target_shape

    def forward(self, x, training=False):
        self._input_full_shape = x.shape
        return x.reshape((x.shape[0],) + self.target_shape)

    def fused_forward_tm(self, x, take):
        # Batch axis last: the non-batch axes are the leading ones.
        return np.ascontiguousarray(x).reshape(
            self.target_shape + (x.shape[-1],))

    def backward(self, grad):
        return grad.reshape(self._input_full_shape)


class RepeatVector(Layer):
    """Repeat a 2D input ``n`` times along a new time axis."""

    def __init__(self, n: int, name: str = None):
        super().__init__(name)
        if n <= 0:
            raise ValueError("n must be a positive integer")
        self.n = int(n)

    def compute_output_shape(self, input_shape):
        return (self.n,) + tuple(input_shape)

    def forward(self, x, training=False):
        return np.repeat(x[:, np.newaxis, :], self.n, axis=1)

    def fused_forward_tm(self, x, take):
        # (F, N) -> (n, F, N) as a zero-copy broadcast view; downstream
        # time loops read per-step slices, which all alias the input.
        return np.broadcast_to(x, (self.n,) + x.shape)

    def backward(self, grad):
        return grad.sum(axis=1)


class TimeDistributed(Layer):
    """Apply an inner layer independently at every timestep.

    The inner layer already operates on the last axis, so the wrapper mostly
    adapts shape bookkeeping; it exists to mirror the architecture
    descriptions used by the paper's pipelines.
    """

    def __init__(self, layer: Layer, name: str = None):
        super().__init__(name)
        self.layer = layer

    def build(self, input_shape, rng):
        self.layer.build(input_shape[1:], rng)
        self.params = self.layer.params
        self.grads = self.layer.grads
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        inner = self.layer.compute_output_shape(input_shape[1:])
        return (input_shape[0],) + tuple(inner)

    def zero_grads(self):
        self.layer.zero_grads()
        self.grads = self.layer.grads

    def forward(self, x, training=False):
        return self.layer.forward(x, training=training)

    def fused_forward_tm(self, x, take):
        return self.layer.fused_forward_tm(x, take)

    def backward(self, grad):
        out = self.layer.backward(grad)
        self.grads = self.layer.grads
        return out


class LSTM(Layer):
    """Long Short-Term Memory layer with full backpropagation through time.

    Parameters follow the standard formulation with a single stacked kernel
    for the four gates in the order input, forget, cell, output.
    """

    def __init__(self, units: int, return_sequences: bool = False,
                 kernel_initializer="glorot_uniform",
                 recurrent_initializer="orthogonal", name: str = None):
        super().__init__(name)
        if units <= 0:
            raise ValueError("units must be a positive integer")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self.kernel_initializer = get_initializer(kernel_initializer)
        self.recurrent_initializer = get_initializer(recurrent_initializer)
        self._sigmoid = Sigmoid()
        self._tanh = Tanh()
        self._cache = None

    def build(self, input_shape, rng):
        if len(input_shape) != 2:
            raise ValueError(
                f"LSTM expects input shape (timesteps, features); got {tuple(input_shape)}"
            )
        features = input_shape[-1]
        units = self.units
        kernel = self.kernel_initializer((features, 4 * units), rng)
        recurrent = self.recurrent_initializer((units, 4 * units), rng)
        bias = np.zeros(4 * units)
        # Forget-gate bias of 1.0 is the standard trick to ease gradient flow.
        bias[units:2 * units] = 1.0
        self.params = {"W": kernel, "U": recurrent, "b": bias}
        self.zero_grads()
        super().build(input_shape, rng)

    def compute_output_shape(self, input_shape):
        timesteps = input_shape[0]
        if self.return_sequences:
            return (timesteps, self.units)
        return (self.units,)

    def forward(self, x, training=False):
        batch, timesteps, _ = x.shape
        units = self.units
        weights, recurrent, bias = self.params["W"], self.params["U"], self.params["b"]

        h_prev = np.zeros((batch, units))
        c_prev = np.zeros((batch, units))
        cache = []
        outputs = np.zeros((batch, timesteps, units))

        for t in range(timesteps):
            x_t = x[:, t, :]
            z = x_t @ weights + h_prev @ recurrent + bias
            i = self._sigmoid.forward(z[:, :units])
            f = self._sigmoid.forward(z[:, units:2 * units])
            g = self._tanh.forward(z[:, 2 * units:3 * units])
            o = self._sigmoid.forward(z[:, 3 * units:])
            c = f * c_prev + i * g
            tanh_c = self._tanh.forward(c)
            h = o * tanh_c
            outputs[:, t, :] = h
            cache.append((x_t, h_prev, c_prev, i, f, g, o, c, tanh_c))
            h_prev, c_prev = h, c

        self._cache = (x.shape, cache)
        if self.return_sequences:
            return outputs
        return outputs[:, -1, :]

    def _step_matrix(self, dtype):
        """Augmented, gate-permuted step matrix of the time-major kernel.

        One GEMM per timestep computes ``z = M @ [h; x_t; 1]``, folding
        the recurrent matmul, the input projection and the bias into a
        single contraction. The gate rows are permuted from the stored
        ``[i, f, g, o]`` order to ``[i, f, o, g]`` so the three
        sigmoid-activated gates form one contiguous row band and the
        tanh-activated candidate the other — each transcendental then
        runs once over contiguous memory.
        """
        units = self.units
        perm = np.concatenate([
            np.arange(0, 2 * units),          # i, f
            np.arange(3 * units, 4 * units),  # o
            np.arange(2 * units, 3 * units),  # g
        ])
        stacked = np.concatenate(
            [self.params["U"].T, self.params["W"].T,
             self.params["b"][:, np.newaxis]], axis=1)
        return np.ascontiguousarray(stacked[perm].astype(dtype, copy=False))

    @staticmethod
    def _sigmoid_inplace(a):
        # sig(z) = (tanh(z / 2) + 1) / 2 — one transcendental plus three
        # cheap in-place passes; matches 1 / (1 + exp(-z)) to ~1e-7,
        # inside the fused plane's tolerance contract.
        np.multiply(a, 0.5, out=a)
        np.tanh(a, out=a)
        np.add(a, 1.0, out=a)
        np.multiply(a, 0.5, out=a)

    def fused_forward_tm(self, x, take):
        """Time-major recurrent inference: ``(T, F, N) -> (T, U, N)``.

        The hidden state lives inside the GEMM's right-hand-side buffer
        ``[h; x_t; 1]``, so each step is: copy ``x_t`` into the RHS, one
        ``matmul`` into the gate buffer, two in-place transcendentals
        over contiguous row bands, and in-place state updates. All
        scratch comes from the arena via ``take``.
        """
        dtype = x.dtype
        units = self.units
        timesteps, features, n = x.shape
        step_matrix = self._step_matrix(dtype)

        rhs = take((units + features + 1, n), dtype)
        gates = take((4 * units, n), dtype)
        cell = take((units, n), dtype)
        scratch = take((units, n), dtype)

        hidden = rhs[:units]
        hidden.fill(0.0)
        cell.fill(0.0)
        rhs[units + features].fill(1.0)

        sig_band = gates[:3 * units].reshape(-1)
        gate_i = gates[:units]
        gate_f = gates[units:2 * units]
        gate_o = gates[2 * units:3 * units]
        gate_g = gates[3 * units:]
        outputs = (take((timesteps, units, n), dtype)
                   if self.return_sequences else None)

        for t in range(timesteps):
            rhs[units:units + features] = x[t]
            np.matmul(step_matrix, rhs, out=gates)
            self._sigmoid_inplace(sig_band)
            np.tanh(gate_g, out=gate_g)
            np.multiply(cell, gate_f, out=cell)
            np.multiply(gate_i, gate_g, out=scratch)
            np.add(cell, scratch, out=cell)
            np.tanh(cell, out=scratch)
            np.multiply(gate_o, scratch, out=hidden)
            if outputs is not None:
                outputs[t] = hidden
        return outputs if outputs is not None else hidden

    def backward(self, grad):
        x_shape, cache = self._cache
        batch, timesteps, features = x_shape
        units = self.units
        weights, recurrent = self.params["W"], self.params["U"]

        if self.return_sequences:
            grad_seq = grad
        else:
            grad_seq = np.zeros((batch, timesteps, units), dtype=grad.dtype)
            grad_seq[:, -1, :] = grad

        dx = np.zeros(x_shape, dtype=grad.dtype)
        dh_next = np.zeros((batch, units), dtype=grad.dtype)
        dc_next = np.zeros((batch, units), dtype=grad.dtype)
        dW = np.zeros_like(self.grads["W"])
        dU = np.zeros_like(self.grads["U"])
        db = np.zeros_like(self.grads["b"])

        for t in reversed(range(timesteps)):
            x_t, h_prev, c_prev, i, f, g, o, c, tanh_c = cache[t]
            dh = grad_seq[:, t, :] + dh_next

            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c ** 2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f

            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g ** 2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )

            dW += x_t.T @ dz
            dU += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ weights.T
            dh_next = dz @ recurrent.T

        self.grads["W"] += dW
        self.grads["U"] += dU
        self.grads["b"] += db
        return dx
