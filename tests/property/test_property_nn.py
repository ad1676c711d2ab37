"""Property-based tests for the neural-network substrate."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmark.batch import PARITY_ATOL, PARITY_RTOL
from repro.core.arena import ArenaPool
from repro.nn import (LSTM, Dense, Dropout, RepeatVector, Sequential,
                      TimeDistributed, network)
from repro.nn.activations import Sigmoid, Softmax, Tanh
from repro.nn.losses import MeanAbsoluteError, MeanSquaredError


class TestActivationProperties:
    @given(x=st.lists(st.floats(-50, 50, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_sigmoid_bounded_and_monotone(self, x):
        x = np.sort(np.asarray(x))
        out = Sigmoid().forward(x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diff(out) >= -1e-12)

    @given(x=st.lists(st.floats(-20, 20, allow_nan=False), min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_tanh_bounded_and_odd(self, x):
        x = np.asarray(x)
        out = Tanh().forward(x)
        assert np.all(np.abs(out) <= 1.0)
        assert np.allclose(Tanh().forward(-x), -out)

    @given(x=st.lists(st.floats(-30, 30, allow_nan=False), min_size=2, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_softmax_is_a_distribution(self, x):
        out = Softmax().forward(np.asarray(x))
        assert np.all(out >= 0.0)
        assert np.isclose(out.sum(), 1.0)


class TestLossProperties:
    @given(
        y_true=st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_losses_non_negative_and_zero_at_truth(self, y_true):
        y_true = np.asarray(y_true)
        for loss in (MeanSquaredError(), MeanAbsoluteError()):
            assert loss.loss(y_true, y_true) == 0.0
            perturbed = y_true + 1.0
            assert loss.loss(y_true, perturbed) > 0.0


class TestLayerShapeProperties:
    @given(
        batch=st.integers(1, 8),
        features=st.integers(1, 6),
        units=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_dense_preserves_batch_dimension(self, batch, features, units):
        rng = np.random.default_rng(0)
        layer = Dense(units)
        layer.build((features,), rng)
        out = layer.forward(rng.normal(size=(batch, features)))
        assert out.shape == (batch, units)
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == (batch, features)

    @given(
        batch=st.integers(1, 5),
        timesteps=st.integers(2, 8),
        features=st.integers(1, 4),
        units=st.integers(1, 6),
        return_sequences=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_lstm_output_shapes(self, batch, timesteps, features, units,
                                return_sequences):
        rng = np.random.default_rng(0)
        layer = LSTM(units, return_sequences=return_sequences)
        layer.build((timesteps, features), rng)
        x = rng.normal(size=(batch, timesteps, features))
        out = layer.forward(x)
        expected = (batch, timesteps, units) if return_sequences else (batch, units)
        assert out.shape == expected
        grad = layer.backward(np.ones_like(out))
        assert grad.shape == x.shape

    @given(units=st.integers(1, 10))
    @settings(max_examples=20, deadline=None)
    def test_sequential_weight_roundtrip_identity(self, units):
        rng = np.random.default_rng(0)
        model = Sequential([Dense(units), Dense(1)], random_state=1)
        model.compile()
        model.build((4,))
        x = rng.normal(size=(6, 4))
        before = model.predict(x)
        model.set_weights(model.get_weights())
        assert np.allclose(model.predict(x), before)


#: The fused layouts of the NN pipelines, as ``(layers, input shape)``
#: builders over a window of ``T`` steps and ``F`` features.
FUSED_LAYOUTS = {
    "lstm_regressor": lambda T, F: (
        [LSTM(6, return_sequences=True), LSTM(5), Dense(1)], (T, F)),
    "lstm_autoencoder": lambda T, F: (
        [LSTM(5), Dense(3, activation="tanh"), RepeatVector(T),
         LSTM(5, return_sequences=True), TimeDistributed(Dense(F))], (T, F)),
    "dense_autoencoder": lambda T, F: (
        [Dense(8, activation="relu"), Dropout(0.1),
         Dense(3, activation="relu"), Dense(8, activation="relu"),
         Dense(F)], (F,)),
}

#: ``TILE`` while the property runs: ``n`` up to ``21 * SMALL_TILE - 1``
#: windows makes 1 to 20 tiles.
SMALL_TILE = 4


class TestFusedTileProperties:
    """``predict_fused`` over 1 to 20 tiles of a patched ``TILE``."""

    @given(layout=st.sampled_from(sorted(FUSED_LAYOUTS)),
           n=st.integers(1, 21 * SMALL_TILE - 1),
           window=st.integers(2, 8), features=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_tiles_agree_bitwise_and_match_one_pass(self, layout, n, window,
                                                    features, seed, data):
        layers, shape = FUSED_LAYOUTS[layout](window, features)
        model = Sequential(layers, random_state=seed)
        model.build(shape)
        x = np.random.default_rng(seed).normal(size=(n,) + shape)
        with mock.patch.object(network, "TILE", SMALL_TILE):
            pooled = model.predict_fused(x, ArenaPool())
            with mock.patch.object(network, "_tile_threads", lambda: 1):
                serial = model.predict_fused(x, ArenaPool())
        assert pooled.tobytes() == serial.tobytes()

        whole = np.empty_like(serial)
        with ArenaPool().scope() as take:
            model._forward_time_major(x.astype(np.float32), take, whole)
        assert np.allclose(pooled, whole, rtol=PARITY_RTOL, atol=PARITY_ATOL)

        # Negative control: one ulp on one element breaks the bitwise check.
        nudged = pooled.copy()
        at = data.draw(st.integers(0, nudged.size - 1))
        nudged.flat[at] = np.nextafter(nudged.flat[at], np.inf)
        assert nudged.tobytes() != serial.tobytes()
