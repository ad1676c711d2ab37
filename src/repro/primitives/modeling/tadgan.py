"""TadGAN modeling primitive (Geiger et al., IEEE Big Data 2020).

TadGAN reconstructs signal windows through an adversarially-trained
encoder/generator pair with two critics (one on the signal space, one on
the latent space) and a cycle-consistency reconstruction loss. This
implementation keeps the four-network structure and the interleaved
training schedule the paper describes — which is also why it is the
slowest, most memory-hungry pipeline in the computational benchmark — with
architectures small enough to train on the numpy substrate.
"""

from __future__ import annotations

import numpy as np

from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import NotFittedError
from repro.nn import (
    LSTM,
    Dense,
    Flatten,
    RepeatVector,
    Sequential,
    TimeDistributed,
)
from repro.primitives.modeling.autoencoders import fitted_windows

__all__ = ["TadGAN"]


@register_primitive
class TadGAN(Primitive):
    """GAN-based window reconstructor with signal and latent critics."""

    name = "TadGAN"
    engine = "modeling"
    description = "Adversarially-trained encoder/generator window reconstructor."
    fit_args = ["X"]
    produce_args = ["X"]
    produce_output = ["y_hat", "critic"]
    fixed_hyperparameters = {
        "verbose": False,
        "random_state": 0,
        "reconstruction_weight": 10.0,
        "critic_iterations": 1,
    }
    tunable_hyperparameters = {
        "latent_dim": {"type": "int", "default": 8, "range": [2, 64]},
        "lstm_units": {"type": "int", "default": 16, "range": [8, 128]},
        "critic_units": {"type": "int", "default": 32, "range": [8, 128]},
        "epochs": {"type": "int", "default": 8, "range": [1, 100]},
        "batch_size": {"type": "int", "default": 64, "range": [16, 256]},
        "learning_rate": {"type": "float", "default": 0.002, "range": [1e-4, 1e-1]},
    }

    def __init__(self, **hyperparameters):
        super().__init__(**hyperparameters)
        self._encoder = None
        self._generator = None
        self._critic_x = None
        self._critic_z = None
        self._window_shape = None
        self._rng = np.random.default_rng(int(self.random_state))

    # ------------------------------------------------------------------ #
    # network construction
    # ------------------------------------------------------------------ #
    def _build_networks(self, window_shape):
        window_size, n_channels = window_shape
        latent = int(self.latent_dim)
        units = int(self.lstm_units)
        critic_units = int(self.critic_units)
        lr = float(self.learning_rate)
        seed = int(self.random_state)

        encoder = Sequential(random_state=seed)
        encoder.add(LSTM(units, return_sequences=False))
        encoder.add(Dense(latent, activation="tanh"))
        encoder.compile(optimizer="adam", loss="mse", learning_rate=lr)
        encoder.build(window_shape)

        generator = Sequential(random_state=seed + 1)
        generator.add(Dense(units, activation="relu"))
        generator.add(RepeatVector(window_size))
        generator.add(LSTM(units, return_sequences=True))
        generator.add(TimeDistributed(Dense(n_channels)))
        generator.compile(optimizer="adam", loss="mse", learning_rate=lr)
        generator.build((latent,))

        critic_x = Sequential(random_state=seed + 2)
        critic_x.add(Flatten())
        critic_x.add(Dense(critic_units, activation="leaky_relu"))
        critic_x.add(Dense(1))
        critic_x.compile(optimizer="adam", loss="mse", learning_rate=lr)
        critic_x.build(window_shape)

        critic_z = Sequential(random_state=seed + 3)
        critic_z.add(Dense(critic_units, activation="leaky_relu"))
        critic_z.add(Dense(1))
        critic_z.compile(optimizer="adam", loss="mse", learning_rate=lr)
        critic_z.build((latent,))

        return encoder, generator, critic_x, critic_z

    # ------------------------------------------------------------------ #
    # training
    # ------------------------------------------------------------------ #
    def fit(self, X, y=None):
        X = np.asarray(X, dtype=float)
        if X.ndim == 2:
            X = X[..., np.newaxis]
        self._window_shape = X.shape[1:]
        networks = self._build_networks(self._window_shape)
        self._encoder, self._generator, self._critic_x, self._critic_z = networks

        n_samples = len(X)
        batch_size = max(2, min(int(self.batch_size), n_samples))
        latent = int(self.latent_dim)

        for _ in range(int(self.epochs)):
            indices = self._rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                batch = X[indices[start:start + batch_size]]
                if len(batch) < 2:
                    continue
                for _ in range(int(self.critic_iterations)):
                    self._train_critic_x(batch, latent)
                    self._train_critic_z(batch, latent)
                self._train_encoder_generator(batch, latent)

    def _train_critic_x(self, batch, latent):
        critic = self._critic_x
        generator = self._generator
        n = len(batch)
        z = self._rng.standard_normal((n, latent))
        fake = generator.forward(z, training=False)

        critic.zero_grads()
        real_scores = critic.forward(batch, training=True)
        critic.backward(-np.ones_like(real_scores) / real_scores.size)
        fake_scores = critic.forward(fake, training=True)
        critic.backward(np.ones_like(fake_scores) / fake_scores.size)
        critic.apply_grads()

    def _train_critic_z(self, batch, latent):
        critic = self._critic_z
        encoder = self._encoder
        n = len(batch)
        z_real = self._rng.standard_normal((n, latent))
        z_fake = encoder.forward(batch, training=False)

        critic.zero_grads()
        real_scores = critic.forward(z_real, training=True)
        critic.backward(-np.ones_like(real_scores) / real_scores.size)
        fake_scores = critic.forward(z_fake, training=True)
        critic.backward(np.ones_like(fake_scores) / fake_scores.size)
        critic.apply_grads()

    def _train_encoder_generator(self, batch, latent):
        encoder, generator = self._encoder, self._generator
        critic_x, critic_z = self._critic_x, self._critic_z
        n = len(batch)
        weight = float(self.reconstruction_weight)

        encoder.zero_grads()
        generator.zero_grads()

        # Adversarial term on the signal space: fool critic_x with G(z).
        z = self._rng.standard_normal((n, latent))
        fake = generator.forward(z, training=True)
        scores = critic_x.forward(fake, training=True)
        grad_fake = critic_x.backward(-np.ones_like(scores) / scores.size)
        generator.backward(grad_fake)

        # Adversarial term on the latent space: fool critic_z with E(x).
        encoded = encoder.forward(batch, training=True)
        scores_z = critic_z.forward(encoded, training=True)
        grad_encoded = critic_z.backward(-np.ones_like(scores_z) / scores_z.size)
        encoder.backward(grad_encoded)

        # Cycle-consistency reconstruction term: x ≈ G(E(x)).
        encoded = encoder.forward(batch, training=True)
        reconstructed = generator.forward(encoded, training=True)
        grad_rec = weight * 2.0 * (reconstructed - batch) / reconstructed.size
        grad_latent = generator.backward(grad_rec)
        encoder.backward(grad_latent)

        encoder.apply_grads()
        generator.apply_grads()

    # ------------------------------------------------------------------ #
    # inference
    # ------------------------------------------------------------------ #
    supports_fused_batch = True
    fuse_category = "forward"

    def produce(self, X):
        if self._encoder is None:
            raise NotFittedError("TadGAN must be fit before produce")
        X = fitted_windows(self.name, self._window_shape, X)
        encoded = self._encoder.predict(X)
        reconstructed = self._generator.predict(encoded)
        reconstructed = reconstructed.reshape((len(X),) + self._window_shape)
        critic_scores = self._critic_x.predict(X).ravel()
        return {"y_hat": reconstructed, "critic": critic_scores}

    def produce_batch_fused(self, X, arena):
        """Reconstruct and score every signal's windows in fused forwards.

        The ``exact=False`` batch contract: all signals' windows are
        stacked once and pushed through the encoder, generator and signal
        critic as three concatenated forwards — each network's recurrent
        time-step loop (or dense matmul) runs once for the whole batch
        instead of once per signal. Results are tolerance-equal, not
        bitwise, to the per-signal loop. The plan's arena supplies every
        forward's scratch buffers, so repeat batches allocate nothing.
        """
        if self._encoder is None:
            raise NotFittedError("TadGAN must be fit before produce")
        arrays = [fitted_windows(self.name, self._window_shape, x)
                  for x in X]
        if not arrays:
            return {"y_hat": [], "critic": []}
        stacked = np.concatenate(arrays, axis=0)
        encoded = self._encoder.predict_fused(stacked, arena)
        reconstructed = self._generator.predict_fused(encoded, arena)
        reconstructed = reconstructed.reshape(
            (len(stacked),) + self._window_shape)
        critic_scores = self._critic_x.predict_fused(stacked, arena).ravel()
        splits = np.cumsum([len(array) for array in arrays])[:-1]
        return {"y_hat": np.split(reconstructed, splits, axis=0),
                "critic": np.split(critic_scores, splits)}
