"""The Sintel core API: ``fit`` / ``detect`` / ``evaluate`` (paper §3.1).

``Sintel`` wraps a pipeline behind the scikit-learn-style interface shown
in Figure 4a of the paper:

    >>> from repro import Sintel
    >>> sintel = Sintel("lstm_dynamic_threshold")
    >>> sintel.fit(train_data)
    >>> anomalies = sintel.detect(test_data)
"""

from __future__ import annotations

import pickle
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.pipeline import Pipeline, Template
from repro.data.signal import Signal
from repro.evaluation import overlapping_segment_scores, weighted_segment_scores
from repro.exceptions import NotFittedError, PipelineError

__all__ = ["Sintel"]

AnomalyList = List[Tuple[float, float, float]]


class Sintel:
    """End-to-end anomaly detection over a single pipeline.

    Args:
        pipeline: a registered pipeline name, a spec dictionary, a
            :class:`Template` or an already-built :class:`Pipeline`.
        hyperparameters: optional hyperparameter overrides, keyed by step
            name (or ``(step, name)`` tuples).
        pipeline_options: keyword options forwarded to the spec factory when
            ``pipeline`` is a registered name (e.g. ``window_size`` or
            ``epochs``).
    """

    def __init__(self, pipeline: Union[str, dict, Template, Pipeline],
                 hyperparameters: Optional[dict] = None, **pipeline_options):
        self._pipeline = self._resolve(pipeline, hyperparameters, pipeline_options)

    @staticmethod
    def _resolve(pipeline, hyperparameters, pipeline_options) -> Pipeline:
        if isinstance(pipeline, Pipeline):
            if hyperparameters:
                pipeline.set_hyperparameters(hyperparameters)
            return pipeline
        if isinstance(pipeline, Template):
            return pipeline.create_pipeline(hyperparameters)
        if isinstance(pipeline, dict):
            return Pipeline(pipeline, hyperparameters=hyperparameters)
        if isinstance(pipeline, str):
            # Imported here to avoid a circular import with the pipeline hub.
            from repro.pipelines import load_pipeline

            return load_pipeline(pipeline, hyperparameters=hyperparameters,
                                 **pipeline_options)
        raise PipelineError(f"Cannot build a pipeline from {type(pipeline).__name__}")

    # ------------------------------------------------------------------ #
    # data handling
    # ------------------------------------------------------------------ #
    @staticmethod
    def _to_array(data) -> np.ndarray:
        """Accept a Signal or a ``(timestamp, values...)`` array."""
        if isinstance(data, Signal):
            return data.to_array()
        data = np.asarray(data, dtype=float)
        if data.ndim == 1:
            # A bare value series: generate an integer timestamp column.
            data = np.column_stack([np.arange(len(data), dtype=float), data])
        if data.ndim != 2 or data.shape[1] < 2:
            raise PipelineError(
                "data must be a Signal or a 2D (timestamp, values...) array"
            )
        return data

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    @property
    def pipeline(self) -> Pipeline:
        """The underlying executable pipeline."""
        return self._pipeline

    @property
    def pipeline_name(self) -> str:
        """Name of the underlying pipeline."""
        return self._pipeline.name

    @property
    def fitted(self) -> bool:
        """Whether the underlying pipeline is fitted."""
        return self._pipeline.fitted

    def fit(self, data, **context_variables) -> "Sintel":
        """Train the pipeline on ``data``."""
        self._pipeline.fit(self._to_array(data), **context_variables)
        return self

    def detect(self, data, visualization: bool = False,
               **context_variables) -> AnomalyList:
        """Detect anomalies in ``data`` with the trained pipeline."""
        if not self.fitted:
            raise NotFittedError("Sintel.detect called before Sintel.fit")
        return self._pipeline.detect(
            self._to_array(data), visualization=visualization, **context_variables
        )

    def detect_many(self, signals, exact: bool = True, precision: str = None,
                    **context_variables) -> List[AnomalyList]:
        """Detect anomalies in many signals with one batched pipeline pass.

        The batch data-plane counterpart of :meth:`detect`: the whole batch
        flows through each pipeline step together (vectorized where the
        primitives support it), returning one anomaly list per signal in
        input order — bitwise-identical to ``[self.detect(s) for s in
        signals]`` but substantially faster for batches of similar signals.

        ``exact=False`` opts into the fused batch plan: NN forwards run as
        concatenated batched matmuls and contiguous step chains execute
        as single fused passes over arena buffers, trading bitwise parity
        for tolerance parity and a large speedup on recurrent pipelines
        (see :meth:`~repro.core.pipeline.Pipeline.detect_batch`).
        ``precision="float32"`` (requires ``exact=False``) additionally
        keeps fused chains in single precision end to end.
        """
        if not self.fitted:
            raise NotFittedError("Sintel.detect_many called before Sintel.fit")
        arrays = [self._to_array(signal) for signal in signals]
        return self._pipeline.detect_batch(arrays, exact=exact,
                                           precision=precision,
                                           **context_variables)

    def fit_detect(self, data, **context_variables) -> AnomalyList:
        """Fit on ``data`` and detect anomalies in the same data."""
        self.fit(data, **context_variables)
        return self.detect(data, **context_variables)

    def stream(self, **stream_options):
        """Open a live stream over the fitted pipeline.

        Returns a :class:`~repro.core.stream.StreamRunner` that consumes
        ``(timestamp, values...)`` micro-batches via ``send``, emits
        stable-id anomaly events incrementally and watches for drift;
        keyword options (window size, drift detector...) are forwarded to
        the runner. The pipeline must be fitted first.

        The runner advances its own copies of the pipeline's incremental
        primitives, so streaming never changes what :meth:`detect`
        answers, and streams opened on one ``Sintel`` never share running
        state.

        The runner never refits itself. For drift-triggered refits, serve
        the stream as a lane of a
        :class:`~repro.core.fleet.StreamScheduler` instead (one lane is
        enough): ``StreamScheduler(refit_sync=True).add_stream(self)``.
        """
        if not self.fitted:
            raise NotFittedError("Sintel.stream called before Sintel.fit")
        # Imported lazily to avoid a circular import at module load time.
        from repro.core.stream import StreamRunner

        return StreamRunner(self._pipeline, **stream_options)

    def evaluate(self, data, ground_truth, fit: bool = False,
                 method: str = "overlapping") -> dict:
        """Detect anomalies and score them against ``ground_truth``.

        Args:
            data: signal to analyze.
            ground_truth: known anomalies as ``(start, end)`` intervals.
            fit: whether to (re)fit the pipeline on ``data`` first.
            method: ``"overlapping"`` or ``"weighted"`` (paper §2.3).

        Returns:
            Dictionary with ``precision``, ``recall`` and ``f1``.
        """
        array = self._to_array(data)
        if fit or not self.fitted:
            self.fit(array)
        detected = self.detect(array)
        if method == "weighted":
            data_range = (float(array[0, 0]), float(array[-1, 0]))
            return weighted_segment_scores(ground_truth, detected, data_range)
        if method == "overlapping":
            return overlapping_segment_scores(ground_truth, detected)
        raise ValueError(f"Unknown evaluation method {method!r}")

    # ------------------------------------------------------------------ #
    # hyperparameters and persistence
    # ------------------------------------------------------------------ #
    def get_hyperparameters(self) -> dict:
        """Current hyperparameter assignment of the pipeline."""
        return self._pipeline.get_hyperparameters()

    def set_hyperparameters(self, hyperparameters: dict) -> None:
        """Override pipeline hyperparameters (resets the fitted state)."""
        self._pipeline.set_hyperparameters(hyperparameters)

    def get_tunable_hyperparameters(self) -> dict:
        """The tunable hyperparameter space of the pipeline."""
        return self._pipeline.get_tunable_hyperparameters()

    def save(self, path) -> None:
        """Serialize the Sintel instance (including the fitted pipeline)."""
        with open(path, "wb") as handle:
            pickle.dump(self, handle)

    @classmethod
    def load(cls, path) -> "Sintel":
        """Load a Sintel instance saved with :meth:`save`."""
        with open(path, "rb") as handle:
            instance = pickle.load(handle)
        if not isinstance(instance, cls):
            raise PipelineError(f"File {path} does not contain a Sintel instance")
        return instance

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Sintel(pipeline={self.pipeline_name!r}, fitted={self.fitted})"
