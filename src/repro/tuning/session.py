"""Tuning sessions: optimize a pipeline on a signal (paper §3.3, Figure 5).

Two objective settings are supported, matching Figure 5:

* **unsupervised** — tune the sub-pipeline that generates the expected
  signal so that it matches the original signal as closely as possible
  (regression metrics such as MSE / MAE / MAPE);
* **supervised** — tune the whole pipeline so that the detected anomalies
  best match a ground-truth set (contextual F1).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.core.pipeline import Pipeline
from repro.evaluation import REGRESSION_METRICS, contextual_f1_score
from repro.exceptions import TuningError
from repro.pipelines import load_pipeline
from repro.tuning.tuners import BaseTuner, get_tuner

__all__ = ["TuningSession", "TuningResult"]


@dataclass
class TuningResult:
    """Outcome of a tuning session."""

    best_hyperparameters: dict
    best_score: float
    default_score: float
    history: List[dict] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Absolute improvement of the best score over the default score."""
        return self.best_score - self.default_score


class TuningSession:
    """Propose/evaluate/record loop over a pipeline's hyperparameter space.

    Args:
        pipeline: pipeline name or :class:`Pipeline` instance to tune.
        data: the ``(timestamp, values...)`` array to fit and detect on.
        ground_truth: known anomalies, required for the supervised setting.
        setting: ``"supervised"`` or ``"unsupervised"``.
        metric: objective metric name — a contextual metric is implied for
            the supervised setting; one of ``REGRESSION_METRICS`` for the
            unsupervised setting (lower is better and is negated internally).
        tuner: tuner name (``"gp"``, ``"gpei"``, ``"uniform"``).
        engines: restrict tuning to hyperparameters of these engines
            (e.g. ``["postprocessing"]``); ``None`` tunes everything.

    Every candidate pipeline runs its steps in order in the calling
    thread.
    """

    def __init__(self, pipeline, data, ground_truth=None,
                 setting: str = "supervised", metric: str = "f1",
                 tuner: str = "gp", engines: Optional[list] = None,
                 random_state: int = 0,
                 scorer: Optional[Callable[[Pipeline], float]] = None,
                 pipeline_options: Optional[dict] = None):
        if setting not in ("supervised", "unsupervised"):
            raise TuningError(f"Unknown tuning setting {setting!r}")
        if setting == "supervised" and ground_truth is None and scorer is None:
            raise TuningError("The supervised setting requires ground_truth")
        if setting == "unsupervised" and metric not in REGRESSION_METRICS:
            raise TuningError(
                f"Unsupervised tuning requires a regression metric, got {metric!r}"
            )

        self._pipeline_source = pipeline
        self._pipeline_options = pipeline_options or {}
        self.data = np.asarray(data, dtype=float)
        self.ground_truth = ground_truth
        self.setting = setting
        self.metric = metric
        self.random_state = random_state
        self.engines = engines
        self._scorer = scorer

        template_pipeline = self._make_pipeline()
        space = self._restrict_space(template_pipeline)
        if not space:
            raise TuningError("The pipeline exposes no tunable hyperparameters")
        self.tuner: BaseTuner = get_tuner(tuner, space, random_state=random_state)
        self._space_keys = {
            (step, name) for step, names in space.items() for name in names
        }

    # ------------------------------------------------------------------ #
    def _make_pipeline(self) -> Pipeline:
        if isinstance(self._pipeline_source, Pipeline):
            return Pipeline(copy.deepcopy(self._pipeline_source.spec))
        return load_pipeline(self._pipeline_source, **self._pipeline_options)

    def _restrict_space(self, pipeline: Pipeline) -> dict:
        space = pipeline.get_tunable_hyperparameters()
        if self.engines is None:
            return space
        engines = set(self.engines)
        allowed_steps = {
            step["name"]
            for step, engine in zip(pipeline.steps, pipeline.template.engines)
            if engine in engines
        }
        return {step: hps for step, hps in space.items() if step in allowed_steps}

    # ------------------------------------------------------------------ #
    def score_candidate(self, candidate: dict) -> float:
        """Build, fit and score a pipeline with the candidate assignment."""
        pipeline = self._make_pipeline()
        pipeline.set_hyperparameters(self.tuner.space.to_nested(candidate))
        if self._scorer is not None:
            return float(self._scorer(pipeline))

        pipeline.fit(self.data)
        if self.setting == "supervised":
            detected = pipeline.detect(self.data)
            return contextual_f1_score(self.ground_truth, detected)

        # Unsupervised: compare the generated signal against the original.
        _, context = pipeline.detect(self.data, visualization=True)
        y_true, y_pred = self._extract_generated(context)
        value = REGRESSION_METRICS[self.metric](y_true, y_pred)
        return -float(value)

    @staticmethod
    def _extract_generated(context: dict):
        y_hat = context.get("y_hat")
        y_true = context.get("y")
        if y_hat is None:
            raise TuningError("The pipeline does not expose a generated signal (y_hat)")
        y_hat = np.asarray(y_hat, dtype=float)
        if y_true is None or np.asarray(y_true).shape != y_hat.shape:
            y_true = context.get("X")
        y_true = np.asarray(y_true, dtype=float)
        if y_true.shape != y_hat.shape:
            y_true = y_true.reshape(y_hat.shape)
        return y_true.ravel(), y_hat.ravel()

    # ------------------------------------------------------------------ #
    def run(self, iterations: int = 10) -> TuningResult:
        """Run the tuning loop and return the best configuration found."""
        if iterations < 1:
            raise TuningError("iterations must be at least 1")

        history = []
        default_score = None
        for iteration in range(iterations):
            candidate = self.tuner.propose()
            try:
                score = self.score_candidate(candidate)
            except Exception as error:  # noqa: BLE001 - any pipeline failure
                # A failing configuration is recorded as the worst score seen
                # so the tuner moves away from that region instead of crashing.
                recorded = [s for _, s in self.tuner.trials]
                score = min(recorded) - 1.0 if recorded else -1.0
                history.append({
                    "iteration": iteration,
                    "candidate": dict(candidate),
                    "score": score,
                    "error": str(error),
                })
                self.tuner.record(candidate, score)
                continue

            if default_score is None:
                default_score = score
            self.tuner.record(candidate, score)
            history.append({
                "iteration": iteration,
                "candidate": dict(candidate),
                "score": score,
            })

        best_candidate = self.tuner.best_proposal or {}
        return TuningResult(
            best_hyperparameters=self.tuner.space.to_nested(best_candidate),
            best_score=float(self.tuner.best_score or 0.0),
            default_score=float(default_score if default_score is not None else 0.0),
            history=history,
        )
