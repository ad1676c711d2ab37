"""Primitive-level profiling (Figure 7b of the paper).

The paper measures the framework's overhead by comparing the time needed to
run each pipeline end-to-end against the total time of running its
primitives independently, outside the pipeline abstraction. The delta is
reported as an absolute number of seconds and an average percentage
increase per pipeline.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.pipeline import Pipeline
from repro.core.primitive import get_primitive, get_primitive_class
from repro.data.signal import Signal
from repro.pipelines import load_pipeline

__all__ = ["profile_pipeline_steps", "run_primitives_standalone",
           "primitive_overhead", "profile_overhead"]


def profile_pipeline_steps(pipeline: Pipeline, signal: Signal) -> Dict[str, dict]:
    """Run ``fit`` + ``detect`` and return the per-step timing breakdown."""
    data = signal.to_array()
    pipeline.fit(data, profile=True)
    fit_timings = dict(pipeline.step_timings)
    pipeline.detect(data, profile=True)
    detect_timings = dict(pipeline.step_timings)
    merged = {}
    for step in fit_timings:
        merged[step] = {
            "engine": fit_timings[step]["engine"],
            "fit_time": fit_timings[step]["elapsed"],
            "detect_time": detect_timings.get(step, {}).get("elapsed", 0.0),
            "memory": max(fit_timings[step]["memory"],
                          detect_timings.get(step, {}).get("memory", 0)),
        }
    return merged


def run_primitives_standalone(spec: dict, hyperparameters: Dict[str, dict],
                              signal: Signal, detect_pass: bool = True) -> float:
    """Execute a pipeline's primitives directly, outside the Pipeline class.

    The primitives are instantiated and called by hand with an explicit
    context dictionary — no spec parsing, no graph validation, no timing
    bookkeeping — which is the "external setting" of the paper's
    primitive-profiling experiment. To match the end-to-end pipeline, the
    primitives are fit and produced once (the training pass) and, when
    ``detect_pass`` is set, produced a second time (the detect pass).
    Both passes call the same code the pipeline calls: ``fit`` on the
    signal and ``produce_batch`` on a list of one signal, so the delta
    measures the framework and not a different produce path.
    Returns the total elapsed seconds.
    """
    started = time.perf_counter()

    primitives = []
    for step in spec["steps"]:
        cls = get_primitive_class(step["primitive"])
        values = dict(hyperparameters.get(step["name"], {}))
        known = cls.get_default_hyperparameters()
        usable = {key: value for key, value in values.items() if key in known}
        primitives.append((step, get_primitive(step["primitive"], usable)))

    def run_pass(fit: bool) -> None:
        context = {"data": [signal.to_array()], "events": [None]}
        for step, primitive in primitives:
            inputs = step.get("inputs", {})
            outputs = step.get("outputs", {})
            if fit and primitive.fit_args:
                primitive.fit(**{
                    arg: context[inputs.get(arg, arg)][0]
                    for arg in primitive.fit_args
                })
            produced = primitive.produce_batch(**{
                arg: context[inputs.get(arg, arg)] for arg in primitive.produce_args
            })
            for name, value in produced.items():
                context[outputs.get(name, name)] = value

    run_pass(fit=True)
    if detect_pass:
        run_pass(fit=False)
    return time.perf_counter() - started


def primitive_overhead(pipeline_name: str, signal: Signal,
                       pipeline_options: Optional[dict] = None) -> dict:
    """Compare end-to-end pipeline execution with standalone primitives.

    Returns a dictionary with ``pipeline_time``, ``standalone_time``,
    ``delta`` (seconds) and ``percent_increase``.
    """
    pipeline = load_pipeline(pipeline_name, **(pipeline_options or {}))

    started = time.perf_counter()
    pipeline.fit(signal.to_array())
    pipeline.detect(signal.to_array())
    pipeline_time = time.perf_counter() - started

    standalone_time = run_primitives_standalone(
        pipeline.spec, pipeline.get_hyperparameters(), signal
    )

    delta = pipeline_time - standalone_time
    percent = (delta / standalone_time * 100.0) if standalone_time > 0 else 0.0
    return {
        "pipeline": pipeline_name,
        "signal": signal.name,
        "pipeline_time": pipeline_time,
        "standalone_time": standalone_time,
        "delta": delta,
        "percent_increase": percent,
    }


def profile_overhead(pipeline_names: Sequence[str], signals: Sequence[Signal],
                     pipeline_options: Optional[Dict[str, dict]] = None
                     ) -> Dict[str, dict]:
    """Aggregate primitive overhead per pipeline over several signals.

    Returns ``{pipeline: {"delta_mean": s, "delta_std": s,
    "percent_increase": %, "runs": n}}`` — the Figure 7b summary.
    """
    pipeline_options = pipeline_options or {}
    results: Dict[str, List[dict]] = {name: [] for name in pipeline_names}
    for name in pipeline_names:
        for signal in signals:
            results[name].append(
                primitive_overhead(name, signal, pipeline_options.get(name))
            )

    summary = {}
    for name, rows in results.items():
        deltas = [row["delta"] for row in rows]
        percents = [row["percent_increase"] for row in rows]
        summary[name] = {
            "delta_mean": float(np.mean(deltas)),
            "delta_std": float(np.std(deltas)),
            "percent_increase": float(np.mean(percents)),
            "runs": len(rows),
        }
    return summary
