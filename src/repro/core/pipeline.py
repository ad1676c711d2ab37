"""Templates and pipelines: computational graphs of primitives.

Following the paper (§3.2), a *template* ``T = <V, E, Λ>`` is a sequence of
pipeline steps ``V`` whose data flow ``E`` is given by the variables each
primitive consumes and produces, together with the joint tunable
hyperparameter space ``Λ``. A *pipeline* ``P = <V, E, λ>`` fixes a specific
hyperparameter assignment ``λ ∈ Λ``.

Execution lowers through the unified plan IR (:mod:`repro.core.plan`): a
:class:`~repro.core.plan.PlanCompiler` turns the template's steps into one
mode-tagged :class:`~repro.core.plan.CompiledStep` representation per mode
(``fit`` / ``batch`` / ``stream_batch``), and every public entry point
runs one compiled plan in the caller with one
:meth:`~repro.core.plan.ExecutionPlan.run` call over a list-shaped
context: :meth:`Pipeline.fit` the fit plan over one signal,
:meth:`Pipeline.detect_batch` the batch plan over N signals and
:meth:`Pipeline.detect` the exact batch plan over one. The stream-batch
plan runs one lane per stream through
:func:`~repro.core.stream.detect_windows`, each lane over its runner's
own copies of the incremental primitives, so streaming never advances
the pipeline's cells. Plans are compiled once and kept across refits: a
refit swaps fresh primitives into the ``[step, primitive]`` cells that
every compiled step reads when it runs.
"""

from __future__ import annotations

import copy
from typing import Dict, List, Optional

import numpy as np

from repro.core.plan import ExecutionPlan, PlanCompiler
from repro.core.primitive import get_primitive, get_primitive_class
from repro.exceptions import NotFittedError, PipelineError

__all__ = ["Template", "Pipeline"]


class Template:
    """A pipeline template with an open hyperparameter space.

    Args:
        spec: dictionary with keys ``name``, optional ``description``, and
            ``steps`` — a list of step dictionaries with keys ``primitive``
            (registry name), optional ``name`` (unique step name), optional
            ``hyperparameters``, and optional ``inputs`` / ``outputs``
            mappings from primitive argument names to context variable names.
    """

    def __init__(self, spec: dict):
        if "steps" not in spec or not spec["steps"]:
            raise PipelineError("A template spec must declare at least one step")
        self.spec = copy.deepcopy(spec)
        self.name = spec.get("name", "template")
        self.description = spec.get("description", "")
        self.steps = self.spec["steps"]
        self._assign_step_names()
        self._validate()

    def _assign_step_names(self) -> None:
        seen = set()
        for step in self.steps:
            if "primitive" not in step:
                raise PipelineError(f"Step {step!r} does not declare a primitive")
            name = step.get("name", step["primitive"])
            base = name
            suffix = 1
            while name in seen:
                suffix += 1
                name = f"{base}#{suffix}"
            step["name"] = name
            seen.add(name)

    def _validate(self) -> None:
        """Check that every primitive exists and inputs are producible."""
        available = {"data", "events"}
        for step in self.steps:
            cls = get_primitive_class(step["primitive"])
            inputs = step.get("inputs", {})
            for arg in set(cls.produce_args) | set(cls.fit_args):
                variable = inputs.get(arg, arg)
                if variable not in available:
                    raise PipelineError(
                        f"Step {step['name']!r} requires variable {variable!r} "
                        "which no earlier step produces"
                    )
            outputs = step.get("outputs", {})
            available.update(outputs.get(out, out)
                             for out in cls.produce_output)

    # ------------------------------------------------------------------ #
    def get_tunable_hyperparameters(self) -> Dict[str, Dict[str, dict]]:
        """Return ``Λ``: the tunable hyperparameters of every step."""
        space = {}
        for step in self.steps:
            cls = get_primitive_class(step["primitive"])
            tunable = cls.get_tunable_hyperparameters()
            if tunable:
                space[step["name"]] = tunable
        return space

    def get_default_hyperparameters(self) -> Dict[str, dict]:
        """Return the default ``λ`` for every step (fixed values merged in)."""
        defaults = {}
        for step in self.steps:
            cls = get_primitive_class(step["primitive"])
            values = cls.get_default_hyperparameters()
            values.update(step.get("hyperparameters", {}))
            defaults[step["name"]] = values
        return defaults

    def create_pipeline(self, hyperparameters: Optional[dict] = None) -> "Pipeline":
        """Instantiate a :class:`Pipeline` with a fixed ``λ``."""
        return Pipeline(self.spec, hyperparameters=hyperparameters)

    @property
    def engines(self) -> List[str]:
        """Engine category of every step, in order."""
        return [get_primitive_class(step["primitive"]).engine for step in self.steps]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Template(name={self.name!r}, steps={len(self.steps)})"


class Pipeline:
    """An executable anomaly detection pipeline.

    The pipeline runs its steps over a shared *context* — a dictionary of
    named variables, each a list with one entry per signal. ``fit`` runs
    the fit plan over a list of one signal: every step fits, then
    produces through its exact ``produce_batch`` kernel. ``detect`` only
    produces, through the batch plan over a list of one signal. Steps run
    in order in the caller, and the plan's per-step
    timings (and, when profiling, memory) land in ``step_timings`` — one
    entry per template step, fused chain members included — for the
    computational benchmark (Figure 7).

    All execution goes through the unified plan IR: the first run of each
    mode lowers the template once via :class:`~repro.core.plan.PlanCompiler`
    and the compiled plan is reused afterwards — a refit swaps fresh
    primitives into the compiler's shared cells instead of lowering again
    (observable through :attr:`plan_compilations`).

    Args:
        spec: template specification dictionary.
        hyperparameters: optional hyperparameter overrides.
    """

    def __init__(self, spec: dict, hyperparameters: Optional[dict] = None):
        self.template = Template(spec)
        self.spec = self.template.spec
        self.name = self.template.name
        self.steps = self.template.steps
        self._hyperparameters = self.template.get_default_hyperparameters()
        if hyperparameters:
            self.set_hyperparameters(hyperparameters)
        self._primitives = None
        self._compiler: Optional[PlanCompiler] = None
        self.fitted = False
        self.step_timings: Dict[str, dict] = {}

    def __getstate__(self) -> dict:
        # Compiled plans own an arena (a lock and scratch buffers) that
        # never crosses a process boundary; the compiler is rebuilt lazily
        # (from the pickled cells) on the next run.
        state = self.__dict__.copy()
        state["_compiler"] = None
        return state

    # ------------------------------------------------------------------ #
    # hyperparameters
    # ------------------------------------------------------------------ #
    def get_hyperparameters(self) -> dict:
        """Return the current hyperparameter assignment per step."""
        return copy.deepcopy(self._hyperparameters)

    def set_hyperparameters(self, hyperparameters: dict) -> None:
        """Update hyperparameters. Keys are step names, values are dicts.

        A flat ``{(step, name): value}`` mapping (as produced by the tuner)
        is also accepted.
        """
        flat = {}
        for key, value in hyperparameters.items():
            if isinstance(key, tuple):
                step, name = key
                flat.setdefault(step, {})[name] = value
            else:
                if not isinstance(value, dict):
                    raise PipelineError(
                        "Hyperparameters must map step names to dictionaries"
                    )
                flat.setdefault(key, {}).update(value)

        step_names = {step["name"] for step in self.steps}
        for step, values in flat.items():
            if step not in step_names:
                raise PipelineError(f"Unknown pipeline step {step!r}")
            self._hyperparameters.setdefault(step, {}).update(values)
        # A changed λ invalidates the primitives AND the compiled plans:
        # the next fit builds fresh cells and a compiler over them.
        self._primitives = None
        self._compiler = None
        self.fitted = False

    def get_tunable_hyperparameters(self) -> dict:
        """Expose the template's tunable hyperparameter space."""
        return self.template.get_tunable_hyperparameters()

    # ------------------------------------------------------------------ #
    # plan compilation
    # ------------------------------------------------------------------ #
    def _fresh_primitive(self, step: dict):
        values = self._hyperparameters.get(step["name"], {})
        cls = get_primitive_class(step["primitive"])
        known = cls.get_default_hyperparameters()
        usable = {key: value for key, value in values.items() if key in known}
        return get_primitive(step["primitive"], usable)

    def _rebuild_primitives(self) -> None:
        """(Re)build every step's primitive, preserving cell identity.

        Each entry of ``_primitives`` is a mutable ``[step, primitive]``
        cell: compiled plan steps read the primitive through the cell, so
        a refit only has to swap fresh instances into the existing cells —
        every already-compiled plan sees the new build without
        recompiling.
        """
        if self._primitives is None:
            self._primitives = [[step, self._fresh_primitive(step)]
                                for step in self.steps]
        else:
            for cell in self._primitives:
                cell[1] = self._fresh_primitive(cell[0])

    @property
    def compiler(self) -> PlanCompiler:
        """The plan compiler lowering this pipeline's template (lazy)."""
        if self._primitives is None:
            raise NotFittedError(
                f"Pipeline {self.name!r} has no fitted primitives; call fit() "
                "before detect()"
            )
        if self._compiler is None:
            self._compiler = PlanCompiler(self._primitives)
        return self._compiler

    def compiled_plan(self, mode: str, exact: bool = True,
                      precision: str = None) -> ExecutionPlan:
        """The cached compiled plan for ``mode`` (lowering it on first use)."""
        return self.compiler.plan(mode, exact=exact, precision=precision)

    @property
    def plan_compilations(self) -> int:
        """How many lowering passes this pipeline has performed so far."""
        return 0 if self._compiler is None else self._compiler.compilations

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def fit(self, data, profile: bool = False, **context_variables) -> "Pipeline":
        """Fit every step on ``data`` (a ``(timestamp, values...)`` array).

        The fit plan runs over ``[data]``, a batch of one: each step fits
        on the signal and then produces through its exact batch kernel.
        A fit that raises puts the previous primitives back, so the
        pipeline detects as it did before the call.
        """
        previous = [cell[1] for cell in self._primitives or ()]
        self._rebuild_primitives()
        try:
            self._run_signals(
                self.compiled_plan("fit"), [np.asarray(data, dtype=float)],
                {name: [value] for name, value in context_variables.items()},
                profile)
        except BaseException:
            for cell, primitive in zip(self._primitives, previous):
                cell[1] = primitive
            raise
        self.fitted = True
        return self

    def _run_signals(self, plan: ExecutionPlan, arrays: list,
                     variables: Optional[dict] = None,
                     profile: bool = False):
        """Run a compiled ``plan`` (any mode) over one entry per signal.

        Builds the list-shaped context (``data``, ``events`` and every
        extra variable in ``variables``, each a list with one entry per
        signal), runs the plan, and stores its per-step timings in
        ``step_timings``. Returns the formatted anomalies of every signal
        and the final context.
        """
        size = len(arrays)
        context = {"data": arrays, "events": [None] * size}
        for name, values in (variables or {}).items():
            values = list(values)
            if len(values) != size:
                raise PipelineError(
                    f"Batch context variable {name!r} has {len(values)} "
                    f"entries for {size} signals"
                )
            context[name] = values
        self.step_timings = {}
        context, self.step_timings = plan.run(context, profile=profile)
        anomalies = context.get("anomalies", [None] * size)
        return [self._format_anomalies(entry) for entry in anomalies], context

    def detect(self, data, visualization: bool = False, profile: bool = False,
               **context_variables):
        """Detect anomalies in ``data``: the exact batch plan over ``[data]``.

        Returns a list of ``(start, end, severity)`` tuples, or a tuple of
        ``(anomalies, context)`` when ``visualization`` is requested.
        """
        if not self.fitted:
            raise NotFittedError(f"Pipeline {self.name!r} must be fit before detect")
        [anomalies], context = self._run_signals(
            self.compiled_plan("batch"), [np.asarray(data, dtype=float)],
            {name: [value] for name, value in context_variables.items()},
            profile)
        if visualization:
            return anomalies, {name: values[0]
                               for name, values in context.items()}
        return anomalies

    def detect_batch(self, signals, exact: bool = True, profile: bool = False,
                     precision: str = None,
                     **context_variables) -> List[List[tuple]]:
        """Detect anomalies in many signals with one batched pipeline pass.

        Instead of running the plan once per signal, the whole batch flows
        through each step together: every context variable holds a list of
        per-signal values, and each step calls the primitive's
        :meth:`~repro.core.primitive.Primitive.produce_batch` — a fused
        vectorized pass over stacked arrays for primitives that declare
        ``supports_batch``, the per-signal loop otherwise.

        With ``exact=True`` (the default) the results are guaranteed
        bitwise-identical to ``[self.detect(s) for s in signals]``; the
        batch path only changes *how* the floating-point work is
        scheduled, never the operations each signal sees. ``exact=False``
        opts into the *fused* lowering: primitives that declare
        ``supports_fused_batch`` (the LSTM and autoencoder forwards)
        concatenate the batch into single large matrix products, which
        reorders BLAS summation — results are then only guaranteed equal
        within a small numerical tolerance (see
        ``repro.benchmark.batch.PARITY_RTOL`` / ``PARITY_ATOL``), in
        exchange for a large speedup on recurrent-forward pipelines.

        Args:
            signals: sequence of ``(timestamp, values...)`` arrays. Lengths
                may differ — fused steps group stackable signals
                internally.
            exact: require bitwise parity with the per-signal loop
                (``True``) or allow tolerance-parity fused NN forwards
                (``False``).
            profile: record per-step memory with ``tracemalloc``.
            precision: ``None`` (default) or ``"float32"`` — opt-in
                reduced-precision mode: fused chains cast their float64
                inputs down to single precision, trading a further drop
                in accuracy (still tolerance-checked by the benchmark)
                for memory bandwidth. Requires ``exact=False``.
            **context_variables: extra context variables; each value must
                be a list with one entry per signal.

        Returns:
            One ``[(start, end, severity), ...]`` anomaly list per signal,
            in input order.
        """
        if not self.fitted:
            raise NotFittedError(
                f"Pipeline {self.name!r} must be fit before detect_batch"
            )
        if precision not in (None, "float32"):
            raise PipelineError(
                f"Unknown precision {precision!r}; expected None or "
                "'float32'"
            )
        if precision is not None and exact:
            raise PipelineError(
                "precision='float32' is a reduced-precision mode and "
                "requires exact=False"
            )
        arrays = [np.asarray(data, dtype=float) for data in signals]
        if not arrays:
            return []
        plan = self.compiled_plan("batch", exact=exact, precision=precision)
        return self._run_signals(plan, arrays, context_variables,
                                 profile)[0]

    def fit_detect(self, data, **context_variables):
        """Fit on ``data`` and immediately detect anomalies in it."""
        self.fit(data, **context_variables)
        return self.detect(data, **context_variables)

    def clone(self) -> "Pipeline":
        """Return an unfitted copy with the same spec and λ.

        Used by the stream scheduler's standby cache to refit a
        replacement pipeline while the current instance keeps serving
        micro-batches; the replacement is then swapped in atomically.
        """
        return Pipeline(self.spec, hyperparameters=self.get_hyperparameters())

    @staticmethod
    def _format_anomalies(anomalies) -> List[tuple]:
        if anomalies is None:
            return []
        anomalies = np.asarray(anomalies)
        if anomalies.size == 0:
            return []
        formatted = []
        for row in np.atleast_2d(anomalies):
            start, end = float(row[0]), float(row[1])
            severity = float(row[2]) if len(row) > 2 else 0.0
            if len(row) > 3:
                # Multivariate pipelines append a channel-attribution
                # column (see ``channel_attribution``); univariate events
                # stay 3-tuples, bit-for-bit as before.
                formatted.append((start, end, severity, int(row[3])))
            else:
                formatted.append((start, end, severity))
        return formatted

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Pipeline(name={self.name!r}, steps={len(self.steps)})"
