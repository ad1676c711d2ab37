"""The unified plan IR: one compiled execution representation per mode.

The paper's central abstraction is a single pipeline object that moves
unchanged from offline benchmarking to live serving (§3.1, §5). On the
execution side that promise is kept here: a :class:`PlanCompiler` lowers a
template's steps — paired with their live primitive instances — into one
mode-tagged :class:`CompiledStep` intermediate representation, and every
execution surface consumes the same IR:

* ``fit``    — each step fits (when the runtime ``fit`` flag is set) and
  produces; the only mode allowed to mutate primitives through ``fit``;
* ``detect`` — produce-only, one signal per context variable;
* ``stream`` — produce-only over a sliding window; primitives that declare
  ``supports_stream`` consume it incrementally through ``update``;
* ``batch``  — produce-only, every context variable holds a *list* with
  one entry per signal and each step runs ``produce_batch`` once over the
  whole batch. With ``exact=False`` the compiler lowers to
  ``produce_batch_fused`` for primitives that declare
  ``supports_fused_batch`` — fused NN forwards whose parity is tolerance-
  based instead of bitwise (BLAS summation order changes with the GEMM
  shape), namespaced under a separate cache fingerprint.

A ``CompiledStep`` is simultaneously the in-process step body (wrapped in
a closure by the compiler) and the picklable work unit
:class:`~repro.core.executor.ProcessExecutor` ships to pool workers, so
there is exactly one implementation of argument collection, output
mapping, and mode dispatch for all four modes and all executors.

Batch plans additionally run a **step-fusion pass**: contiguous runs of
steps whose primitives declare a ``fuse_category`` (elementwise / window /
forward) lower into a single :class:`FusedStep` work unit — one node that
executes the whole chain in one pass, threading intermediate ndarrays
straight from member to member and leasing NN scratch space from the
plan's :class:`~repro.core.arena.ArenaPool` instead of re-entering the
executor (and its allocation, dependency and cache machinery) per step.
Fusion is transparent to all four executors: a ``FusedStep`` is picklable
like any ``CompiledStep``, and its cache fingerprints combine *every*
member's fingerprint while its memoized values are the chain-tail
outputs, so the caching executor's semantics are unchanged. Setting the
``REPRO_NO_FUSION`` environment variable disables the pass (each step
lowers to its own node, the pre-fusion behaviour) — the benchmark uses
this to attribute speedups.

The compiler also owns the plan cache: plans are compiled lazily per
``(mode, exact, precision)`` key and *refreshed* — not recompiled — when
a refit replaces the primitive instances (the fingerprints absorb the new
build token while the node closures keep reading the live primitive
through the shared ``[step, primitive]`` cell). ``compilations`` counts
actual lowering passes, which is what the streaming layer's refit-reuse
regression test pins.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.arena import ArenaPool
from repro.core.executor import ExecutionPlan, StepNode
from repro.exceptions import PipelineError

__all__ = ["PLAN_MODES", "CompiledStep", "FusedStep", "LaneRegistry",
           "LaneStep", "PlanCompiler", "collect_args"]

#: The execution modes a template lowers into. ``stream_batch`` is the
#: fleet plane's mode: one plan run serves N concurrent streams at once —
#: stateless steps run once over the stacked ``(n_streams, window)`` batch
#: (through the batch/fused machinery) while incremental steps keep
#: per-stream state in a :class:`LaneRegistry` and lower to
#: :class:`LaneStep` nodes.
PLAN_MODES = ("fit", "detect", "stream", "batch", "stream_batch")

#: ``fuse_category`` values the fusion pass accepts into chains.
FUSABLE_CATEGORIES = ("elementwise", "window", "forward")


def collect_args(context: dict, args, inputs: dict, step: dict) -> dict:
    """Resolve a step's argument list against the execution context."""
    kwargs = {}
    for arg in args:
        variable = inputs.get(arg, arg)
        if variable not in context:
            raise PipelineError(
                f"Step {step['name']!r} needs variable {variable!r} "
                "which is not present in the context"
            )
        kwargs[arg] = context[variable]
    return kwargs


class CompiledStep:
    """One step of the lowered plan: a mode-tagged, picklable work unit.

    The same object serves every executor: in-process executors call
    :meth:`run` directly (through the node's ``execute`` closure), and
    :class:`~repro.core.executor.ProcessExecutor` pickles it to a pool
    worker. It carries the *current* primitive instance (fitted state
    included), so payload factories build it at dispatch time.

    :meth:`run` returns ``(updates, state)`` where ``state`` is the
    primitive whenever the call mutated it (a fit, or an incremental
    streaming update) and ``None`` otherwise; the parent grafts returned
    state back through the node's ``absorb`` callback.

    Args:
        mode: one of :data:`PLAN_MODES`.
        step: the template step dictionary (name, inputs, outputs).
        primitive: the live primitive instance executing the step.
        exact: batch mode only — ``False`` lowers to the fused
            (tolerance-parity) ``produce_batch_fused`` for primitives that
            support it.
    """

    __slots__ = ("mode", "step", "primitive", "exact")

    def __init__(self, mode: str, step: dict, primitive, exact: bool = True):
        if mode not in PLAN_MODES:
            raise PipelineError(f"Unknown plan mode {mode!r}; expected one "
                                f"of {PLAN_MODES}")
        self.mode = mode
        self.step = step
        self.primitive = primitive
        self.exact = exact

    def __getstate__(self):
        return (self.mode, self.step, self.primitive, self.exact)

    def __setstate__(self, state):
        self.mode, self.step, self.primitive, self.exact = state

    @property
    def engine(self) -> str:
        return self.primitive.engine

    def _map_outputs(self, produced) -> dict:
        if not isinstance(produced, dict):
            raise PipelineError(
                f"Primitive {self.primitive.name!r} must return a dict of "
                "outputs"
            )
        outputs = self.step.get("outputs", {})
        return {outputs.get(out, out): value for out, value in produced.items()}

    def run(self, context: dict, fit: bool):
        if fit and self.mode != "fit":
            raise PipelineError(
                f"{self.mode}-mode plans are produce-only; compile a "
                "fit-mode plan to fit"
            )
        primitive = self.primitive
        step = self.step
        if self.mode in ("batch", "stream_batch"):
            kwargs = collect_args(context, primitive.produce_args,
                                  step.get("inputs", {}), step)
            if not self.exact and primitive.supports_fused_batch:
                produced = primitive.produce_batch_fused(**kwargs)
            else:
                produced = primitive.produce_batch(**kwargs)
            return self._map_outputs(produced), None
        inputs = step.get("inputs", {})
        incremental = self.mode == "stream" and primitive.supports_stream
        if fit and primitive.fit_args:
            primitive.fit(**collect_args(context, primitive.fit_args,
                                         inputs, step))
        kwargs = collect_args(context, primitive.produce_args, inputs, step)
        produced = primitive.update(**kwargs) if incremental \
            else primitive.produce(**kwargs)
        mutated = (fit and bool(primitive.fit_args)) or incremental
        return self._map_outputs(produced), (primitive if mutated else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CompiledStep(mode={self.mode!r}, "
                f"step={self.step.get('name')!r}, exact={self.exact})")


def _downcast_batch(value):
    """Cast float64 payloads to float32 for the reduced-precision plane."""
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64:
            return value.astype(np.float32)
        return value
    if isinstance(value, list):
        return [_downcast_batch(entry) for entry in value]
    return value


class FusedStep:
    """A contiguous chain of batch steps executed as one work unit.

    The fusion pass lowers runs of fusable :class:`CompiledStep`s into one
    ``FusedStep``: :meth:`run` pushes the batch through every member in a
    single pass, threading intermediate variables through a chain-local
    context instead of returning to the executor between steps. The
    returned updates are the union of every member's mapped outputs, so
    the post-run context is identical to the unfused plan's — fusion
    changes scheduling, never results (bitwise on the exact plane).

    Like :class:`CompiledStep` it is simultaneously the in-process step
    body and the picklable work unit shipped to process-pool workers. The
    arena is deliberately *not* part of the pickled state: the plan owns
    it on the parent side (:class:`PlanCompiler` attaches it after
    construction), and workers lease from a private per-run pool.

    Args:
        mode: must be ``"batch"`` — the only mode the fusion pass runs on.
        steps: the member :class:`CompiledStep`s, in chain order.
        precision: ``None`` or ``"float32"`` — the reduced-precision
            plane casts every member's float64 ndarray inputs down before
            the call, keeping the whole chain in single precision.
    """

    __slots__ = ("mode", "steps", "precision", "arena")

    def __init__(self, mode: str, steps, precision: Optional[str] = None):
        if mode not in ("batch", "stream_batch"):
            raise PipelineError(
                f"FusedStep only exists in batch modes, not {mode!r}")
        self.mode = mode
        self.steps = list(steps)
        self.precision = precision
        self.arena = None

    def __getstate__(self):
        return (self.mode, self.steps, self.precision)

    def __setstate__(self, state):
        self.mode, self.steps, self.precision = state
        self.arena = None

    @property
    def engine(self) -> str:
        # The chain's dominant engine: modeling if any member models,
        # otherwise the first member's engine.
        engines = [compiled.engine for compiled in self.steps]
        return "modeling" if "modeling" in engines else engines[0]

    def run(self, context: dict, fit: bool):
        if fit:
            raise PipelineError(
                f"{self.mode}-mode plans are produce-only; compile a "
                "fit-mode plan to fit"
            )
        arena = self.arena if self.arena is not None else ArenaPool()
        local = dict(context)
        updates = {}
        for compiled in self.steps:
            primitive = compiled.primitive
            step = compiled.step
            kwargs = collect_args(local, primitive.produce_args,
                                  step.get("inputs", {}), step)
            if self.precision == "float32":
                kwargs = {key: _downcast_batch(value)
                          for key, value in kwargs.items()}
            if not compiled.exact and primitive.supports_fused_batch:
                if primitive.fused_accepts_arena:
                    produced = primitive.produce_batch_fused(
                        arena=arena, **kwargs)
                else:
                    produced = primitive.produce_batch_fused(**kwargs)
            else:
                produced = primitive.produce_batch(**kwargs)
            mapped = compiled._map_outputs(produced)
            local.update(mapped)
            updates.update(mapped)
        return updates, None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        names = "+".join(compiled.step.get("name", "?")
                         for compiled in self.steps)
        return (f"FusedStep(mode={self.mode!r}, steps={names!r}, "
                f"precision={self.precision!r})")


class LaneRegistry:
    """Per-round table of lane-local primitive rows for stream-batch plans.

    The fleet plane (:mod:`repro.core.fleet`) keeps one incremental
    primitive *copy per stream* for every ``supports_stream`` step — a
    scaler's running statistics belong to one stream, never to the fleet.
    Each scheduling round the fleet binds the participating streams' rows
    here (:meth:`set_rows`), and the compiled :class:`LaneStep` nodes read
    their column at dispatch time — the same late-binding idiom the
    single-signal plans use for ``[step, primitive]`` cells, extended to a
    second axis. ``rows[j][i]`` is stream *j*'s primitive for cell *i*;
    each row is the stream's own (mutable) list, so in-process updates and
    worker-absorbed state both land back on the stream that owns them.
    """

    def __init__(self):
        self.rows: List[list] = []

    def set_rows(self, rows: List[list]) -> None:
        """Bind the participating lanes' primitive rows for one round."""
        self.rows = list(rows)

    def column(self, index: int) -> list:
        """Every participating lane's primitive for template cell ``index``."""
        return [row[index] for row in self.rows]

    def absorb(self, index: int, primitives: list) -> None:
        """Write worker-mutated primitives back into their owning rows."""
        for row, primitive in zip(self.rows, primitives):
            row[index] = primitive

    def __len__(self) -> int:
        return len(self.rows)


class LaneStep:
    """One stream-batch step executed per lane over lane-local state.

    The stream-batch analogue of a stream-mode incremental step: stateless
    steps in a stream-batch plan run once over the whole ``(n_streams,
    window)`` stack, but a ``supports_stream`` primitive mutates running
    state that belongs to exactly one stream, so this work unit loops the
    participating lanes, feeding each lane's slice of the batched context
    through *that lane's* primitive copy via ``update``. Like
    :class:`CompiledStep` it is both the in-process step body and the
    picklable payload shipped to process-pool workers; :meth:`run` returns
    the mutated primitive list as state so the parent can graft it back
    into the :class:`LaneRegistry` rows.
    """

    __slots__ = ("step", "primitives")

    def __init__(self, step: dict, primitives: list):
        self.step = step
        self.primitives = list(primitives)

    def __getstate__(self):
        return (self.step, self.primitives)

    def __setstate__(self, state):
        self.step, self.primitives = state

    @property
    def engine(self) -> str:
        return self.primitives[0].engine if self.primitives else "transform"

    def run(self, context: dict, fit: bool):
        if fit:
            raise PipelineError(
                "stream_batch-mode plans are produce-only; compile a "
                "fit-mode plan to fit"
            )
        step = self.step
        inputs = step.get("inputs", {})
        outputs = step.get("outputs", {})
        collected: dict = {}
        mutated = False
        for lane_index, primitive in enumerate(self.primitives):
            kwargs = {}
            for arg in primitive.produce_args:
                variable = inputs.get(arg, arg)
                if variable not in context:
                    raise PipelineError(
                        f"Step {step['name']!r} needs variable {variable!r} "
                        "which is not present in the context"
                    )
                kwargs[arg] = context[variable][lane_index]
            if primitive.supports_stream:
                produced = primitive.update(**kwargs)
                mutated = True
            else:  # pragma: no cover - lanes are built from stream steps
                produced = primitive.produce(**kwargs)
            if not isinstance(produced, dict):
                raise PipelineError(
                    f"Primitive {primitive.name!r} must return a dict of "
                    "outputs"
                )
            for out, value in produced.items():
                collected.setdefault(outputs.get(out, out), []).append(value)
        return collected, (self.primitives if mutated else None)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"LaneStep(step={self.step.get('name')!r}, "
                f"lanes={len(self.primitives)})")


class PlanCompiler:
    """Lower template steps into mode-tagged execution plans, once.

    Args:
        cells: the pipeline's mutable ``[step, primitive]`` cells. Node
            closures and payload factories read the primitive *through*
            the cell at call time, so a refit (or a process worker's
            absorbed state) is visible to every already-compiled plan.
        build_token: opaque token identifying the current primitive build;
            folded into the fingerprint of stateful steps so caches never
            serve results across refits.
    """

    def __init__(self, cells: List[list], build_token: str = ""):
        self.cells = cells
        self.build_token = build_token
        self.compilations = 0
        self._plans: Dict[Tuple[str, bool], ExecutionPlan] = {}

    # ------------------------------------------------------------------ #
    # fingerprints
    # ------------------------------------------------------------------ #
    def _base_fingerprint(self, step: dict, primitive) -> str:
        identity = {
            "primitive": step["primitive"],
            "inputs": step.get("inputs", {}),
            "outputs": step.get("outputs", {}),
            "hyperparameters": primitive.hyperparameters,
        }
        if primitive.fit_args:
            identity["build"] = self.build_token
        return json.dumps(identity, sort_keys=True, default=repr)

    @staticmethod
    def _batch_namespace(exact: bool, precision: Optional[str],
                         mode: str = "batch") -> str:
        prefix = "stream-batch" if mode == "stream_batch" else "batch"
        if precision is not None:
            # Reduced precision changes every value flowing through the
            # plan, so the whole plan gets its own cache namespace.
            return f"{prefix}-fused-{precision}:"
        return f"{prefix}:" if exact else f"{prefix}-fused:"

    def _fingerprints(self, step: dict, primitive, mode: str, exact: bool,
                      precision: Optional[str] = None) -> Tuple[str, str]:
        """``(fingerprint, signal_fingerprint)`` for one single-step node.

        fit / detect / stream share the base fingerprint on purpose: a
        step cacheable in fit mode is one whose fitting is a no-op, so a
        fit run warms the cache for subsequent detect runs. Batch plans
        are namespaced (``batch:`` / ``batch-fused:`` /
        ``batch-fused-float32:``) so a whole-batch memo entry can never
        collide with a single-signal one, and exact batch nodes
        additionally expose the *single-signal* fingerprint — the handle
        the caching executor uses to serve and memoize per-signal slices
        from inside the batch. Fused-plane and reduced-precision nodes do
        not: their outputs are only tolerance-equal to per-signal
        results, and must never poison (or be served from) the exact
        per-signal cache.
        """
        base = self._base_fingerprint(step, primitive)
        if mode not in ("batch", "stream_batch"):
            return base, ""
        namespace = self._batch_namespace(exact, precision, mode)
        if mode == "batch" and exact and precision is None:
            return namespace + base, base
        # Fused-plane, reduced-precision and stream-batch nodes never
        # expose a per-signal handle: stream-batch results depend on
        # per-lane incremental state and are never cached at all.
        return namespace + base, ""

    def _chain_fingerprints(self, indices: Tuple[int, ...], exact: bool,
                            precision: Optional[str],
                            mode: str = "batch") -> Tuple[str, str]:
        """``(fingerprint, signal_fingerprint)`` for one fused chain node.

        The fingerprint combines **every** member's base fingerprint, not
        just the tail's: the memoized *values* are the chain-tail outputs,
        but keying them on the tail alone would let two pipelines whose
        chains differ mid-stream (say, different scaler hyperparameters
        feeding the same NN step) serve each other stale results. On the
        exact plane the combined string doubles as the per-signal handle,
        so repeat batches are served slice-by-slice at chain granularity.
        """
        bases = [self._base_fingerprint(self.cells[i][0], self.cells[i][1])
                 for i in indices]
        combined = json.dumps(bases)
        namespace = self._batch_namespace(exact, precision, mode)
        if mode == "batch" and exact and precision is None:
            return namespace + combined, combined
        return namespace + combined, ""

    # ------------------------------------------------------------------ #
    # lowering
    # ------------------------------------------------------------------ #
    @staticmethod
    def _io_sets(step: dict, primitive) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        inputs = step.get("inputs", {})
        outputs = step.get("outputs", {})
        reads = tuple(sorted({
            inputs.get(arg, arg)
            for arg in set(primitive.produce_args) | set(primitive.fit_args)
        }))
        writes = tuple(outputs.get(out, out) for out in primitive.produce_output)
        return reads, writes

    @staticmethod
    def _cacheable(primitive, mode: str):
        if mode == "stream" and primitive.supports_stream:
            # An incremental step mutates internal state on every call, so
            # its outputs must never be served from a memo cache.
            return lambda fit: False
        if mode == "stream_batch":
            # Stream-batch outputs depend on which lanes participate in
            # the round and on their sliding windows — both change every
            # round, so memoization can only ever miss (or worse, hit
            # across rounds). Never cache.
            return lambda fit: False
        if mode == "batch":
            return lambda fit: not fit
        # A step with no fit state is deterministic given its inputs and
        # hyperparameters; a fitted stateful step is only safe to cache in
        # produce mode (the fingerprint pins its build).
        stateful = bool(primitive.fit_args)
        return lambda fit, stateful=stateful: not (fit and stateful)

    def _lower_node(self, entry: list, mode: str, exact: bool,
                    precision: Optional[str] = None) -> StepNode:
        step, primitive = entry
        reads, writes = self._io_sets(step, primitive)
        fingerprint, signal_fingerprint = self._fingerprints(
            step, primitive, mode, exact, precision)

        def execute(context: dict, fit: bool, entry=entry) -> dict:
            # The primitive is read through the cell at call time, and runs
            # in-process: mutation (fit / update) lands on the shared
            # object directly, so there is no state to absorb.
            updates, _ = CompiledStep(mode, entry[0], entry[1], exact).run(
                context, fit)
            return updates

        absorb = None
        if mode in ("fit", "stream"):
            absorb = (lambda fitted, entry=entry:
                      entry.__setitem__(1, fitted))
        return StepNode(
            name=step["name"],
            engine=primitive.engine,
            reads=reads,
            writes=writes,
            execute=execute,
            fingerprint=fingerprint,
            cacheable=self._cacheable(primitive, mode),
            payload=(lambda entry=entry:
                     CompiledStep(mode, entry[0], entry[1], exact)),
            absorb=absorb,
            mode=mode,
            signal_fingerprint=signal_fingerprint,
        )

    # ------------------------------------------------------------------ #
    # the step-fusion pass (batch mode only)
    # ------------------------------------------------------------------ #
    def _fusion_chains(self, exclude_stream: bool = False) \
            -> List[Tuple[int, ...]]:
        """Contiguous runs (length >= 2) of fusable cells, as index tuples.

        A cell is fusable when its primitive declares one of the
        :data:`FUSABLE_CATEGORIES`. Single fusable steps between
        non-fusable neighbours stay plain ``CompiledStep`` nodes — a
        one-step "chain" has no step boundary to eliminate, and keeping
        it plain preserves the per-step cache granularity. Stream-batch
        plans pass ``exclude_stream``: incremental (``supports_stream``)
        cells hold per-lane state and lower to :class:`LaneStep` nodes,
        so they break chains instead of joining them.
        """
        chains: List[Tuple[int, ...]] = []
        run: List[int] = []
        for index, (_, primitive) in enumerate(self.cells):
            fusable = primitive.fuse_category in FUSABLE_CATEGORIES
            if fusable and exclude_stream and primitive.supports_stream:
                fusable = False
            if fusable:
                run.append(index)
                continue
            if len(run) >= 2:
                chains.append(tuple(run))
            run = []
        if len(run) >= 2:
            chains.append(tuple(run))
        return chains

    def _build_fused_step(self, indices: Tuple[int, ...], exact: bool,
                          precision: Optional[str],
                          mode: str = "batch") -> FusedStep:
        return FusedStep(
            mode,
            [CompiledStep(mode, self.cells[i][0], self.cells[i][1], exact)
             for i in indices],
            precision=precision,
        )

    def _lower_fused_node(self, indices: Tuple[int, ...], exact: bool,
                          precision: Optional[str], arena,
                          mode: str = "batch") -> StepNode:
        entries = [self.cells[i] for i in indices]
        # External reads: variables a member consumes that no earlier
        # member of the same chain produced. Writes keep every member's
        # outputs (in order) so the post-run context matches the unfused
        # plan exactly and dependency hazards against neighbouring nodes
        # are computed on the same variables.
        internal: set = set()
        reads: List[str] = []
        writes: List[str] = []
        for step, primitive in entries:
            step_reads, step_writes = self._io_sets(step, primitive)
            for variable in step_reads:
                if variable not in internal and variable not in reads:
                    reads.append(variable)
            for variable in step_writes:
                internal.add(variable)
                if variable not in writes:
                    writes.append(variable)
        fingerprint, signal_fingerprint = self._chain_fingerprints(
            indices, exact, precision, mode)

        def execute(context: dict, fit: bool) -> dict:
            fused = self._build_fused_step(indices, exact, precision, mode)
            fused.arena = arena
            updates, _ = fused.run(context, fit)
            return updates

        cacheable = ((lambda fit: False) if mode == "stream_batch"
                     else (lambda fit: not fit))
        return StepNode(
            name="fused:" + "+".join(entry[0]["name"] for entry in entries),
            engine=("modeling" if any(
                entry[1].engine == "modeling" for entry in entries)
                else entries[0][1].engine),
            reads=tuple(sorted(reads)),
            writes=tuple(writes),
            execute=execute,
            fingerprint=fingerprint,
            cacheable=cacheable,
            payload=(lambda: self._build_fused_step(indices, exact,
                                                    precision, mode)),
            absorb=None,
            mode=mode,
            signal_fingerprint=signal_fingerprint,
            members=tuple(indices),
        )

    def _lower_lane_node(self, entry: list, index: int,
                         registry: LaneRegistry, exact: bool,
                         precision: Optional[str]) -> StepNode:
        """Lower one incremental cell into a per-lane stream-batch node.

        The node reads the participating lanes' primitive copies through
        the shared :class:`LaneRegistry` at dispatch time — the registry
        is rebound every scheduling round, so one compiled plan serves
        every round regardless of which streams show up.
        """
        step, primitive = entry
        reads, writes = self._io_sets(step, primitive)
        fingerprint, signal_fingerprint = self._fingerprints(
            step, primitive, "stream_batch", exact, precision)

        def execute(context: dict, fit: bool) -> dict:
            updates, _ = LaneStep(entry[0], registry.column(index)).run(
                context, fit)
            return updates

        return StepNode(
            name=step["name"],
            engine=primitive.engine,
            reads=reads,
            writes=writes,
            execute=execute,
            fingerprint=fingerprint,
            cacheable=lambda fit: False,
            payload=lambda: LaneStep(entry[0], registry.column(index)),
            absorb=lambda primitives: registry.absorb(index, primitives),
            mode="stream_batch",
            signal_fingerprint=signal_fingerprint,
        )

    def compile(self, mode: str, exact: bool = True,
                precision: Optional[str] = None,
                registry: Optional[LaneRegistry] = None) -> ExecutionPlan:
        """Lower every step into a fresh mode-tagged :class:`ExecutionPlan`.

        Batch-mode plans additionally run the step-fusion pass (unless
        the ``REPRO_NO_FUSION`` environment variable is set): contiguous
        fusable chains become single :class:`FusedStep` nodes sharing the
        plan's :class:`~repro.core.arena.ArenaPool`, exposed on the
        returned plan as ``plan.arena`` alongside ``plan.fusion_groups``.

        Stream-batch plans run the same fusion pass over their stateless
        cells; incremental cells lower to :class:`LaneStep` nodes bound to
        ``registry`` (a fresh :class:`LaneRegistry` when omitted).
        """
        if mode not in PLAN_MODES:
            raise PipelineError(f"Unknown plan mode {mode!r}; expected one "
                                f"of {PLAN_MODES}")
        stream_batch = mode == "stream_batch"
        if stream_batch and registry is None:
            registry = LaneRegistry()
        self.compilations += 1
        batched = mode == "batch" or stream_batch
        fuse = batched and not os.environ.get("REPRO_NO_FUSION")
        chains = self._fusion_chains(exclude_stream=stream_batch) \
            if fuse else []
        arena = ArenaPool() if batched else None
        chain_start = {chain[0]: chain for chain in chains}
        fused_indices = {index for chain in chains for index in chain}

        nodes: List[StepNode] = []
        groups: List[dict] = []
        index = 0
        while index < len(self.cells):
            if index in chain_start:
                chain = chain_start[index]
                nodes.append(self._lower_fused_node(
                    chain, exact, precision, arena, mode))
                groups.append({
                    "name": nodes[-1].name,
                    "steps": [self.cells[i][0]["name"] for i in chain],
                    "categories": [self.cells[i][1].fuse_category
                                   for i in chain],
                })
                index = chain[-1] + 1
                continue
            assert index not in fused_indices
            if stream_batch and self.cells[index][1].supports_stream:
                nodes.append(self._lower_lane_node(
                    self.cells[index], index, registry, exact, precision))
            else:
                nodes.append(self._lower_node(
                    self.cells[index], mode, exact, precision))
            index += 1

        plan = ExecutionPlan(nodes)
        plan.arena = arena
        plan.fusion_groups = groups
        plan.lane_registry = registry if stream_batch else None
        return plan

    def plan(self, mode: str, exact: bool = True,
             precision: Optional[str] = None,
             registry: Optional[LaneRegistry] = None) -> ExecutionPlan:
        """The cached plan for ``(mode, exact, precision)``, compiled lazily.

        A stream-batch plan is additionally pinned to its
        :class:`LaneRegistry` (``plan.lane_registry``): omitting
        ``registry`` serves the cached plan with its own registry, while
        passing a different one recompiles.
        """
        key = (mode, bool(exact), precision)
        cached = self._plans.get(key)
        if (cached is not None and mode == "stream_batch"
                and registry is not None
                and cached.lane_registry is not registry):
            cached = None
        if cached is None:
            cached = self.compile(mode, exact=exact, precision=precision,
                                  registry=registry)
            self._plans[key] = cached
        return self._plans[key]

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def refresh(self, build_token: Optional[str] = None) -> None:
        """Re-stamp fingerprints after the cells received fresh primitives.

        A refit replaces every cell's primitive in place; the compiled
        node closures keep working (they read through the cell), but the
        fingerprints of stateful steps must absorb the new build token so
        caching executors never serve the previous fit's outputs. Fused
        nodes carry the indices of the cells they cover (``members``), so
        their combined fingerprints are recomputed from the same cells
        the chain executes. This is the cheap path that makes refits
        reuse compiled plans instead of lowering them again.
        """
        if build_token is not None:
            self.build_token = build_token
        for (mode, exact, precision), plan in self._plans.items():
            index = 0
            for node in plan.nodes:
                if node.members:
                    node.fingerprint, node.signal_fingerprint = \
                        self._chain_fingerprints(node.members, exact,
                                                 precision, mode)
                    index = node.members[-1] + 1
                else:
                    entry = self.cells[index]
                    node.fingerprint, node.signal_fingerprint = \
                        self._fingerprints(entry[0], entry[1], mode, exact,
                                           precision)
                    index += 1
