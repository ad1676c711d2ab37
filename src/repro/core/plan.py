"""The unified plan IR: one compiled execution representation per mode.

The paper's central abstraction is a single pipeline object that moves
unchanged from offline benchmarking to live serving (§3.1, §5). On the
execution side that promise is kept here: a :class:`PlanCompiler` lowers a
template's steps — paired with their live primitive instances — into one
mode-tagged :class:`CompiledStep` intermediate representation, and every
execution surface consumes the same IR. There is one mode per semantics:

* ``fit``          — a batch of one signal in which each step first fits
  (when its primitive declares ``fit_args``) on the signal's entry and
  then runs the same exact ``produce_batch`` kernel a batch step runs;
  the only mode that mutates primitives through ``fit``. Fitting is a
  property of the mode, never a runtime flag: no other mode can fit;
* ``batch``        — every context variable holds a *list* with one entry
  per signal and each step runs ``produce_batch`` once over the whole
  batch. :meth:`~repro.core.pipeline.Pipeline.detect` is a batch of one.
  With ``exact=False`` the compiler lowers to ``produce_batch_fused`` for
  primitives that declare ``supports_fused_batch`` — fused NN forwards
  whose parity is tolerance-based instead of bitwise (BLAS summation
  order changes with the GEMM shape), compiled as a plan of its own.
  Every such forward leases its scratch buffers from the plan's
  :class:`~repro.core.arena.ArenaPool`, inside a fused chain or not;
* ``stream_batch`` — the streaming mode: one sliding window per *lane*.
  Stateless steps run once over the stacked windows through the batch
  machinery, while ``supports_stream`` steps lower to :class:`LaneStep`
  nodes that fold each lane's window into that lane's own primitive
  through ``update``. :func:`~repro.core.stream.detect_windows` runs it
  for a fleet group of streams, or a lone stream as a group of one; each
  lane's row is its runner's own copies of the incremental primitives.

So every exact step produces through ``produce_batch``. A primitive's
per-signal ``produce`` is the reference and the body of the default
``produce_batch`` loop; primitives that declare ``supports_batch``
replace that loop with a kernel that is byte-identical to it.

A compiled plan is an :class:`ExecutionPlan`: the ordered list of work
units it runs — :class:`CompiledStep`, :class:`FusedStep` and
:class:`LaneStep` — each built once, when the plan is compiled. It runs
itself — :meth:`ExecutionPlan.run` executes the units one by one, in plan
order, on the calling thread, and feeds the per-step timings to the
installed timing sink (:func:`set_timing_sink`). Hub pipelines are chains
— every pair of steps is ordered by the data they share — so no plan ever
has two steps ready at once. A ``CompiledStep`` reads the primitive its
``[step, primitive]`` cell holds when it runs, so there is exactly one
implementation of argument collection, output mapping, and mode dispatch
for every mode. No unit keeps state between runs.

Batch and stream-batch plans additionally run a **step-fusion pass**:
contiguous runs of steps whose primitives declare a ``fuse_category``
(elementwise / window / forward) lower into a single :class:`FusedStep`
work unit — one node that runs its members' :meth:`CompiledStep.run` in
one pass, threading intermediate ndarrays straight from member to member
instead of returning to the plan loop per step. The pass only schedules:
a member runs exactly as an unfused node would, except that the
reduced-precision plane casts a chain's inputs to ``float32``. A
``FusedStep`` times each member with the same probe the plan loop uses,
so a run's timings hold one entry per template step on every plane.

The compiler also owns the plan cache: plans are compiled lazily per
``(mode, exact, precision)`` key and reused — not recompiled — when a
refit replaces the primitive instances, because every ``CompiledStep``
reads the live primitive through the shared ``[step, primitive]`` cell.
``compilations`` counts actual lowering passes, which is what the
streaming layer's refit-reuse regression test pins.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.arena import ArenaPool
from repro.exceptions import ExecutorError, PipelineError

__all__ = ["PLAN_MODES", "CompiledStep", "ExecutionPlan", "FusedStep",
           "LaneRegistry", "LaneStep", "PlanCompiler", "collect_args",
           "observe_step_timings", "set_timing_sink", "trace_memory"]


# --------------------------------------------------------------------------- #
# step-timing observability
# --------------------------------------------------------------------------- #
#: Optional process-wide sink receiving every run's ``step_timings`` dict
#: (``{step_name: {"elapsed": ..., ...}}``). The API gateway installs an
#: aggregator here so ``GET /metrics`` can export step timings; when no
#: sink is installed the hook is a no-op on the hot path.
_TIMING_SINK: Optional[Callable[[Dict[str, dict]], None]] = None


def set_timing_sink(sink: Optional[Callable[[Dict[str, dict]], None]]
                    ) -> Optional[Callable]:
    """Install (or clear, with ``None``) the step-timing sink.

    Returns the previously installed sink so callers can restore it.
    """
    global _TIMING_SINK
    previous = _TIMING_SINK
    _TIMING_SINK = sink
    return previous


def observe_step_timings(timings: Dict[str, dict]) -> None:
    """Feed one run's per-step timings to the installed sink, if any.

    Sink errors are swallowed: observability must never fail a detection.
    """
    sink = _TIMING_SINK
    if sink is None or not timings:
        return
    try:
        sink(timings)
    except Exception:  # noqa: BLE001 - observability is best-effort
        pass


# --------------------------------------------------------------------------- #
# profiling helpers
# --------------------------------------------------------------------------- #
class _MemoryProbe:
    """Result holder for :func:`trace_memory`."""

    def __init__(self):
        self.memory = 0


@contextlib.contextmanager
def trace_memory(enabled: bool = True):
    """Measure peak traced memory of the ``with`` body, nested-safe.

    Yields a probe whose ``memory`` attribute holds the peak delta in bytes
    once the block exits. When an outer ``tracemalloc`` trace is already
    active (e.g. the benchmark runner profiling a whole pipeline run) the
    body is measured against a fresh peak (``tracemalloc.reset_peak``) so
    earlier high-water marks do not bleed into this block, and the outer
    trace is left running; otherwise the trace is owned and stopped here.
    An enclosing probe consequently reports the peak since its *last* inner
    probe, not its true lifetime peak — hold an outer probe only as a trace
    anchor, not for its number.
    """
    probe = _MemoryProbe()
    owns_trace = False
    baseline = 0
    if enabled:
        if tracemalloc.is_tracing():
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
            owns_trace = True
    try:
        yield probe
    finally:
        if enabled:
            if tracemalloc.is_tracing():
                peak = tracemalloc.get_traced_memory()[1]
                probe.memory = max(peak - baseline, 0)
            if owns_trace:
                tracemalloc.stop()


@contextlib.contextmanager
def _timed(timings: Dict[str, dict], name: str, engine: str, profile: bool):
    """Record the ``with`` body as ``timings[name]`` once it completes.

    The entry holds ``elapsed`` seconds, the step's ``engine`` and its
    ``memory`` (``tracemalloc`` peak bytes when ``profile`` is set, else 0).
    """
    started = time.perf_counter()
    with trace_memory(profile) as probe:
        yield
    timings[name] = {"elapsed": time.perf_counter() - started,
                     "engine": engine, "memory": probe.memory}


# --------------------------------------------------------------------------- #
# execution plans
# --------------------------------------------------------------------------- #
class ExecutionPlan:
    """An ordered list of work units that runs itself.

    Each node has a unique ``name`` and a ``run`` method returning the
    node's context updates without mutating the context; a plain node
    also has the ``engine`` reported in its timing. :meth:`run` executes
    the nodes one by one in list order — the template's declaration
    order — so the order is the plan's semantics.

    Args:
        nodes: the work units, in plan order.
        arena: the :class:`~repro.core.arena.ArenaPool` the plan's fused
            forwards lease scratch buffers from (``plan.arena``).
        lane_registry: a stream-batch plan's :class:`LaneRegistry`
            (``plan.lane_registry``); ``None`` in other modes.
    """

    def __init__(self, nodes: Sequence, arena: Optional[ArenaPool] = None,
                 lane_registry: Optional[LaneRegistry] = None):
        self.nodes = list(nodes)
        self.arena = arena
        self.lane_registry = lane_registry
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ExecutorError(f"Duplicate step names in plan: {names}")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    @property
    def fusion_groups(self) -> List[dict]:
        """Every fused chain: its name, member steps and their categories."""
        return [{"name": node.name,
                 "steps": [member.name for member in node.steps],
                 "categories": [member.cell[1].fuse_category
                                for member in node.steps]}
                for node in self.nodes if isinstance(node, FusedStep)]

    def run(self, context: dict, profile: bool = False
            ) -> Tuple[dict, Dict[str, dict]]:
        """Execute every node over ``context``, in plan order, in the caller.

        Returns the final context and a ``{step: timing}`` mapping with keys
        ``elapsed``, ``engine`` and ``memory`` (``tracemalloc`` peak bytes
        when ``profile`` is set, else 0) — one entry per template step,
        fused chain members included. The timings of a run that completes
        are also fed to the installed timing sink.
        """
        timings: Dict[str, dict] = {}
        for node in self.nodes:
            if isinstance(node, FusedStep):  # it times each member itself
                updates = node.run(context, timings, profile)
            else:
                with _timed(timings, node.name, node.engine, profile):
                    updates = node.run(context)
            context.update(updates)
        observe_step_timings(timings)
        return context, timings


#: The execution modes a template lowers into: fitting (a batch of one that
#: also fits), N signals at once (``detect`` is a batch of one), and N
#: sliding-window lanes at once —
#: stateless steps run once over the stacked windows while incremental
#: steps read each lane's own primitive through a :class:`LaneRegistry` and
#: lower to :class:`LaneStep` nodes (a lone stream is a stream batch of one).
PLAN_MODES = ("fit", "batch", "stream_batch")

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


def _map_outputs(step: dict, primitive, produced) -> dict:
    """Rename a primitive's outputs to the step's context variables."""
    if not isinstance(produced, dict):
        raise PipelineError(
            f"Primitive {primitive.name!r} must return a dict of outputs"
        )
    outputs = step.get("outputs", {})
    return {outputs.get(out, out): value for out, value in produced.items()}


class CompiledStep:
    """One step of the lowered plan: a mode-tagged step body over a cell.

    The compiler builds it once per plan over the step's
    ``[step, primitive]`` cell. :meth:`run` reads the primitive the cell
    holds when it runs and returns the step's context updates, so a refit
    that swaps a fresh primitive into the cell needs no recompile. A fit
    mutates that primitive in place, so the pipeline owning the cell sees
    it directly.

    Every mode runs ``produce_batch`` over a list-shaped context (one entry
    per signal or lane). A ``fit`` step is a batch of one: it first fits
    its primitive on entry 0 of its ``fit_args``, then produces through
    the same exact kernel a ``batch`` step calls.

    Args:
        mode: one of :data:`PLAN_MODES`.
        cell: the ``[step, primitive]`` cell — the template step
            dictionary (name, inputs, outputs) and the live primitive.
        exact: ``False`` lowers to the fused (tolerance-parity)
            ``produce_batch_fused`` for primitives that support it.
        arena: the plan's :class:`~repro.core.arena.ArenaPool`, passed to
            every ``produce_batch_fused`` call for its scratch buffers.
        precision: ``None`` or ``"float32"`` — a fused chain's
            reduced-precision plane casts the step's float64 ndarray
            inputs down before the call.
    """

    __slots__ = ("mode", "cell", "name", "engine", "exact", "arena",
                 "precision")

    def __init__(self, mode: str, cell: list, exact: bool = True,
                 arena: Optional[ArenaPool] = None,
                 precision: Optional[str] = None):
        if mode not in PLAN_MODES:
            raise PipelineError(f"Unknown plan mode {mode!r}; expected one "
                                f"of {PLAN_MODES}")
        self.mode = mode
        self.cell = cell
        self.name = cell[0]["name"]
        self.engine = cell[1].engine
        self.exact = exact
        self.arena = arena
        self.precision = precision

    def run(self, context: dict) -> dict:
        step, primitive = self.cell
        inputs = step.get("inputs", {})
        if self.mode == "fit" and primitive.fit_args:
            fit_args = collect_args(context, primitive.fit_args, inputs, step)
            primitive.fit(**{arg: values[0]
                             for arg, values in fit_args.items()})
        kwargs = collect_args(context, primitive.produce_args, inputs, step)
        if self.precision == "float32":
            kwargs = {key: _downcast_batch(value)
                      for key, value in kwargs.items()}
        if not self.exact and primitive.supports_fused_batch:
            produced = primitive.produce_batch_fused(arena=self.arena,
                                                     **kwargs)
        else:
            produced = primitive.produce_batch(**kwargs)
        return _map_outputs(step, primitive, produced)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CompiledStep(mode={self.mode!r}, step={self.name!r}, "
                f"exact={self.exact})")


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
    ``FusedStep``: :meth:`run` calls every member's
    :meth:`CompiledStep.run` in a single pass, threading intermediate
    variables through a chain-local context instead of returning to the
    plan loop between steps. The returned updates are the union of every
    member's mapped outputs, so the post-run context is identical to the
    unfused plan's — fusion changes scheduling, never results (bitwise on
    the exact plane). Each member is timed like an unfused node, into the
    run's ``timings`` under its own step name, so per-step attribution
    survives fusion.

    Its ``name`` is ``"fused:"`` followed by the member step names joined
    by ``+``.

    Args:
        mode: ``"batch"`` or ``"stream_batch"`` — the modes the fusion
            pass runs on.
        steps: the member :class:`CompiledStep`s, in chain order; they
            carry the plan's arena and the chain's precision.
    """

    __slots__ = ("mode", "steps", "name")

    def __init__(self, mode: str, steps):
        if mode not in ("batch", "stream_batch"):
            raise PipelineError(
                f"FusedStep only exists in batch modes, not {mode!r}")
        self.mode = mode
        self.steps = list(steps)
        self.name = "fused:" + "+".join(step.name for step in self.steps)

    def run(self, context: dict, timings: Dict[str, dict],
            profile: bool = False) -> dict:
        """Run the chain; record one ``timings`` entry per member step."""
        local = dict(context)
        updates = {}
        for compiled in self.steps:
            with _timed(timings, compiled.name, compiled.engine, profile):
                mapped = compiled.run(local)
            local.update(mapped)
            updates.update(mapped)
        return updates

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"FusedStep(mode={self.mode!r}, name={self.name!r})"


class LaneRegistry:
    """Per-run table of lane-local primitive rows for stream-batch plans.

    Every :class:`~repro.core.stream.StreamRunner` keeps one incremental
    primitive *copy of its own* for every ``supports_stream`` step — a
    scaler's running statistics belong to one stream, never to the
    pipeline or the fleet. Before each plan run
    :func:`~repro.core.stream.detect_windows` binds the participating
    runners' rows here (:meth:`set_rows`) — a fleet group's lanes, or a
    lone runner as a single row — and the compiled :class:`LaneStep`
    units read their column when they run: the same late-binding idiom
    the plans use for ``[step, primitive]`` cells, extended to a second
    axis. ``rows[j][i]`` is lane *j*'s primitive for cell *i*, and every
    incremental update mutates that primitive in place, so the state stays
    with the stream that owns it. One registry serves every run of its
    plan, so runs of one plan must not overlap.
    """

    def __init__(self):
        self.rows: List[list] = []

    def set_rows(self, rows: List[list]) -> None:
        """Bind the participating lanes' primitive rows for one round."""
        self.rows = list(rows)

    def column(self, index: int) -> list:
        """Every participating lane's primitive for template cell ``index``."""
        return [row[index] for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)


class LaneStep:
    """One incremental stream-batch step, run per lane over lane-local state.

    Stateless steps in a stream-batch plan run once over the whole
    ``(n_lanes, window)`` stack, but a ``supports_stream`` primitive
    mutates running state that belongs to exactly one stream, so this work
    unit loops the participating lanes, feeding each lane's slice of the
    batched context through *that lane's* primitive via ``update``. The
    compiler builds it once per plan over a ``supports_stream`` cell, the
    cell's ``index`` and the plan's :class:`LaneRegistry`; :meth:`run`
    reads the lanes' primitives for that index from the registry, which
    is rebound before every run, and returns the per-lane outputs
    collected into one list per variable.
    """

    __slots__ = ("cell", "index", "registry", "name", "engine")

    def __init__(self, cell: list, index: int, registry: LaneRegistry):
        self.cell = cell
        self.index = index
        self.registry = registry
        self.name = cell[0]["name"]
        self.engine = cell[1].engine

    def run(self, context: dict) -> dict:
        step = self.cell[0]
        inputs = step.get("inputs", {})
        collected: dict = {}
        for lane, primitive in enumerate(self.registry.column(self.index)):
            kwargs = collect_args(context, primitive.produce_args, inputs,
                                  step)
            produced = primitive.update(**{arg: values[lane]
                                           for arg, values in kwargs.items()})
            for name, value in _map_outputs(step, primitive, produced).items():
                collected.setdefault(name, []).append(value)
        return collected

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"LaneStep(step={self.name!r}, lanes={len(self.registry)})"


class PlanCompiler:
    """Lower template steps into mode-tagged execution plans, once.

    Args:
        cells: the pipeline's mutable ``[step, primitive]`` cells. Every
            :class:`CompiledStep` reads the primitive *through* its cell
            when it runs, so a refit is visible to every already-compiled
            plan.
    """

    def __init__(self, cells: List[list]):
        self.cells = cells
        self.compilations = 0
        self._plans: Dict[Tuple[str, bool], ExecutionPlan] = {}

    # ------------------------------------------------------------------ #
    # the step-fusion pass (batch and stream-batch modes)
    # ------------------------------------------------------------------ #
    def _fusion_chains(self, exclude_stream: bool = False) \
            -> List[Tuple[int, ...]]:
        """Contiguous runs (length >= 2) of fusable cells, as index tuples.

        A cell is fusable when its primitive declares one of the
        :data:`FUSABLE_CATEGORIES`. Single fusable steps between
        non-fusable neighbours stay plain ``CompiledStep`` nodes — a
        one-step "chain" has no step boundary to eliminate. Stream-batch
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

    def compile(self, mode: str, exact: bool = True,
                precision: Optional[str] = None,
                registry: Optional[LaneRegistry] = None) -> ExecutionPlan:
        """Lower every step into a fresh mode-tagged :class:`ExecutionPlan`.

        Every plan owns one :class:`~repro.core.arena.ArenaPool`, exposed
        as ``plan.arena``; each of its ``exact=False`` forwards leases
        scratch buffers from it. Batch-mode plans additionally run the
        step-fusion pass: contiguous fusable chains become single
        :class:`FusedStep` nodes, listed in ``plan.fusion_groups``, whose
        members run at ``precision``. Fit-mode plans lower every step to
        its own :class:`CompiledStep`.

        Stream-batch plans run the same fusion pass over their stateless
        cells; incremental cells lower to :class:`LaneStep` nodes bound to
        ``registry`` (a fresh :class:`LaneRegistry` when omitted), exposed
        as ``plan.lane_registry``.
        """
        if mode not in PLAN_MODES:
            raise PipelineError(f"Unknown plan mode {mode!r}; expected one "
                                f"of {PLAN_MODES}")
        stream_batch = mode == "stream_batch"
        if not stream_batch:
            registry = None
        elif registry is None:
            registry = LaneRegistry()
        self.compilations += 1
        arena = ArenaPool()
        chains = self._fusion_chains(exclude_stream=stream_batch) \
            if mode != "fit" else []
        chain_start = {chain[0]: chain for chain in chains}

        nodes = []
        index = 0
        while index < len(self.cells):
            cell = self.cells[index]
            if index in chain_start:
                chain = chain_start[index]
                nodes.append(FusedStep(mode, [
                    CompiledStep(mode, self.cells[member], exact, arena,
                                 precision) for member in chain]))
                index = chain[-1] + 1
                continue
            if stream_batch and cell[1].supports_stream:
                nodes.append(LaneStep(cell, index, registry))
            else:
                nodes.append(CompiledStep(mode, cell, exact, arena))
            index += 1
        return ExecutionPlan(nodes, arena=arena, lane_registry=registry)

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
