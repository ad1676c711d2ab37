"""Pluggable execution engine for pipelines and benchmarks.

The paper models a pipeline as a DAG of primitives (§3.2) and the benchmark
runs every pipeline × signal combination under identical conditions (§3.4).
This module separates *what* to run from *how* to run it.

Every executor runs a compiled plan the same way: :meth:`Executor.run_plan`
executes the plan's nodes one by one, in plan order, on the calling thread.
Hub pipelines are chains — every pair of steps is ordered by the data they
share — so no plan ever has two steps ready at once. Executors differ only
in how :meth:`Executor.map` fans a job list (the benchmark's pipeline ×
signal sweep) out:

* :class:`SerialExecutor` — in order, in the caller (the default);
* :class:`ThreadedExecutor` — on a thread pool;
* :class:`ProcessExecutor` — on a ``multiprocessing`` pool, sidestepping
  the GIL for CPU-heavy jobs.

An executor consumes an :class:`ExecutionPlan` — an ordered list of named,
timed :class:`StepNode` entries — and returns the final context plus
per-step timings, keeping ``Pipeline.step_timings`` intact for the
Figure 7 computational benchmarks.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import time
import tracemalloc
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.exceptions import ExecutorError

__all__ = [
    "StepNode",
    "ExecutionPlan",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "ProcessExecutor",
    "get_executor",
    "list_executors",
    "trace_memory",
    "MP_START_ENV",
    "set_timing_sink",
    "observe_step_timings",
]

#: Environment variable selecting the multiprocessing start method used by
#: :class:`ProcessExecutor` pools (``fork`` / ``spawn`` / ``forkserver``).
#: Unset (or empty) keeps the platform default. CI runs the executor parity
#: suite under ``REPRO_MP_START=spawn`` to prove macOS-default semantics.
MP_START_ENV = "REPRO_MP_START"


def _mp_context():
    """The start-method context for worker pools (honours ``MP_START_ENV``)."""
    method = os.environ.get(MP_START_ENV, "").strip()
    if not method:
        return None
    return multiprocessing.get_context(method)


# --------------------------------------------------------------------------- #
# step-timing observability
# --------------------------------------------------------------------------- #
#: Optional process-wide sink receiving every run's ``step_timings`` dict
#: (``{step_name: {"elapsed": ..., ...}}``). The API gateway installs an
#: aggregator here so ``GET /metrics`` can export executor timings; when no
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
# execution plans
# --------------------------------------------------------------------------- #
@dataclass
class StepNode:
    """One named, timed unit of work inside an :class:`ExecutionPlan`.

    Args:
        name: unique step name within the plan.
        engine: engine category of the underlying primitive, reported in
            the step's timing.
        execute: ``execute(context, fit)`` callable returning a dictionary of
            context updates. It must not mutate ``context`` itself — the
            executor applies the updates.
        members: fused batch nodes only — indices of the compiler cells this
            node covers (a contiguous chain lowered into one ``FusedStep``).
            ``None`` for ordinary single-step nodes.
    """

    name: str
    engine: str
    execute: Callable[[dict, bool], dict]
    members: Optional[Tuple[int, ...]] = None


class ExecutionPlan:
    """An ordered list of step nodes.

    Every executor runs the nodes one by one in list order — the
    template's declaration order — so the order is the plan's semantics.
    """

    def __init__(self, nodes: Sequence[StepNode]):
        self.nodes = list(nodes)
        names = [node.name for node in self.nodes]
        if len(set(names)) != len(names):
            raise ExecutorError(f"Duplicate step names in plan: {names}")

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


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

    Concurrent measurements must share one outer trace: whoever runs
    measured work on several threads should hold ``trace_memory`` open
    around the fan-out so no single task stops the trace while siblings
    are still measuring (their deltas then become rough estimates, since
    the peak reset and reads race across threads).
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


def _run_measured(action: Callable[[], dict], profile: bool) -> Tuple[dict, float, int]:
    """Run ``action`` and return ``(result, elapsed_seconds, memory_bytes)``."""
    started = time.perf_counter()
    with trace_memory(profile) as probe:
        result = action()
    return result, time.perf_counter() - started, probe.memory


# --------------------------------------------------------------------------- #
# job fan-out
# --------------------------------------------------------------------------- #
def _in_worker_process() -> bool:
    """Whether this interpreter is itself a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


def _ordered_map(pool, function: Callable, items: List,
                 progress: Optional[Callable[[int, object], None]]) -> List:
    """Run ``function`` over ``items`` on ``pool``; results in item order.

    Every item is submitted up front and results are collected as they
    complete, calling ``progress(index, result)`` in the caller for each.
    On the first failure the jobs that have not started are cancelled and
    the error is re-raised once the running ones finish. The pool is shut
    down on return.
    """
    results: List = [None] * len(items)
    with pool:
        futures = {pool.submit(function, item): index
                   for index, item in enumerate(items)}
        pending = set(futures)
        try:
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    results[index] = future.result()
                    if progress is not None:
                        progress(index, results[index])
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    return results


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class Executor:
    """Scheduling strategy for pipeline plans and generic job lists.

    :meth:`run_plan` is shared by every executor: it runs a plan's nodes
    one by one, in plan order, on the calling thread. Subclasses implement
    :meth:`map` (benchmark fan-out), which must return results in the order
    of ``items`` regardless of the order in which they complete.
    """

    name = "executor"

    def run_plan(self, plan: ExecutionPlan, context: dict, fit: bool = False,
                 profile: bool = False) -> Tuple[dict, Dict[str, dict]]:
        """Execute every node of ``plan`` over ``context``, in plan order.

        Returns the final context and a ``{step: timing}`` mapping with keys
        ``elapsed``, ``engine`` and ``memory``.
        """
        timings: Dict[str, dict] = {}
        for node in plan:
            updates, timing = self._run_node(node, context, fit, profile)
            context.update(updates)
            timings[node.name] = timing
        return context, timings

    def map(self, function: Callable, items: Iterable,
            progress: Optional[Callable[[int, object], None]] = None) -> List:
        """Apply ``function`` to every item, returning results in order.

        ``progress(index, result)``, when given, is invoked in the *parent*
        as each item completes (completion order, not item order) — the hook
        the benchmark checkpointer uses to persist finished jobs while the
        rest of the fan-out is still running.
        """
        raise NotImplementedError

    def _run_node(self, node: StepNode, context: dict, fit: bool,
                  profile: bool) -> Tuple[dict, dict]:
        """Execute one node and return ``(updates, timing)``."""
        updates, elapsed, memory = _run_measured(
            lambda: node.execute(context, fit), profile
        )
        return updates, {"elapsed": elapsed, "engine": node.engine,
                         "memory": memory}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{self.__class__.__name__}()"


class SerialExecutor(Executor):
    """Map jobs in order, in the caller — the original semantics."""

    name = "serial"

    def map(self, function, items, progress=None):
        results = []
        for index, item in enumerate(items):
            result = function(item)
            results.append(result)
            if progress is not None:
                progress(index, result)
        return results


class ThreadedExecutor(Executor):
    """Fan ``map`` jobs out over a thread pool.

    Plans run like on every executor (in order, in the caller); only the
    job list of :meth:`map` is spread across threads, which pays off when
    the jobs release the GIL (NumPy/BLAS kernels, I/O).

    Args:
        max_workers: thread pool size (default: ``min(8, n_items)``).
    """

    name = "threaded"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ExecutorError("max_workers must be at least 1")
        self.max_workers = max_workers

    def _pool_size(self, n_items: int) -> int:
        if self.max_workers is not None:
            return self.max_workers
        return max(1, min(8, n_items))

    def map(self, function, items, progress=None):
        items = list(items)
        if not items:
            return []
        pool = ThreadPoolExecutor(max_workers=self._pool_size(len(items)))
        return _ordered_map(pool, function, items, progress)


class ProcessExecutor(Executor):
    """Fan ``map`` jobs out across a ``multiprocessing`` pool.

    Plans run like on every executor (in order, in the caller); :meth:`map`
    spreads a job list — the benchmark's pipeline × signal sweep — across
    pool workers, escaping the GIL. The mapped function and items must be
    picklable (module-level functions, plain-data items); an unpicklable
    *function* degrades to a serial in-process run with a
    ``RuntimeWarning`` rather than failing the fan-out.

    The pool's start method follows the platform default unless the
    ``REPRO_MP_START`` environment variable names one explicitly
    (``fork`` / ``spawn`` / ``forkserver``) — the hook CI uses to prove
    parity under macOS-default ``spawn`` semantics. Inside a pool worker
    (a nested fan-out) :meth:`map` runs serially rather than forking
    grandchildren.

    Args:
        max_workers: pool size (default: ``min(cpu_count, 8, n_items)``).
    """

    name = "process"

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ExecutorError("max_workers must be at least 1")
        self.max_workers = max_workers

    def _pool_size(self, n_items: int) -> int:
        if self.max_workers is not None:
            return self.max_workers
        return max(1, min(os.cpu_count() or 1, 8, n_items))

    def map(self, function, items, progress=None):
        items = list(items)
        if not items:
            return []
        if _in_worker_process():
            return SerialExecutor().map(function, items, progress=progress)
        try:
            pickle.dumps(function)
        except Exception:
            # A closure cannot cross the process boundary; degrade to a
            # correct serial run instead of failing the whole fan-out.
            warnings.warn(
                "ProcessExecutor.map received an unpicklable function; "
                "running serially. Use a module-level function to "
                "parallelize across processes.",
                RuntimeWarning, stacklevel=2,
            )
            return SerialExecutor().map(function, items, progress=progress)
        pool = ProcessPoolExecutor(max_workers=self._pool_size(len(items)),
                                   mp_context=_mp_context())
        try:
            return _ordered_map(pool, function, items, progress)
        except Exception as error:
            raise self._surface(error)

    @staticmethod
    def _surface(error: BaseException) -> BaseException:
        """Wrap pickling failures in an actionable message."""
        if isinstance(error, (pickle.PicklingError, AttributeError)) \
                and "pickle" in str(error).lower():
            return ExecutorError(
                "The process executor requires picklable jobs: use "
                "module-level functions and plain-data items (got: "
                f"{error})"
            )
        return error


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
EXECUTORS: Dict[str, type] = {
    SerialExecutor.name: SerialExecutor,
    ThreadedExecutor.name: ThreadedExecutor,
    ProcessExecutor.name: ProcessExecutor,
}

#: Executors that live in heavier subsystems and register themselves into
#: :data:`EXECUTORS` when their module first loads. Resolved lazily so
#: this core module never imports them at load time (the distributed tier
#: imports *this* module — eager registration would be a cycle).
_LAZY_EXECUTORS: Dict[str, str] = {
    "distributed": "repro.distributed.executor",
}


def _load_lazy_executor(name: str) -> None:
    if name in EXECUTORS or name not in _LAZY_EXECUTORS:
        return
    import importlib

    importlib.import_module(_LAZY_EXECUTORS[name])


def list_executors() -> List[str]:
    """Names of the registered executor strategies."""
    return sorted(set(EXECUTORS) | set(_LAZY_EXECUTORS))


def get_executor(executor: Optional[Union[str, Executor, type]] = None,
                 **options) -> Executor:
    """Resolve an executor specification to an :class:`Executor` instance.

    Accepts ``None`` (serial default), a registered name, an ``Executor``
    subclass, or an already-built instance (returned unchanged).
    """
    if executor is None:
        return SerialExecutor()
    if isinstance(executor, Executor):
        return executor
    if isinstance(executor, type) and issubclass(executor, Executor):
        return executor(**options)
    if isinstance(executor, str):
        _load_lazy_executor(executor)
        if executor not in EXECUTORS:
            raise ExecutorError(
                f"Unknown executor {executor!r}. Registered: {list_executors()}"
            )
        return EXECUTORS[executor](**options)
    raise ExecutorError(f"Cannot build an executor from {type(executor).__name__}")
