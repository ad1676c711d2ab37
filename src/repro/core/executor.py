"""Pluggable execution engine for pipelines and benchmarks.

The paper models a pipeline as a DAG of primitives (§3.2) and the benchmark
runs every pipeline × signal combination under identical conditions (§3.4).
This module separates *what* to run from *how* to run it.

Every executor runs a compiled plan the same way: :meth:`Executor.run_plan`
executes the plan's nodes one by one, in plan order, on the calling thread.
Hub pipelines are chains — every pair of steps is ordered by the data they
share — so no plan ever has two steps ready at once. Apart from the caching
wrapper, executors differ only in how :meth:`Executor.map` fans a job list
(the benchmark's pipeline × signal sweep) out:

* :class:`SerialExecutor` — in order, in the caller (the default);
* :class:`ThreadedExecutor` — on a thread pool;
* :class:`ProcessExecutor` — on a ``multiprocessing`` pool, sidestepping
  the GIL for CPU-heavy jobs. Large arrays travel to and from the workers
  through POSIX shared memory (``multiprocessing.shared_memory``) with a
  plain-pickle fallback;
* :class:`CachingExecutor` — wraps another executor and memoizes per-step
  outputs keyed by (step spec, hyperparameters, input digests) so repeated
  tuning or benchmark runs skip unchanged pipeline prefixes.

An executor consumes an :class:`ExecutionPlan` — a list of :class:`StepNode`
entries carrying the variables each step reads and writes — and returns the
final context plus per-step timings, keeping ``Pipeline.step_timings`` intact
for the Figure 7 computational benchmarks.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import pickle
import threading
import time
import tracemalloc
import warnings
from collections import OrderedDict
from concurrent.futures import (
    FIRST_COMPLETED,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ExecutorError

try:  # pragma: no cover - present on every supported platform
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - ancient interpreters only
    _shared_memory = None

__all__ = [
    "StepNode",
    "ExecutionPlan",
    "Executor",
    "SerialExecutor",
    "ThreadedExecutor",
    "CachingExecutor",
    "ProcessExecutor",
    "get_executor",
    "list_executors",
    "trace_memory",
    "sweep_orphan_segments",
    "SHM_MIN_BYTES",
    "SHM_NAME_PREFIX",
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
    """One schedulable unit of work inside an :class:`ExecutionPlan`.

    Args:
        name: unique step name within the plan.
        engine: engine category of the underlying primitive.
        reads: context variable names the step consumes (fit and produce).
        writes: context variable names the step produces, in output order.
        execute: ``execute(context, fit)`` callable returning a dictionary of
            context updates. It must not mutate ``context`` itself — the
            executor applies the updates.
        fingerprint: stable identity of the step configuration (spec +
            hyperparameters, plus a per-build token for stateful steps) used
            as the cache key prefix.
        cacheable: ``cacheable(fit)`` predicate deciding whether the step's
            outputs may be served from a cache in the given mode.
        mode: plan mode this node was lowered for (``fit`` / ``detect`` /
            ``stream`` / ``batch`` — see :mod:`repro.core.plan`). The
            caching executor treats ``batch`` nodes specially (per-signal
            memoization) and splits its counters by it.
        signal_fingerprint: exact batch nodes only — the *single-signal*
            fingerprint of the same step, under which the caching executor
            serves and memoizes per-signal slices of the batch. Empty for
            non-batch nodes and for fused (tolerance-parity) batch nodes,
            which must never touch the exact per-signal cache.
    """

    name: str
    engine: str
    reads: Tuple[str, ...]
    writes: Tuple[str, ...]
    execute: Callable[[dict, bool], dict]
    fingerprint: str = ""
    cacheable: Callable[[bool], bool] = field(default=lambda fit: False)
    mode: str = "detect"
    signal_fingerprint: str = ""
    #: Fused batch nodes only — indices of the compiler cells this node
    #: covers (a contiguous chain lowered into one FusedStep). ``None``
    #: for ordinary single-step nodes; the plan compiler's ``refresh``
    #: uses it to re-stamp combined fingerprints after a refit.
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
# cross-process array transfer
# --------------------------------------------------------------------------- #
#: Arrays at or above this many bytes are parked in shared memory instead of
#: being pickled through the worker pipe.
SHM_MIN_BYTES = 1 << 18

#: Naming scheme of the segments this module creates:
#: ``repro_<creator-pid>_<random>``. Embedding the creator pid makes
#: orphans attributable — :func:`sweep_orphan_segments` reclaims segments
#: whose creator died without unlinking (SIGKILL between allocation and
#: cleanup), while never touching segments of live processes.
SHM_NAME_PREFIX = "repro_"

#: Where POSIX shared memory is mounted on Linux; the sweep is a no-op on
#: platforms without it (macOS exposes no listable shm directory).
_SHM_DIR = "/dev/shm"


def _create_segment(nbytes: int):
    """Allocate a fresh ``repro_<pid>_<random>`` shared-memory segment."""
    for _ in range(8):
        name = f"{SHM_NAME_PREFIX}{os.getpid()}_{os.urandom(4).hex()}"
        try:
            return _shared_memory.SharedMemory(name=name, create=True,
                                               size=nbytes)
        except FileExistsError:  # pragma: no cover - 1-in-2^32 collision
            continue
    # Collision storm (or a platform rejecting our names): let the stdlib
    # pick its own anonymous name rather than fail the transfer.
    return _shared_memory.SharedMemory(create=True, size=nbytes)


def _pid_alive(pid: int) -> bool:
    """Whether a process with ``pid`` currently exists."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # exists, owned by someone else
        return True
    return True


def sweep_orphan_segments(directory: str = _SHM_DIR) -> int:
    """Unlink ``repro_*`` shared-memory segments whose creators died.

    A worker hard-killed (SIGKILL, OOM) between allocating a transfer
    segment and handing ownership to the parent strands the segment in
    ``/dev/shm`` until reboot. Every pool start — :class:`ProcessExecutor`
    spinning up, a ``python -m repro.worker`` fleet worker booting — calls
    this sweep: any segment following the :data:`SHM_NAME_PREFIX` naming
    scheme whose embedded creator pid no longer exists is reclaimed.
    Segments of live processes (including this one) are never touched, and
    foreign ``/dev/shm`` entries are ignored. Returns how many segments
    were unlinked.
    """
    if _shared_memory is None or not os.path.isdir(directory):
        return 0
    swept = 0
    for entry in os.listdir(directory):
        if not entry.startswith(SHM_NAME_PREFIX):
            continue
        pid_part = entry[len(SHM_NAME_PREFIX):].split("_", 1)[0]
        if not pid_part.isdigit():
            continue
        pid = int(pid_part)
        if pid == os.getpid() or _pid_alive(pid):
            continue
        with contextlib.suppress(Exception):
            segment = _shared_memory.SharedMemory(name=entry)
            segment.unlink()
            segment.close()
            swept += 1
    return swept


class _ShmRef:
    """Picklable handle to a numpy array parked in POSIX shared memory."""

    __slots__ = ("name", "shape", "dtype")

    def __init__(self, name: str, shape: tuple, dtype: str):
        self.name = name
        self.shape = shape
        self.dtype = dtype

    def __getstate__(self):
        return (self.name, self.shape, self.dtype)

    def __setstate__(self, state):
        self.name, self.shape, self.dtype = state


def _shm_eligible(value) -> bool:
    return (
        _shared_memory is not None
        and isinstance(value, np.ndarray)
        and value.nbytes >= SHM_MIN_BYTES
        and value.dtype.hasobject is False
    )


def encode_for_transfer(value, segments: list):
    """Swap large arrays in ``value`` for shared-memory handles.

    Walks plain containers (dict / list / tuple); every qualifying array is
    copied into a fresh ``SharedMemory`` segment and replaced by a
    :class:`_ShmRef`. The created segments are appended to ``segments`` —
    the caller owns them and must :func:`release_transfers` once the worker
    is done. Anything that cannot go through shared memory (small arrays,
    arbitrary objects, segment allocation failure) is returned unchanged and
    rides the normal pickle channel.
    """
    if _shm_eligible(value):
        try:
            segment = _create_segment(value.nbytes)
        except OSError:  # no /dev/shm, or it is full: pickle fallback
            return value
        mirror = np.ndarray(value.shape, dtype=value.dtype, buffer=segment.buf)
        mirror[...] = value
        segments.append(segment)
        return _ShmRef(segment.name, value.shape, value.dtype.str)
    if isinstance(value, dict):
        return {key: encode_for_transfer(item, segments)
                for key, item in value.items()}
    if isinstance(value, list):
        return [encode_for_transfer(item, segments) for item in value]
    if type(value) is tuple:
        return tuple(encode_for_transfer(item, segments) for item in value)
    return value


def decode_from_transfer(value):
    """Materialize shared-memory handles back into arrays (worker side).

    The array is copied out of the segment so the parent can release it as
    soon as the task finishes, and so worker-side mutation can never leak
    back. The parent owns the segment lifecycle: pool workers share the
    parent's resource tracker under every start method (fork inherits the
    tracker fd, spawn/forkserver pass it explicitly), and the tracker's
    registry is a set, so the worker's attach-time registration dedups
    against the parent's create-time one and the parent's ``unlink`` is
    the single cleanup point — the worker must *not* unregister.
    """
    if isinstance(value, _ShmRef):
        segment = _shared_memory.SharedMemory(name=value.name)
        try:
            return np.ndarray(
                value.shape, dtype=np.dtype(value.dtype), buffer=segment.buf
            ).copy()
        finally:
            segment.close()
    if isinstance(value, dict):
        return {key: decode_from_transfer(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_from_transfer(item) for item in value]
    if type(value) is tuple:
        return tuple(decode_from_transfer(item) for item in value)
    return value


def release_transfers(segments: list) -> None:
    """Close and unlink every shared-memory segment in ``segments``."""
    for segment in segments:
        with contextlib.suppress(Exception):
            segment.close()
        with contextlib.suppress(Exception):
            segment.unlink()
    segments.clear()


def encode_result(value):
    """Park a worker's large output arrays in shared memory (worker side).

    The zero-copy *return* path: the mirror of :func:`encode_for_transfer`
    for values travelling worker → parent. Qualifying arrays are copied
    into fresh segments whose handles ride the result pickle; the worker
    drops its own mappings immediately (named POSIX segments persist until
    unlinked) and ownership passes to the parent, which must materialize
    the value with :func:`decode_and_release` — the single cleanup point.
    If anything fails mid-encode the created segments are unlinked here and
    the error propagates, so a worker that raises never leaks ``/dev/shm``
    space past the task.

    Ownership transfer detail: the segments are *unregistered* from this
    process's resource tracker once encoding succeeds — the parent's
    attach-time registration (and unlink-time unregistration) in
    :func:`decode_and_release` becomes the single authoritative record, so
    neither side's tracker warns about (or double-unlinks) segments the
    other side already reclaimed. A worker hard-killed in the instant
    between unregistration and the result reaching the parent can strand a
    segment until reboot; the pool surfaces that as ``BrokenProcessPool``,
    and the window is a few microseconds of pickling.
    """
    segments: list = []
    try:
        encoded = encode_for_transfer(value, segments)
    except BaseException:
        release_transfers(segments)
        raise
    for segment in segments:
        with contextlib.suppress(Exception):
            segment.close()
        with contextlib.suppress(Exception):
            from multiprocessing import resource_tracker

            resource_tracker.unregister(segment._name, "shared_memory")
    return encoded


def decode_and_release(value):
    """Materialize a worker-encoded result and unlink its segments.

    Parent-side counterpart of :func:`encode_result`: every handle is
    copied out and its segment unlinked immediately, so the shared-memory
    footprint of a fan-out is bounded by the results in flight, not the
    whole job list.
    """
    if isinstance(value, _ShmRef):
        segment = _shared_memory.SharedMemory(name=value.name)
        try:
            return np.ndarray(
                value.shape, dtype=np.dtype(value.dtype), buffer=segment.buf
            ).copy()
        finally:
            with contextlib.suppress(Exception):
                segment.close()
            with contextlib.suppress(Exception):
                segment.unlink()
    if isinstance(value, dict):
        return {key: decode_and_release(item) for key, item in value.items()}
    if isinstance(value, list):
        return [decode_and_release(item) for item in value]
    if type(value) is tuple:
        return tuple(decode_and_release(item) for item in value)
    return value


def _in_worker_process() -> bool:
    """Whether this interpreter is itself a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


def _process_map_worker(function, item):
    """Apply one mapped function inside a pool worker.

    The result's large arrays return through shared memory; the parent
    materializes them with :func:`decode_and_release`.
    """
    return encode_result(function(decode_from_transfer(item)))


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class Executor:
    """Scheduling strategy for pipeline plans and generic job lists.

    :meth:`run_plan` is shared by every executor (the caching wrapper only
    wraps the nodes first): it runs a plan's nodes one by one, in plan
    order, on the calling thread. Subclasses implement :meth:`map`
    (benchmark fan-out), which must return results in the order of
    ``items`` regardless of the order in which they complete.
    """

    name = "executor"

    def run_plan(self, plan: ExecutionPlan, context: dict, fit: bool = False,
                 profile: bool = False) -> Tuple[dict, Dict[str, dict]]:
        """Execute every node of ``plan`` over ``context``, in plan order.

        Returns the final context and a ``{step: timing}`` mapping with keys
        ``elapsed``, ``engine`` and ``memory`` (plus ``cached`` when a
        caching layer served the step).
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
        timing = {"elapsed": elapsed, "engine": node.engine, "memory": memory}
        if isinstance(updates, dict) and updates.pop("__cached__", False):
            timing["cached"] = True
        return updates, timing

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
        results: List = [None] * len(items)
        with ThreadPoolExecutor(max_workers=self._pool_size(len(items))) as pool:
            futures = {pool.submit(function, item): index
                       for index, item in enumerate(items)}
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    results[index] = future.result()
                    if progress is not None:
                        progress(index, results[index])
        return results


class CachingExecutor(Executor):
    """Memoize per-step outputs on top of another executor.

    Cache keys combine the step fingerprint (spec + hyperparameters, plus a
    per-build token for fitted stateful steps), the execution mode, and a
    content digest of every input variable, so a hyperparameter change or
    different input data invalidates the entry. Steps whose inputs cannot be
    digested deterministically bypass the cache.

    Batch-mode plans are cached **per signal**: an exact batch node carries
    the single-signal fingerprint of its step
    (:attr:`StepNode.signal_fingerprint`), and the executor digests each
    signal's slice of the batched inputs separately. Signals already in the
    memo — whether a previous single-signal run or an earlier batch put
    them there — are served from cache, only the remaining signals run
    through the fused batch pass, and their output slices are memoized
    under the same per-signal keys, so batch and single-signal traffic
    share one cache. Fused (``exact=False``) batch nodes are excluded from
    the per-signal store (their outputs are only tolerance-equal) and fall
    back to whole-batch memoization under their own namespaced fingerprint.

    The memo store is a bounded LRU: once ``maxsize`` entries accumulate,
    the least-recently-used entry is evicted, so long tuning sessions and
    stream sessions cannot grow memory without limit. ``hits`` / ``misses``
    / ``evictions`` counters (see :meth:`stats`) expose the cache's
    effectiveness, totalled and split by plan mode (``batch`` vs
    ``single``).

    Args:
        inner: the executor wrapped plans and ``map`` are delegated to
            (default serial).
        maxsize: LRU capacity in cached step outputs (``max_entries`` is
            accepted as an alias).
    """

    name = "caching"

    #: Plan modes whose cache traffic is accounted under ``batch`` in
    #: :meth:`stats`; everything else counts as ``single``.
    _MODE_KEYS = ("single", "batch")

    def __init__(self, inner: Optional[Union[str, "Executor"]] = None,
                 maxsize: int = 256, max_entries: Optional[int] = None):
        if max_entries is not None:
            maxsize = max_entries
        if maxsize < 1:
            raise ExecutorError("maxsize must be at least 1")
        self.inner = get_executor(inner or "serial")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._by_mode = {key: {"hits": 0, "misses": 0, "evictions": 0}
                         for key in self._MODE_KEYS}
        # Entries are ``(mode, updates)``: the mode that *stored* the entry
        # attributes its eventual eviction in the per-mode counters.
        self._cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._lock = threading.Lock()

    @property
    def max_entries(self) -> int:
        """The LRU capacity bound (alias of ``maxsize``)."""
        return self.maxsize

    @staticmethod
    def _mode_key(node: "StepNode") -> str:
        return "batch" if node.mode == "batch" else "single"

    def stats(self) -> dict:
        """Current ``hits`` / ``misses`` / ``evictions`` / occupancy.

        Totals stay at the top level; ``by_mode`` splits the same three
        counters by the plan mode of the accessing node — ``batch`` for
        batch-mode plans (including per-signal hits and misses served from
        *inside* a batch step), ``single`` for everything else (fit,
        detect, stream). Evictions are attributed to the mode that stored
        the evicted entry. :meth:`clear` resets the totals **and** both
        mode splits along with the entries; counters are never reset
        implicitly.
        """
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._cache),
                "max_entries": self.maxsize,
                "by_mode": {key: dict(counters)
                            for key, counters in self._by_mode.items()},
            }

    # -- pickling: locks are not picklable and a cache is never worth
    # -- shipping with a saved model, so drop both.
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_cache"] = OrderedDict()
        state["_lock"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def clear(self) -> None:
        """Drop every cached entry and reset all counters (incl. by-mode)."""
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
            for counters in self._by_mode.values():
                counters.update(hits=0, misses=0, evictions=0)

    @staticmethod
    def _digest(value) -> Optional[str]:
        hasher = hashlib.sha256()
        if value is None:
            hasher.update(b"\x00none")
        elif isinstance(value, np.ndarray):
            hasher.update(str(value.dtype).encode())
            hasher.update(str(value.shape).encode())
            hasher.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, (bool, int, float, str, bytes)):
            hasher.update(type(value).__name__.encode())
            hasher.update(repr(value).encode())
        else:
            try:
                hasher.update(pickle.dumps(value))
            except Exception:  # noqa: BLE001 - undigestable input: skip cache
                return None
        return hasher.hexdigest()

    def _key(self, node: StepNode, context: dict) -> Optional[tuple]:
        # The fit/detect execution mode is deliberately NOT part of the
        # key: a step is only cacheable in fit mode when fitting is a
        # no-op for it, so a cacheable step produces identical outputs in
        # both modes and a fit run can warm the cache for subsequent
        # detect runs. (Batch plans are namespaced via the fingerprint
        # itself, and their per-signal path keys on signal_fingerprint.)
        parts = []
        for variable in sorted(node.reads):
            digest = self._digest(context.get(variable))
            if digest is None:
                return None
            parts.append((variable, digest))
        return (node.fingerprint, tuple(parts))

    # -- counter-accounted store access (all called with the lock held) --
    def _hit(self, key: tuple, mode: str) -> dict:
        self.hits += 1
        self._by_mode[mode]["hits"] += 1
        self._cache.move_to_end(key)
        return dict(self._cache[key][1])

    def _store(self, key: tuple, updates: dict, mode: str) -> None:
        self.misses += 1
        self._by_mode[mode]["misses"] += 1
        self._cache[key] = (mode, dict(updates))
        while len(self._cache) > self.maxsize:
            _, (stored_mode, _) = self._cache.popitem(last=False)
            self.evictions += 1
            self._by_mode[stored_mode]["evictions"] += 1

    # ------------------------------------------------------------------ #
    # the batch-aware path: per-signal memoization inside a batch step
    # ------------------------------------------------------------------ #
    def _signal_keys(self, node: StepNode, context: dict) -> Optional[list]:
        """One single-signal cache key per batch entry (None = undigestable)."""
        reads = sorted(node.reads)
        size = None
        for variable in reads:
            value = context.get(variable)
            if not isinstance(value, list):
                return None  # not a batched context: no per-signal view
            if size is None:
                size = len(value)
            elif len(value) != size:
                return None
        if size is None:
            return None
        keys = []
        for index in range(size):
            parts = []
            for variable in reads:
                digest = self._digest(context[variable][index])
                if digest is None:
                    parts = None
                    break
                parts.append((variable, digest))
            keys.append((node.signal_fingerprint, tuple(parts))
                        if parts is not None else None)
        return keys

    def _run_batch_aware(self, node: StepNode, context: dict,
                         fit: bool) -> dict:
        keys = self._signal_keys(node, context)
        if keys is None:
            return node.execute(context, fit)
        size = len(keys)
        served: Dict[int, dict] = {}
        with self._lock:
            for index, key in enumerate(keys):
                if key is not None and key in self._cache:
                    served[index] = self._hit(key, "batch")
        missing = [index for index in range(size) if index not in served]
        if not missing:
            updates = {
                variable: [served[index][variable] for index in range(size)]
                for variable in node.writes
            }
            updates["__cached__"] = True
            return updates
        # Run only the uncached signals through the fused batch body; the
        # CompiledStep is batch-shape-agnostic, so a sub-batch is just a
        # smaller context.
        subcontext = {
            variable: [context[variable][index] for index in missing]
            for variable in node.reads if variable in context
        }
        computed = node.execute(subcontext, fit)
        with self._lock:
            for position, index in enumerate(missing):
                if keys[index] is None:
                    self.misses += 1  # ran, but cannot be memoized
                    self._by_mode["batch"]["misses"] += 1
                    continue
                slice_updates = {
                    variable: computed[variable][position]
                    for variable in node.writes
                }
                self._store(keys[index], slice_updates, "batch")
        if len(missing) == size:
            return computed
        by_position = dict(zip(missing, range(len(missing))))
        return {
            variable: [
                computed[variable][by_position[index]]
                if index in by_position else served[index][variable]
                for index in range(size)
            ]
            for variable in node.writes
        }

    def _wrap(self, node: StepNode) -> StepNode:
        mode = self._mode_key(node)

        def execute(context: dict, fit: bool) -> dict:
            if not node.cacheable(fit) or not node.fingerprint:
                return node.execute(context, fit)
            if node.mode == "batch" and node.signal_fingerprint:
                return self._run_batch_aware(node, context, fit)
            key = self._key(node, context)
            if key is None:
                return node.execute(context, fit)
            with self._lock:
                if key in self._cache:
                    cached = self._hit(key, mode)
                    cached["__cached__"] = True
                    return cached
            updates = node.execute(context, fit)
            with self._lock:
                self._store(key, updates, mode)
            return updates

        return StepNode(
            name=node.name, engine=node.engine, reads=node.reads,
            writes=node.writes, execute=execute,
            fingerprint=node.fingerprint, cacheable=node.cacheable,
            mode=node.mode, signal_fingerprint=node.signal_fingerprint,
        )

    def run_plan(self, plan, context, fit=False, profile=False):
        wrapped = ExecutionPlan([self._wrap(node) for node in plan])
        return self.inner.run_plan(wrapped, context, fit=fit, profile=profile)

    def map(self, function, items, progress=None):
        return self.inner.map(function, items, progress=progress)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"CachingExecutor(inner={self.inner!r}, "
                f"hits={self.hits}, misses={self.misses})")


class ProcessExecutor(Executor):
    """Fan ``map`` jobs out across a ``multiprocessing`` pool.

    Plans run like on every executor (in order, in the caller); :meth:`map`
    spreads a job list — the benchmark's pipeline × signal sweep — across
    pool workers, escaping the GIL. The mapped function and items must be
    picklable (module-level functions, plain-data items); an unpicklable
    *function* degrades to a serial in-process run with a
    ``RuntimeWarning`` rather than failing the fan-out.

    Large numpy arrays travel through POSIX shared memory segments instead
    of the worker pipe — in *both* directions: items via
    :func:`encode_for_transfer` (parent creates, parent unlinks after the
    job), results via :func:`encode_result` in the worker (worker creates,
    parent unlinks on receipt through :func:`decode_and_release`).
    Everything else — and every array when shared memory is unavailable —
    falls back to pickle.

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

    # -- a pool handle must never ride along with a pickled pipeline
    def __getstate__(self) -> dict:
        return {"max_workers": self.max_workers}

    def __setstate__(self, state: dict) -> None:
        self.max_workers = state["max_workers"]

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

        results: List = [None] * len(items)
        in_flight: Dict[object, Tuple[int, list]] = {}
        pool_size = self._pool_size(len(items))
        sweep_orphan_segments()
        # Encode lazily, a bounded window at a time: shared-memory segments
        # (a finite system resource — /dev/shm) exist only for items that
        # are running or next in line, not for the whole job list.
        window = pool_size * 2
        next_index = 0
        with ProcessPoolExecutor(max_workers=pool_size,
                                 mp_context=_mp_context()) as pool:
            def submit_next() -> None:
                nonlocal next_index
                segments: list = []
                encoded = encode_for_transfer(items[next_index], segments)
                future = pool.submit(_process_map_worker, function, encoded)
                in_flight[future] = (next_index, segments)
                next_index += 1

            try:
                while next_index < len(items) and len(in_flight) < window:
                    submit_next()
                while in_flight:
                    done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
                    for future in done:
                        index, segments = in_flight.pop(future)
                        release_transfers(segments)
                        error = future.exception()
                        if error is not None:
                            raise self._surface(error)
                        results[index] = decode_and_release(future.result())
                        if progress is not None:
                            progress(index, results[index])
                        if next_index < len(items):
                            submit_next()
            finally:
                # Settle every abandoned future first (cancel what has not
                # started, join what has), then reclaim both the input
                # segments and the return segments of results that
                # completed but will never be consumed.
                pool.shutdown(cancel_futures=True)
                for future, (_, segments) in in_flight.items():
                    release_transfers(segments)
                    if not future.cancelled() and future.exception() is None:
                        with contextlib.suppress(Exception):
                            decode_and_release(future.result())
        return results

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
    CachingExecutor.name: CachingExecutor,
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
