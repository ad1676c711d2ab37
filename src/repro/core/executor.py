"""Job fan-out for the benchmark sweep.

The benchmark runs every pipeline × signal combination under identical
conditions (§3.4). An executor decides only *how* that job list is spread
out; what each job runs is a pipeline, whose compiled plans run themselves
in the caller (:meth:`repro.core.plan.ExecutionPlan.run`). Every executor
implements one method, :meth:`Executor.map`, and there are two:

* :class:`SerialExecutor` — in order, in the caller (the default);
* :class:`ProcessExecutor` — on a ``multiprocessing`` pool, sidestepping
  the GIL for CPU-heavy jobs.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Dict, Iterable, List, Optional, Union

from repro.exceptions import ExecutorError

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
    "list_executors",
    "MP_START_ENV",
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


def _in_worker_process() -> bool:
    """Whether this interpreter is itself a multiprocessing worker."""
    return multiprocessing.parent_process() is not None


# --------------------------------------------------------------------------- #
# executors
# --------------------------------------------------------------------------- #
class Executor:
    """Fan-out strategy for a job list.

    Subclasses implement :meth:`map`, which must return results in the
    order of ``items`` regardless of the order in which they complete.
    """

    name = "executor"

    def map(self, function: Callable, items: Iterable,
            progress: Optional[Callable[[int, object], None]] = None) -> List:
        """Apply ``function`` to every item, returning results in order.

        ``progress(index, result)``, when given, is invoked in the *parent*
        as each item completes (completion order, not item order) — the hook
        the benchmark checkpointer uses to persist finished jobs while the
        rest of the fan-out is still running.
        """
        raise NotImplementedError

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


class ProcessExecutor(Executor):
    """Fan ``map`` jobs out across a ``multiprocessing`` pool.

    :meth:`map` spreads a job list — the benchmark's pipeline × signal
    sweep — across pool workers, escaping the GIL. The mapped function and
    items must be picklable (module-level functions, plain-data items):
    :meth:`map` pickles the function, then each item, before it opens a
    pool, and raises :class:`~repro.exceptions.ExecutorError` on the first
    that fails — a job the pool cannot pickle would hang its shutdown.

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
            for item in items:  # one at a time: no copy of the whole list
                pickle.dumps(item)
        except (pickle.PicklingError, AttributeError, TypeError) as error:
            raise _unpicklable(error) from error
        # Every item is submitted up front and results are collected as
        # they complete; the first failure cancels the jobs that have not
        # started and is re-raised once the running ones finish.
        pool = ProcessPoolExecutor(max_workers=self._pool_size(len(items)),
                                   mp_context=_mp_context())
        results: List = [None] * len(items)
        try:
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
        except Exception as error:
            raise self._surface(error)
        finally:
            pool.shutdown(cancel_futures=True)
        return results

    @staticmethod
    def _surface(error: BaseException) -> BaseException:
        """Wrap a result's pickling failure in an actionable message."""
        if isinstance(error, (pickle.PicklingError, AttributeError)) \
                and "pickle" in str(error).lower():
            return _unpicklable(error)
        return error


def _unpicklable(error: BaseException) -> ExecutorError:
    """The error for a job that cannot cross the process boundary."""
    return ExecutorError(
        "The process executor requires picklable jobs: use module-level "
        f"functions and plain-data items (got: {error})")


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
EXECUTORS: Dict[str, type] = {
    SerialExecutor.name: SerialExecutor,
    ProcessExecutor.name: ProcessExecutor,
}


def list_executors() -> List[str]:
    """Names of the registered executor strategies."""
    return sorted(EXECUTORS)


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
        if executor not in EXECUTORS:
            raise ExecutorError(
                f"Unknown executor {executor!r}. Registered: {list_executors()}"
            )
        return EXECUTORS[executor](**options)
    raise ExecutorError(f"Cannot build an executor from {type(executor).__name__}")
