"""Preallocated scratch-buffer arena for the fused NN forwards.

The time-major NN kernels behind ``produce_batch_fused`` — every
``exact=False`` forward, inside a fused chain or not — need a handful of
scratch ndarrays per call: gate pre-activations, cell state, per-step RHS
buffers. ``Sequential.predict_fused`` runs them once per tile of the
window axis, each tile in its own :meth:`ArenaPool.scope`, so the
buffers are sized from a tile's shape, not the batch's, and are
identical tile after tile and call after call. The plan owns one
:class:`ArenaPool`, its compiler hands it to every
:class:`~repro.core.plan.CompiledStep`, and the kernels lease buffers
from it instead of allocating fresh arrays on every batch. Tiles that
run on the forward's thread pool lease in concurrent scopes, so the
pool holds at most one set of buffers per thread and tile shape.

Ownership rules (documented in ARCHITECTURE.md):

* the **plan** owns the pool — one pool per compiled plan, created at
  compile time and living exactly as long as the plan does;
* a kernel **leases** buffers inside an :meth:`ArenaPool.scope` block and
  must not let leased memory escape the scope (escaping values are
  copied out);
* leased buffers come back uninitialised — callers zero or overwrite
  them, exactly as with ``np.empty``.

The pool never crosses a process boundary: plans run in the process
that compiled them.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ArenaPool"]


class ArenaPool:
    """Reusable ndarray buffers keyed by ``(shape, dtype)``.

    ``take`` hands out a free buffer of the requested shape/dtype or
    allocates one; buffers leased inside a :meth:`scope` return to the
    free lists when the scope exits. The pool is thread-safe: concurrent
    scopes lease disjoint buffers.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._free: Dict[Tuple[tuple, str], List[np.ndarray]] = {}
        self._allocations = 0
        self._reuses = 0
        self._bytes_held = 0
        self._bytes_reused = 0

    # ------------------------------------------------------------------ #
    # leasing
    # ------------------------------------------------------------------ #
    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """Lease an uninitialised buffer of ``shape`` / ``dtype``."""
        shape = tuple(int(dim) for dim in shape)
        dtype = np.dtype(dtype)
        key = (shape, dtype.str)
        with self._lock:
            bucket = self._free.get(key)
            if bucket:
                buffer = bucket.pop()
                self._reuses += 1
                self._bytes_reused += buffer.nbytes
                return buffer
        buffer = np.empty(shape, dtype=dtype)
        with self._lock:
            self._allocations += 1
            self._bytes_held += buffer.nbytes
        return buffer

    def release(self, *buffers: np.ndarray) -> None:
        """Return leased buffers to their free lists."""
        with self._lock:
            for buffer in buffers:
                if buffer is None:
                    continue
                key = (buffer.shape, buffer.dtype.str)
                self._free.setdefault(key, []).append(buffer)

    @contextmanager
    def scope(self):
        """Context manager leasing buffers that auto-release on exit.

        Yields a ``take(shape, dtype)`` callable; every buffer taken
        through it is released when the ``with`` block exits, whether or
        not the body raised.
        """
        leased: List[np.ndarray] = []

        def take(shape, dtype=np.float64) -> np.ndarray:
            buffer = self.take(shape, dtype)
            leased.append(buffer)
            return buffer

        try:
            yield take
        finally:
            self.release(*leased)

    # ------------------------------------------------------------------ #
    # accounting
    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        """Allocation/reuse counters for the fusion report."""
        with self._lock:
            free_buffers = sum(len(bucket) for bucket in self._free.values())
            return {
                "allocations": self._allocations,
                "reuses": self._reuses,
                "bytes_held": self._bytes_held,
                "bytes_reused": self._bytes_reused,
                "free_buffers": free_buffers,
                "shapes": sorted(
                    f"{shape}/{dtype}" for shape, dtype in self._free),
            }

    def clear(self) -> None:
        """Drop every pooled buffer and reset the counters."""
        with self._lock:
            self._free.clear()
            self._allocations = 0
            self._reuses = 0
            self._bytes_held = 0
            self._bytes_reused = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        stats = self.stats()
        return (f"ArenaPool(allocations={stats['allocations']}, "
                f"reuses={stats['reuses']}, "
                f"bytes_held={stats['bytes_held']})")
