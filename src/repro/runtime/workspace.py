"""Scratch-buffer arena for allocation-free steady-state maintenance.

LINVIEW's per-update cost argument assumes the delta program's work is
the FLOPs it performs — but a naive Python implementation re-allocates
every temporary on every trigger firing, so small-delta maintenance is
dominated by allocator churn, not arithmetic.  A :class:`Workspace`
removes that churn: it *leases* scratch buffers keyed by
``(rows, cols, dtype)`` and hands the same buffers back in the same
order on every subsequent firing, so a trigger that warmed up once
performs **zero heap allocation** afterwards (the property
``tests/test_steady_state.py`` measures with ``tracemalloc``).

Usage contract:

* a *firing* (one trigger execution, one shard tile op) opens a
  :meth:`frame` or calls :meth:`begin`; every :meth:`lease` inside it
  returns a distinct buffer;
* when the outermost frame closes, all leases are released — the *next*
  frame re-issues the same buffers in lease order.  Results computed in
  workspace buffers are therefore valid **until the next firing**, not
  forever; callers that must keep them (snapshots, cross-refresh
  factor caches) copy them out.
* frames nest: the inner frames neither reset nor recycle until the
  outermost one exits.

Buffers are plain C-contiguous float64 ``ndarray``\\ s — exactly what
the dense backend's kernels take as ``out`` (``np.matmul(..., out=)``,
ufunc ``out=``).  Sparse state falls back to allocation where CSR
structure forbids writing in place (see
:meth:`repro.backends.sparse.SparseBackend.matmul_into`); the thin
dense factor blocks that dominate factored-delta propagation reuse
workspace buffers under every backend.

The same convention is the contract for future backends: a GPU backend
implements the same ``out=`` kernels against device buffers and a
device-side workspace gives the identical zero-allocation steady state
(see ROADMAP).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

import numpy as np

#: Buffers are keyed by (rows, cols, dtype-name).
_Key = tuple[int, int, str]


class _ThreadArena:
    """One thread's private pools/cursors/counters (no locking needed)."""

    __slots__ = ("pools", "cursors", "depth", "allocations", "leases")

    def __init__(self):
        self.pools: dict[_Key, list[np.ndarray]] = {}
        self.cursors: dict[_Key, int] = {}
        self.depth = 0
        self.allocations = 0
        self.leases = 0


class Workspace:
    """A pool of reusable scratch buffers keyed by shape and dtype.

    **Thread safety:** pools, cursors and frame depth are *per thread*
    (a concurrent view-serving writer must never be handed a buffer
    another thread is still writing — see
    :mod:`repro.runtime.serving`), so two threads leasing the same
    shape concurrently always receive distinct buffers and each
    thread's :meth:`frame` nesting is independent.  The cost is that a
    workspace shared across threads holds one buffer set per thread
    that actually leases — the serving layer's single-writer design
    keeps that at one working set in practice.

    Statistics are exposed for tests and benchmarks: ``allocations``
    counts buffers actually created (steady state: stops growing),
    ``leases`` counts every hand-out; both aggregate across threads.
    """

    def __init__(self):
        self._local = threading.local()
        self._arenas: list[_ThreadArena] = []
        self._registry_lock = threading.Lock()

    def _arena(self) -> _ThreadArena:
        arena = getattr(self._local, "arena", None)
        if arena is None:
            arena = _ThreadArena()
            self._local.arena = arena
            with self._registry_lock:
                self._arenas.append(arena)
        return arena

    def _snapshot_arenas(self) -> list[_ThreadArena]:
        with self._registry_lock:
            return list(self._arenas)

    # -- leasing ---------------------------------------------------------
    def lease(self, rows: int, cols: int, dtype=np.float64) -> np.ndarray:
        """The next free ``(rows x cols)`` buffer of this thread's frame.

        Allocates only when the frame needs more buffers of this shape
        than any previous frame did; contents are unspecified (callers
        always overwrite via ``out=`` kernels).
        """
        arena = self._arena()
        key = (int(rows), int(cols), np.dtype(dtype).name)
        pool = arena.pools.get(key)
        if pool is None:
            pool = arena.pools[key] = []
            arena.cursors[key] = 0
        cursor = arena.cursors[key]
        arena.cursors[key] = cursor + 1
        arena.leases += 1
        if cursor >= len(pool):
            pool.append(np.empty((key[0], key[1]), dtype=dtype))
            arena.allocations += 1
        return pool[cursor]

    # -- frames ----------------------------------------------------------
    @contextmanager
    def frame(self):
        """One firing's lease scope; nested frames share the outermost.

        Leases are recycled when this thread's *outermost* frame exits,
        so buffers handed out anywhere inside stay valid until the next
        top-level firing begins.  Frames on different threads are
        independent.
        """
        arena = self._arena()
        arena.depth += 1
        try:
            yield self
        finally:
            arena.depth -= 1
            if arena.depth == 0:
                self._reset(arena)

    def begin(self) -> None:
        """Start a new top-level firing without the context manager.

        Equivalent to closing any previous implicit frame: this
        thread's leases are recycled.  No-op while an explicit
        :meth:`frame` is open (nested maintainers must not clobber
        their caller's buffers).
        """
        arena = self._arena()
        if arena.depth == 0:
            self._reset(arena)

    @staticmethod
    def _reset(arena: _ThreadArena) -> None:
        for key in arena.cursors:
            arena.cursors[key] = 0

    # -- inspection ------------------------------------------------------
    @property
    def allocations(self) -> int:
        """Buffers created, summed across every leasing thread."""
        return sum(a.allocations for a in self._snapshot_arenas())

    @property
    def leases(self) -> int:
        """Buffers handed out, summed across every leasing thread."""
        return sum(a.leases for a in self._snapshot_arenas())

    def nbytes(self) -> int:
        """Total bytes held across all pools (all threads)."""
        return sum(
            buf.nbytes
            for arena in self._snapshot_arenas()
            for pool in arena.pools.values()
            for buf in pool
        )

    def buffer_count(self) -> int:
        """Number of distinct buffers the arena owns (all threads)."""
        return sum(
            len(pool)
            for arena in self._snapshot_arenas()
            for pool in arena.pools.values()
        )

    def __repr__(self) -> str:
        return (
            f"Workspace(buffers={self.buffer_count()}, "
            f"nbytes={self.nbytes()}, allocations={self.allocations}, "
            f"leases={self.leases})"
        )


__all__ = ["Workspace"]
