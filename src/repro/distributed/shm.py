"""Shared-memory block storage for the multiprocess engine.

Each maintained view lives in one POSIX shared-memory segment
(`multiprocessing.shared_memory.SharedMemory`); coordinator and workers
map NumPy views over the same buffer, so a worker's dgemm on its shard
reads and writes the view in place — zero bytes cross a pipe for the
big blocks, only thin rank-k factors do.

Lifecycle protocol (validated against CPython's ``resource_tracker``
semantics — getting this wrong either leaks ``/dev/shm`` blocks or
corrupts the tracker's registry):

* the **creating** process owns the segment: it alone calls
  :meth:`SharedArray.unlink` (after :meth:`close`);
* **attaching** processes (spawned workers) only :meth:`close` their
  mapping — they must never unlink or unregister.
"""

from __future__ import annotations

import errno
import sys
from multiprocessing import shared_memory

import numpy as np


class SharedMemoryBudgetError(OSError):
    """Shared-memory allocation failed for lack of space.

    Raised by :meth:`SharedArray.create` when the kernel refuses the
    segment (``ENOSPC``/``ENOMEM`` — a full ``/dev/shm`` tmpfs being
    the common cause), so callers see a typed, actionable error instead
    of a raw ``OSError`` from deep inside worker spawn.
    :func:`repro.runtime.session.open_session` catches it and falls
    back to a single-process plan with a warning.
    """

    def __init__(self, nbytes: int, cause: OSError):
        super().__init__(
            cause.errno,
            f"cannot allocate a {nbytes}-byte shared-memory segment: "
            f"{cause.strerror or cause} (is /dev/shm full?)",
        )
        self.nbytes = nbytes


#: Mappings kept alive past their :class:`SharedArray`'s lifetime
#: because an outside ndarray still points into them (see
#: :meth:`SharedArray.close`).  ``SharedMemory.__del__`` unmaps, so
#: dropping the object here would leave those arrays dangling; pinned
#: mappings persist until process exit (their *names* are unlinked, so
#: nothing outlives the process).
_pinned_mappings: list = []


class SharedArray:
    """A C-contiguous float64 matrix backed by a shared-memory segment."""

    def __init__(self, shm: shared_memory.SharedMemory,
                 shape: tuple[int, int], owner: bool):
        self._shm = shm
        self.shape = tuple(shape)
        self.owner = owner
        self._pinned = False
        self.array: np.ndarray | None = np.ndarray(
            self.shape, dtype=np.float64, buffer=shm.buf
        )

    @classmethod
    def create(cls, shape: tuple[int, int]) -> "SharedArray":
        """Allocate a new (zero-filled) segment sized for ``shape``.

        Raises :class:`SharedMemoryBudgetError` when the system is out
        of shared-memory space (``ENOSPC``/``ENOMEM``); other errors
        propagate untouched.
        """
        # Imported here: an attaching worker never creates, so its
        # boot does not load the fault seam.
        from ..testing import faults

        rows, cols = shape
        size = max(8 * rows * cols, 1)
        try:
            faults.fire("shm.create", nbytes=size, shape=shape)
            shm = shared_memory.SharedMemory(create=True, size=size)
        except OSError as exc:
            if exc.errno in (errno.ENOSPC, errno.ENOMEM):
                raise SharedMemoryBudgetError(size, exc) from exc
            raise
        return cls(shm, shape, owner=True)

    @classmethod
    def attach(cls, name: str, shape: tuple[int, int]) -> "SharedArray":
        """Map an existing segment by name (worker side)."""
        return cls(shared_memory.SharedMemory(name=name), shape, owner=False)

    @property
    def name(self) -> str:
        """The segment's system-wide name (what workers attach by)."""
        return self._shm.name

    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        Only unmaps when no other object references the array: NumPy
        keeps a plain object reference to the buffer, **not** a live
        buffer export, so ``mmap.close()`` would succeed and leave any
        surviving ``ndarray`` a dangling pointer (a segfault on next
        read).  When outside references exist the mapping stays alive
        until process exit, which is safe — ``unlink`` removes the
        name, so nothing leaks past the process either way.
        """
        array, self.array = self.array, None
        if array is not None and sys.getrefcount(array) > 2:
            # Held by a session view, a caller, or a derived slice:
            # keep the mapping; the name is (or will be) unlinked.  Pin
            # the SharedMemory object too — its __del__ unmaps, which
            # would dangle the surviving array once this SharedArray is
            # garbage-collected (e.g. cluster teardown on a worker
            # failure, with the session about to copy its views out).
            _pinned_mappings.append(self._shm)
            self._pinned = True
            return
        del array
        if self._pinned:
            return
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Remove the segment system-wide (owner only; idempotent)."""
        if not self.owner:
            return
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass


__all__ = ["SharedArray", "SharedMemoryBudgetError"]
