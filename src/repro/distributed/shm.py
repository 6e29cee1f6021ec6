"""Shared-memory block storage for the multiprocess engine.

Each maintained view lives in one nameless segment: a file opened with
``O_TMPFILE`` in the ``/dev/shm`` tmpfs, which never has a name.  The
coordinator keeps each segment's descriptor for the cluster's life and
passes it to a worker with the ``attach`` that maps it
(:mod:`repro.distributed.workers`); every node maps NumPy views over the
same pages, so a worker's dgemm on its shard reads and writes the view
in place and only thin rank-k factors cross a pipe.  Nothing is ever
unlinked or tracked: the pages are freed when their last descriptor and
mapping close, which a dying process (SIGKILL too) does for its own.
A segment reserves its pages at create (``posix_fallocate``), so a
``/dev/shm`` too small for it fails there, not with a SIGBUS at a later
write (``os.memfd_create``'s mount has no size limit to fail on).
"""

from __future__ import annotations

import errno
import mmap
import os
import sys

import numpy as np

#: The tmpfs the segments are made in.
SHM_DIR = "/dev/shm"


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


def _nbytes(shape: tuple[int, int]) -> int:
    rows, cols = shape
    return max(8 * rows * cols, 1)


class SharedArray:
    """A C-contiguous float64 matrix backed by a shared-memory segment.

    ``fd`` is the segment's descriptor in the process that created it
    (what an ``attach`` passes on) and ``None`` in one that mapped a
    received descriptor, which it closes once mapped.
    """

    def __init__(self, buf: mmap.mmap, shape: tuple[int, int],
                 fd: int | None = None):
        self._mmap = buf
        self.shape = tuple(shape)
        self.fd = fd
        self.array: np.ndarray | None = np.ndarray(
            self.shape, dtype=np.float64, buffer=buf
        )

    @classmethod
    def create(cls, shape: tuple[int, int]) -> "SharedArray":
        """Allocate and reserve a new (zero-filled) segment for ``shape``.

        Raises :class:`SharedMemoryBudgetError` when the system is out
        of shared-memory space (``ENOSPC``/``ENOMEM``); other errors
        propagate untouched.
        """
        # Imported here: an attaching worker never creates, so its
        # boot does not load the fault seam.
        from ..testing import faults

        size = _nbytes(shape)
        fd = None
        try:
            faults.fire("shm.create", nbytes=size, shape=shape)
            fd = os.open(SHM_DIR, os.O_TMPFILE | os.O_RDWR, 0o600)
            os.posix_fallocate(fd, 0, size)  # sizes the file, every page held
            buf = mmap.mmap(fd, size)
        except OSError as exc:
            if fd is not None:
                os.close(fd)
            if exc.errno in (errno.ENOSPC, errno.ENOMEM):
                raise SharedMemoryBudgetError(size, exc) from exc
            raise
        return cls(buf, shape, fd)

    @classmethod
    def attach(cls, fd: int, shape: tuple[int, int]) -> "SharedArray":
        """Map a segment by a received descriptor (worker side); the
        descriptor is closed once mapped."""
        try:
            return cls(mmap.mmap(fd, _nbytes(shape)), shape)
        finally:
            os.close(fd)

    def close(self) -> None:
        """Drop this process's descriptor and mapping (idempotent).

        Only unmaps when no other object references the array: NumPy
        keeps a plain reference to the buffer, not a buffer export, so
        ``mmap.close()`` would succeed and leave a surviving ``ndarray``
        dangling (a segfault on next read).  Referenced (a session view,
        a caller, a derived slice), the mapping closes with the last
        array over it instead.
        """
        fd, self.fd = self.fd, None
        if fd is not None:
            os.close(fd)
        array, self.array = self.array, None
        buf, self._mmap = self._mmap, None
        if buf is None or sys.getrefcount(array) > 2:
            return
        del array
        buf.close()


__all__ = ["SharedArray", "SharedMemoryBudgetError"]
