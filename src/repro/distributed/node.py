"""One node's side of the row-shard engine: the tile kernels and the
worker loop.

Every node runs :func:`_execute` over the tiles it owns — a spawned
worker from :func:`_worker_main`, node 0 (the coordinator, see
:mod:`repro.distributed.workers`) between fan-out and gather, and the
in-process reference engine over every tile — so this module is the
*single* source of truth of sharded arithmetic: the same kernel calls
over the same fixed tile decomposition
(:class:`~repro.distributed.partitioner.RowShardPartitioner`) make
sharded results bitwise equal to single-process results, not just
``allclose``.  Every op reads and writes only the rows of the tiles
its node owns — the paper's block-row layout, with no column copy;
the one arithmetic across tiles is the coordinator's tile-order sum of
``matT_lowrank`` partials.

:func:`_worker_main` is what a worker's fresh interpreter runs
(:mod:`repro.distributed.workers`), so this module's closure is a
worker's whole boot besides the interpreter and NumPy: the standard
library, :mod:`repro.runtime.workspace` and :mod:`repro.distributed.shm`
(``tools/check_import_closure.py`` gates it).
"""

from __future__ import annotations

import os
import pickle
import socket
import struct
import time

import numpy as np

from ..runtime.workspace import Workspace
from .shm import SharedArray


def lease_tile_stage(workspace: Workspace, bounds, cols: int) -> np.ndarray:
    """One staging buffer tall enough for every tile in ``bounds``: an
    op stages its tiles one after another, so one lease serves them all."""
    return workspace.lease(max((r1 - r0 for r0, r1 in bounds), default=0), cols)


def tile_add_lowrank(view: np.ndarray, r0: int, r1: int, u: np.ndarray,
                     vt: np.ndarray, stage: np.ndarray) -> None:
    """``view[r0:r1] += u[r0:r1] @ vt`` staged through ``stage``'s
    leading rows (:func:`lease_tile_stage`)."""
    prod = stage[:r1 - r0]
    np.matmul(u[r0:r1], vt, out=prod)
    view[r0:r1] += prod


def tile_mat_lowrank(view: np.ndarray, r0: int, r1: int, u: np.ndarray,
                     out: np.ndarray) -> None:
    """``out[:] = view[r0:r1] @ u`` (thin ``(r1-r0, k)`` partial)."""
    np.matmul(view[r0:r1], u, out=out)


def tile_matT_lowrank(view: np.ndarray, r0: int, r1: int, v: np.ndarray,
                      out: np.ndarray) -> None:
    """``out[:] = view[r0:r1].T @ v[r0:r1]`` — row tile ``[r0, r1)``'s
    full-size ``(n, k)`` partial of ``view.T @ v``.  The tiles' partials
    are summed in tile-index order by the caller, so every kernel reads
    only the rows of the tile it runs on."""
    np.matmul(view[r0:r1].T, v[r0:r1], out=out)


def _execute(op: tuple, views: dict, tile_bounds: tuple, owned: tuple,
             ws: Workspace):
    """Run one coordinator op against this node's shard."""
    kind = op[0]
    if kind == "ping":
        return None
    if kind == "add_lowrank":
        _, name, u, v = op
        view = views[name]
        vt = v.T
        bounds = [tile_bounds[t] for t in owned]
        with ws.frame():
            stage = lease_tile_stage(ws, bounds, vt.shape[1])
            for r0, r1 in bounds:
                tile_add_lowrank(view, r0, r1, u, vt, stage)
        return None
    if kind == "mat_lowrank":
        _, name, u = op
        view = views[name]
        k = u.shape[1]
        partials = {}
        with ws.frame():
            for t in owned:
                r0, r1 = tile_bounds[t]
                buf = ws.lease(r1 - r0, k)
                tile_mat_lowrank(view, r0, r1, u, buf)
                partials[t] = buf
            # Pickled into the reply before the next op reuses the
            # leased buffers, so returning them out of the frame is
            # safe.
            return partials
    if kind == "matT_lowrank":
        _, name, v = op
        view = views[name]
        partials = {}
        with ws.frame():
            for t in owned:
                r0, r1 = tile_bounds[t]
                buf = ws.lease(view.shape[1], v.shape[1])
                tile_matT_lowrank(view, r0, r1, v, buf)
                partials[t] = buf
            return partials
    raise ValueError(f"unknown worker op {kind!r}")


class _Socket:
    """A worker's end of its socket, framed as the coordinator's
    :class:`multiprocessing.connection.Connection` frames (``!i`` length,
    or ``-1`` then ``!Q``), with no :mod:`multiprocessing` import."""

    def __init__(self, fd: int):
        self.sock = socket.socket(fileno=fd)

    def _read(self, size: int) -> bytearray:
        buf = bytearray(size)
        view, got = memoryview(buf), 0
        while got < size:
            count = self.sock.recv_into(view[got:])
            if not count:
                raise EOFError("the coordinator closed the socket")
            got += count
        return buf

    def recv_bytes(self) -> bytearray:
        size, = struct.unpack("!i", self._read(4))
        if size == -1:
            size, = struct.unpack("!Q", self._read(8))
        return self._read(size)

    def send_bytes(self, data: bytes) -> None:
        self.sock.sendall(struct.pack("!i", len(data)) + data)


def _map_segments(op: tuple, conn: _Socket, segments: dict,
                  views: dict) -> None:
    """``attach`` / ``detach``: map or drop shared segments."""
    if op[0] == "detach":
        views.pop(op[1], None)
        seg = segments.pop(op[1], None)
        if seg is not None:
            seg.close()
        return
    # Every segment the coordinator holds, in one message; a name
    # already mapped is kept (a recovery re-attaches all of them).  The
    # others' descriptors follow on one-byte carriers, in that order.
    new = [(name, shape) for name, shape in op[1] if name not in segments]
    fds: list[int] = []
    while len(fds) < len(new):
        data, got, _, _ = socket.recv_fds(conn.sock, 1, len(new) - len(fds))
        if not data:
            raise EOFError("the coordinator closed the socket mid-attach")
        fds += got
    for (name, shape), fd in zip(new, fds):
        segments[name] = SharedArray.attach(fd, shape)
        views[name] = segments[name].array


def _worker_main(fd: int) -> None:
    """Worker loop over the socket ``fd``: read the tile bounds and the
    tiles this node owns, then recv op, execute on the shard, reply
    (ok|err) until ``exit`` or the coordinator is gone.  The process
    ends right after, and its mappings and descriptors with it."""
    conn = _Socket(fd)
    ws = Workspace()
    segments: dict[str, SharedArray] = {}
    views: dict[str, np.ndarray] = {}
    tile_bounds, owned = pickle.loads(conn.recv_bytes())
    while True:
        try:
            op = pickle.loads(conn.recv_bytes())
        except (EOFError, OSError):
            return
        kind = op[0]
        if kind == "exit":
            return
        if kind == "die":
            # Test hook: crash without cleanup, as a real fault would.
            os._exit(17)
        if kind == "hang":
            # Test hook: go quiet without replying, as a livelock
            # would — the supervisor's deadline must catch this.
            time.sleep(op[1])
            continue
        try:
            started = time.perf_counter()
            if kind in ("attach", "detach"):
                data = _map_segments(op, conn, segments, views)
            else:
                data = _execute(op, views, tile_bounds, owned, ws)
            reply = ("ok", time.perf_counter() - started, data)
        except Exception:
            import traceback  # only a failing op pays for it

            reply = ("err", traceback.format_exc())
        try:
            conn.send_bytes(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            return


__all__ = [
    "lease_tile_stage",
    "tile_add_lowrank",
    "tile_matT_lowrank",
    "tile_mat_lowrank",
]
