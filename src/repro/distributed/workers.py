"""Persistent multiprocessing workers over shared-memory shards.

The multiprocess distributed engine: a coordinator spawns one
persistent process per node, ships each maintained view into a
shared-memory segment (:mod:`repro.distributed.shm`), and drives the
workers over per-worker duplex pipes.  Only thin rank-k factors and
thin gathered partials cross the pipes — the ``O(n^2)`` view blocks
never move, which is exactly LINVIEW's Figure 3(g) argument, now
measured in real bytes and real seconds in a
:class:`~repro.distributed.comm.CommLog`.

Start method: always ``spawn`` (:data:`START_METHOD` — the only safe
choice once BLAS threads exist in the parent: ``fork`` duplicates
OpenBLAS's thread pool state and can deadlock).  A worker's entry is
:func:`_worker_main` and nothing else: it is spawned with no main
module to re-import, so its boot is the interpreter, NumPy and this
module's closure whatever the launching program loaded, and that
program's top-level code runs once.  Workers are spawned with BLAS
pinned to one thread: the shards already divide the matrix, so nested
BLAS threading would only oversubscribe cores.

Bit-identity: the per-tile kernels below are the *single* source of
truth — the in-process reference engine and the worker loop call the
same functions over the same fixed tile decomposition
(:class:`~repro.distributed.partitioner.RowShardPartitioner`), so
sharded results are bitwise equal to single-process results, not just
``allclose``.  Every op reads and writes only the rows of the tiles
its worker owns — the paper's block-row layout, with no column copy;
the one arithmetic across tiles is the coordinator's tile-order sum of
``matT_lowrank`` partials.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import sys
import threading
import time
import traceback
import types
import weakref
from dataclasses import dataclass

import numpy as np

from ..runtime.workspace import Workspace
from ..testing import faults
from .comm import BROADCAST, GATHER, CommLog
from .partitioner import RowShardPartitioner
from .shm import SharedArray

#: How worker processes start (see the module docstring: not a knob).
START_METHOD = "spawn"

#: Seconds the coordinator waits on a worker reply before declaring it
#: hung (a dead worker is detected much faster via ``is_alive``).
DEFAULT_TIMEOUT = 120.0

#: Supervised recovery: respawn attempts per failed call, and the
#: capped exponential backoff between them.
DEFAULT_MAX_RETRIES = 2
DEFAULT_BACKOFF = 0.05
DEFAULT_BACKOFF_CAP = 1.0
#: Completed factored refreshes retained for recovery replay before the
#: coordinator refreshes its basis copy instead (bounds both the replay
#: cost of a recovery and the log's memory).
DEFAULT_OPLOG_LIMIT = 64

#: Environment knobs pinned to one BLAS thread in spawned workers.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: Serializes spawns: each one borrows ``os.environ`` and
#: ``sys.modules["__main__"]``, which every thread shares.
_SPAWN_LOCK = threading.Lock()


class WorkerFailedError(RuntimeError):
    """A worker died, hung, or raised; the cluster is poisoned.

    Carries the worker index and, when the worker managed to report it,
    the remote traceback — so the coordinator-side exception reads like
    the worker's own crash instead of an opaque pipe error.
    """

    def __init__(self, worker: int, reason: str,
                 worker_traceback: str | None = None):
        message = f"worker {worker} failed: {reason}"
        if worker_traceback:
            message += "\n--- worker traceback ---\n" + worker_traceback
        super().__init__(message)
        self.worker = worker
        self.reason = reason
        self.traceback = worker_traceback


class _WorkerUnavailable(Exception):
    """Internal: one worker cannot answer (dead, hung, or pipe gone).

    The supervised path turns this into a recovery; the unsupervised
    path turns it into :class:`WorkerFailedError` + poison.
    """

    def __init__(self, worker: int, reason: str):
        super().__init__(reason)
        self.worker = worker
        self.reason = reason


@dataclass(frozen=True)
class RecoveryEvent:
    """One logged worker recovery (what a ``kill -9`` becomes)."""

    worker: int            #: index of the recovered worker
    label: str             #: op in flight when the failure was detected
    reason: str            #: what the supervisor observed (died/hung/...)
    attempts: int          #: respawns needed (1 = first respawn worked)
    replayed: int          #: oplog refreshes replayed into the new shard
    restored_views: int    #: views whose shard rows were reseeded
    seconds: float         #: wall time from detection to recovery


# -- per-tile kernels (shared by worker processes and the in-process
# -- reference engine; identical calls => bitwise identical views) ------

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


# -- worker process ------------------------------------------------------

def _execute(op: tuple, views: dict, segments: dict,
             tile_bounds: tuple, owned: tuple, ws: Workspace):
    """Run one coordinator op against this worker's shard."""
    kind = op[0]
    if kind == "ping":
        return None
    if kind == "attach":
        _, name, shm_name, shape = op
        seg = SharedArray.attach(shm_name, shape)
        segments[name] = seg
        views[name] = seg.array
        return None
    if kind == "detach":
        _, name = op
        views.pop(name, None)
        seg = segments.pop(name, None)
        if seg is not None:
            seg.close()
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


def _worker_main(conn, worker_id: int, tile_bounds: tuple,
                 owned: tuple) -> None:
    """Worker loop: recv op, execute on the shard, reply (ok|err)."""
    ws = Workspace()
    segments: dict[str, SharedArray] = {}
    views: dict[str, np.ndarray] = {}
    try:
        while True:
            try:
                payload = conn.recv_bytes()
            except (EOFError, OSError):
                break
            op = pickle.loads(payload)
            kind = op[0]
            if kind == "exit":
                try:
                    conn.send_bytes(pickle.dumps(("ok", 0.0, None)))
                except (BrokenPipeError, OSError):
                    pass
                break
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
                data = _execute(op, views, segments, tile_bounds, owned, ws)
                reply = ("ok", time.perf_counter() - started, data)
            except Exception:
                reply = ("err", traceback.format_exc())
            try:
                conn.send_bytes(
                    pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
                )
            except (BrokenPipeError, OSError):
                break
    finally:
        # Attach side of the shm protocol: close mappings, never unlink.
        for seg in segments.values():
            seg.close()
        try:
            conn.close()
        except OSError:
            pass


# -- coordinator ---------------------------------------------------------

def _cleanup(procs, conns, segments, views=None) -> None:
    """Best-effort teardown shared by close(), failure, and GC.

    The coordinator's view dict is cleared *before* the segments close
    so the unmap-safety refcount check in :meth:`SharedArray.close`
    sees only references the caller still holds.
    """
    # A slot is ``None`` until its worker has been spawned.
    procs = [proc for proc in procs if proc is not None]
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=1.0)
    for conn in conns:
        if conn is None:
            continue
        try:
            conn.close()
        except OSError:
            pass
    if views is not None:
        views.clear()
    for seg in list(segments.values()):
        seg.close()
        seg.unlink()
    segments.clear()


class ProcessCluster:
    """Coordinator over ``nodes`` persistent spawned workers.

    Owns the shared-memory segments (creator side of the shm protocol)
    and the per-worker pipes.  All traffic is recorded into ``comm``
    with real byte counts (pickled payload sizes) and real wall time.

    A worker failure — crash, raised exception, hang past ``timeout``
    or a dropped pipe — raises :class:`WorkerFailedError`, terminates
    the remaining workers, releases every segment, and poisons the
    cluster: every later call re-raises instead of hanging.

    With ``supervise=True`` the coordinator instead *recovers*: the
    dead (or hung — terminated) worker is respawned with capped
    exponential backoff, its shard rows are reseeded from the
    coordinator's basis copy of every view, the completed factored
    refreshes since that basis are replayed **inside the respawned
    worker** (same pinned single-thread BLAS, same tile kernels, same
    order — so the rebuilt shard is bitwise identical to an unfailed
    one), the in-flight op is retried, and a :class:`RecoveryEvent` is
    appended to ``recoveries``.  Only exhausted retries — or a worker
    *raising* (a deterministic application error, which a respawn would
    just repeat) — poison the cluster.  Supervision costs one
    coordinator-side copy of every view plus a bounded oplog; leave it
    off (the default) when a failure should simply fail.
    """

    def __init__(self, partitioner: RowShardPartitioner,
                 comm: CommLog | None = None,
                 timeout: float = DEFAULT_TIMEOUT, supervise: bool = False):
        self.partitioner = partitioner
        self.nodes = partitioner.nodes
        self.comm = comm if comm is not None else CommLog()
        self.timeout = timeout
        self.supervise = bool(supervise)
        self.failure: WorkerFailedError | None = None
        self.worker_seconds = [0.0] * self.nodes
        #: Logged :class:`RecoveryEvent`\s (supervised clusters only).
        self.recoveries: list[RecoveryEvent] = []
        self._basis: dict[str, np.ndarray] = {}
        self._oplog: list[tuple[str, np.ndarray, np.ndarray]] = []
        self._segments: dict[str, SharedArray] = {}
        self._views: dict[str, np.ndarray] = {}
        self._procs: list = [None] * self.nodes
        self._conns: list = [None] * self.nodes
        #: Whether each worker's current incarnation has ever replied.
        self._replied = [False] * self.nodes
        self._closed = False
        self._ctx = mp.get_context(START_METHOD)
        # Registered before the first spawn: a failure spawning worker
        # k must not leak workers 0..k-1 and their pipes.
        self._finalizer = weakref.finalize(
            self, _cleanup, self._procs, self._conns, self._segments,
            self._views,
        )
        try:
            for worker in range(self.nodes):
                self._spawn_worker(worker)
        except BaseException:
            self._finalizer()
            raise

    def _spawn_worker(self, worker: int) -> None:
        """(Re)spawn one worker process with BLAS pinned to one thread.

        ``spawn`` re-imports whatever ``sys.modules["__main__"]`` names
        in the child, so for the duration of ``start()`` that is an
        empty module: the child runs :func:`_worker_main` and never the
        launching program.  Replaces the slot in place so the GC
        finalizer always sees the current incarnation.
        """
        with _SPAWN_LOCK:
            main = sys.modules["__main__"]
            saved = {var: os.environ.get(var) for var in _BLAS_VARS}
            sys.modules["__main__"] = types.ModuleType("__main__")
            for var in _BLAS_VARS:
                os.environ[var] = "1"
            try:
                parent_conn, child_conn = self._ctx.Pipe()
                proc = self._ctx.Process(
                    target=_worker_main,
                    args=(child_conn, worker,
                          tuple(self.partitioner.tile_bounds),
                          tuple(self.partitioner.shards[worker])),
                    daemon=True, name=f"repro-shard-{worker}",
                )
                proc.start()
                child_conn.close()
                self._procs[worker] = proc
                self._conns[worker] = parent_conn
                self._replied[worker] = False
            finally:
                sys.modules["__main__"] = main
                for var, value in saved.items():
                    if value is None:
                        os.environ.pop(var, None)
                    else:
                        os.environ[var] = value

    # -- failure handling ------------------------------------------------
    def _fail(self, worker: int, reason: str, tb: str | None = None):
        proc = self._procs[worker]
        if tb is None and not self._replied[worker]:
            proc.join(timeout=1.0)
            if proc.exitcode is not None:
                # The real cause is only on the child's stderr.
                reason = (f"worker process exited with code {proc.exitcode} "
                          f"before its first reply ({reason})")
        error = WorkerFailedError(worker, reason, tb)
        self.failure = error
        self._finalizer()
        raise error

    def _check_open(self) -> None:
        if self.failure is not None:
            raise WorkerFailedError(
                self.failure.worker,
                "cluster poisoned by an earlier worker failure",
                self.failure.traceback,
            )
        if self._closed:
            raise RuntimeError("cluster is closed")

    def _try_recv(self, worker: int) -> bytes:
        """One worker's reply bytes, or :class:`_WorkerUnavailable`."""
        conn, proc = self._conns[worker], self._procs[worker]
        deadline = time.perf_counter() + self.timeout
        while True:
            if conn.poll(0.05):
                try:
                    raw = conn.recv_bytes()
                except (EOFError, OSError):
                    raise _WorkerUnavailable(worker, "pipe closed mid-reply")
                self._replied[worker] = True
                return raw
            if not proc.is_alive():
                raise _WorkerUnavailable(
                    worker,
                    f"worker process died (exit code {proc.exitcode})",
                )
            if time.perf_counter() > deadline:
                raise _WorkerUnavailable(
                    worker, f"no reply within {self.timeout}s (hung?)")

    def roundtrip(self, op: tuple, kind: str, label: str) -> dict:
        """Broadcast one op to every worker and gather the replies.

        Records two comm events: the fan-out (``kind``) with the real
        pickled payload bytes per worker, and the fan-in (``gather``)
        with the real reply bytes — both with measured wall time.

        Unsupervised, a worker failure poisons the cluster.  Supervised,
        the failed workers are recovered (respawn + reseed + replay +
        retry, see the class docstring) and the call completes as if
        nothing happened; the surviving workers' shard rows are
        untouched throughout, so state never regresses.
        """
        self._check_open()
        faults.fire("cluster.roundtrip", cluster=self, label=label)
        payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        started = time.perf_counter()
        failed: dict[int, str] = {}
        for worker in range(self.nodes):
            try:
                self._conns[worker].send_bytes(payload)
            except (BrokenPipeError, OSError):
                reason = "pipe closed while sending (worker dead?)"
                if not self.supervise:
                    self._fail(worker, reason)
                failed[worker] = reason
        send_seconds = time.perf_counter() - started
        self.comm.record(kind, label, len(payload) * self.nodes,
                         messages=self.nodes, seconds=send_seconds)
        replies = {}
        reply_bytes = 0
        started = time.perf_counter()
        for worker in range(self.nodes):
            if worker in failed:
                continue
            try:
                raw = self._try_recv(worker)
            except _WorkerUnavailable as exc:
                if not self.supervise:
                    self._fail(exc.worker, exc.reason)
                failed[worker] = exc.reason
                continue
            reply = pickle.loads(raw)
            if reply[0] == "err":
                self._fail(worker, f"raised during {label!r}", reply[1])
            _, seconds, data = reply
            self.worker_seconds[worker] += seconds
            reply_bytes += len(raw)
            replies[worker] = data
        gather_seconds = time.perf_counter() - started
        self.comm.record(GATHER, label, reply_bytes,
                         messages=self.nodes, seconds=gather_seconds)
        for worker, reason in failed.items():
            replies[worker] = self._recover_worker(worker, reason, op,
                                                   payload, label)
        if self.supervise and op[0] == "add_lowrank":
            self._log_refresh(op)
        return replies

    # -- supervision -----------------------------------------------------
    def _refresh_basis(self) -> None:
        """Re-copy every view into the recovery basis; drop the oplog."""
        if not self.supervise:
            return
        self._basis = {name: np.array(view)
                       for name, view in self._views.items()}
        self._oplog.clear()

    def _log_refresh(self, op: tuple) -> None:
        """Append one completed factored refresh to the recovery oplog."""
        _, name, u, v = op
        self._oplog.append((name, np.array(u), np.array(v)))
        if len(self._oplog) > DEFAULT_OPLOG_LIMIT:
            self._refresh_basis()

    def _retire_worker(self, worker: int) -> None:
        """Make sure a failed incarnation is dead and its pipe closed.

        A *hung* worker is still alive and would otherwise wake up later
        and apply a stale op to rows its successor now owns — terminate
        before respawning, escalating to SIGKILL if need be.
        """
        proc, conn = self._procs[worker], self._conns[worker]
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=2.0)
        try:
            conn.close()
        except OSError:
            pass

    def _recover_worker(self, worker: int, reason: str, op: tuple,
                        payload: bytes, label: str):
        """Respawn + reseed + replay + retry one failed worker.

        Returns the retried op's reply data.  Exhausted retries poison
        the cluster like an unsupervised failure would.
        """
        started = time.perf_counter()
        self._retire_worker(worker)
        if not self.supervise:
            self._fail(worker, reason)
        last_reason = reason
        for attempt in range(DEFAULT_MAX_RETRIES + 1):
            if attempt:
                time.sleep(min(DEFAULT_BACKOFF * (2 ** (attempt - 1)),
                               DEFAULT_BACKOFF_CAP))
            self._spawn_worker(worker)
            try:
                data = self._rebuild_worker(worker, op, payload, label)
            except _WorkerUnavailable as exc:
                last_reason = exc.reason
                self._retire_worker(worker)
                continue
            self.recoveries.append(RecoveryEvent(
                worker=worker, label=label, reason=reason,
                attempts=attempt + 1, replayed=len(self._oplog),
                restored_views=len(self._basis),
                seconds=time.perf_counter() - started,
            ))
            return data
        self._fail(
            worker,
            f"unrecoverable after {DEFAULT_MAX_RETRIES + 1} respawn attempts "
            f"({last_reason}); first failure: {reason}",
        )

    def _rebuild_worker(self, worker: int, op: tuple, payload: bytes,
                        label: str):
        """Bring a freshly spawned worker to the pre-op state, retry.

        Three phases, each bitwise-safe: (1) re-attach every live
        segment; (2) reseed the worker's own tile rows from the basis —
        pure copies, coordinator-side, erasing any torn partial write
        the dead incarnation left; (3) replay the oplog's completed
        refreshes *in the worker* (pinned single-thread BLAS, same
        kernels, same tile order as the lost incarnation ran them).
        Then the in-flight op is re-sent.  Surviving workers already
        applied it to their disjoint rows, so after the retry every row
        of every view is exactly where a fault-free run would be.
        """
        conn = self._conns[worker]
        sent_bytes = 0
        messages = 0
        recover_started = time.perf_counter()

        def call(message: tuple):
            nonlocal sent_bytes, messages
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            try:
                conn.send_bytes(blob)
            except (BrokenPipeError, OSError):
                raise _WorkerUnavailable(
                    worker, "pipe closed during recovery")
            sent_bytes += len(blob)
            messages += 1
            raw = self._try_recv(worker)
            reply = pickle.loads(raw)
            if reply[0] == "err":
                self._fail(worker, "raised during recovery replay", reply[1])
            return reply[2]

        # An in-flight attach re-attaches via the retried op itself.
        skip_attach = op[1] if op[0] == "attach" else None
        for name, seg in self._segments.items():
            if name == skip_attach:
                continue
            call(("attach", name, seg.name, seg.shape))
        owned = self.partitioner.shards[worker]
        bounds = self.partitioner.tile_bounds
        for name, block in self._basis.items():
            view = self._views.get(name)
            if view is None:
                continue
            for t in owned:
                r0, r1 = bounds[t]
                view[r0:r1] = block[r0:r1]
        for name, u, v in self._oplog:
            call(("add_lowrank", name, u, v))
        try:
            conn.send_bytes(payload)
        except (BrokenPipeError, OSError):
            raise _WorkerUnavailable(worker, "pipe closed during retry")
        sent_bytes += len(payload)
        messages += 1
        raw = self._try_recv(worker)
        reply = pickle.loads(raw)
        if reply[0] == "err":
            self._fail(worker, f"raised during {label!r}", reply[1])
        _, seconds, data = reply
        self.worker_seconds[worker] += seconds
        self.comm.record(BROADCAST, "recover", sent_bytes,
                         messages=messages,
                         seconds=time.perf_counter() - recover_started)
        return data

    # -- shared-memory views ---------------------------------------------
    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        """Store ``value`` under ``name`` in shared memory; all workers
        attach.  Overwrites in place if the name already exists."""
        self._check_open()
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"expected a matrix, got shape {arr.shape}")
        if name in self._segments:
            existing = self._views[name]
            if existing.shape != arr.shape:
                raise ValueError(
                    f"view {name!r} exists with shape {existing.shape}, "
                    f"cannot overwrite with {arr.shape}"
                )
            existing[...] = arr
            if self.supervise:
                self._refresh_basis()
            return existing
        seg = SharedArray.create(arr.shape)
        seg.array[...] = arr
        self._segments[name] = seg
        self._views[name] = seg.array
        self.roundtrip(("attach", name, seg.name, arr.shape),
                       BROADCAST, "attach")
        if self.supervise:
            self._refresh_basis()
        return seg.array

    def get(self, name: str) -> np.ndarray:
        """The coordinator's zero-copy view of a stored matrix."""
        self._check_open()
        return self._views[name]

    def names(self):
        """Names of every view currently stored on the cluster."""
        return tuple(self._views)

    def free(self, name: str) -> None:
        """Release one view: workers detach, the segment is unlinked."""
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        self._views.pop(name, None)
        self._basis.pop(name, None)
        self._oplog = [entry for entry in self._oplog if entry[0] != name]
        if self.failure is None and not self._closed:
            self.roundtrip(("detach", name), BROADCAST, "detach")
        seg.close()
        seg.unlink()

    # -- lifecycle -------------------------------------------------------
    def ping(self) -> None:
        """Round-trip a no-op to every worker (liveness check)."""
        self.roundtrip(("ping",), BROADCAST, "ping")

    def kill_worker(self, worker: int) -> None:
        """Test hook: make ``worker`` die abruptly (``os._exit``)."""
        try:
            self._conns[worker].send_bytes(pickle.dumps(("die",)))
        except (BrokenPipeError, OSError):
            pass
        self._procs[worker].join(timeout=5.0)

    def hang_worker(self, worker: int, seconds: float = 3600.0) -> None:
        """Test hook: make ``worker`` go quiet for ``seconds`` (no reply).

        The next call's per-worker deadline (``timeout``) is what must
        notice; supervised clusters then terminate and recover the
        hung incarnation.
        """
        try:
            self._conns[worker].send_bytes(
                pickle.dumps(("hang", float(seconds))))
        except (BrokenPipeError, OSError):
            pass

    def close(self) -> None:
        """Stop the workers and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.failure is None:
            payload = pickle.dumps(("exit",))
            for worker in range(self.nodes):
                try:
                    self._conns[worker].send_bytes(payload)
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs:
                proc.join(timeout=2.0)
        self._finalizer()


__all__ = [
    "DEFAULT_BACKOFF",
    "DEFAULT_BACKOFF_CAP",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_OPLOG_LIMIT",
    "DEFAULT_TIMEOUT",
    "ProcessCluster",
    "RecoveryEvent",
    "WorkerFailedError",
    "lease_tile_stage",
    "tile_add_lowrank",
    "tile_matT_lowrank",
    "tile_mat_lowrank",
]
