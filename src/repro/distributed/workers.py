"""Persistent multiprocessing workers over shared-memory shards.

The multiprocess distributed engine: the coordinator is node 0 and
starts one persistent process for each other node, keeps each
maintained view in a shared-memory segment it creates
(:mod:`repro.distributed.shm`), sends every op to the workers over
per-worker Unix sockets, runs node 0's tiles itself, then gathers.
Only thin rank-k factors and thin gathered partials cross the pipes —
the ``O(n^2)`` view blocks never move, which is exactly LINVIEW's
Figure 3(g) argument, measured in a
:class:`~repro.distributed.comm.CommLog`.

Launch: a worker is a fresh interpreter, forked and exec'd at once
(a bare ``fork`` would duplicate OpenBLAS's thread-pool state and can
deadlock), that runs :data:`_BOOT` and nothing else: the launching
process's ``sys.path`` first, BLAS pinned to one thread before NumPy
loads, then :func:`~repro.distributed.node._worker_main` over the
socket it inherited.  That is the fork + exec the ``spawn`` start
method does, without its preparation data — so the launching program's
modules and top-level code never run in a worker, whatever it loaded —
and without its resource tracker, which nameless segments do not need
(:mod:`repro.distributed.shm`): a ``nodes=N`` cluster starts exactly
``N - 1`` processes.  Workers are still ``multiprocessing`` children
(:class:`_LeafProcess`): ``active_children()`` lists them, and
``is_alive`` / ``exitcode`` / ``terminate`` / ``join`` serve the
supervisor.  Every node runs its tiles on one BLAS thread (workers
boot so; node 0 pins the coordinator's OpenBLAS pool around its
tiles): the shards already divide the matrix, so nested BLAS threading
would only oversubscribe cores.  What each node computes, and why it
is bitwise the single-process result, is :mod:`repro.distributed.node`.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import socket
import sys
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from multiprocessing import popen_fork, process, util
from multiprocessing.connection import Connection

import numpy as np

from ..runtime.workspace import Workspace
from ..testing import faults
from .comm import BROADCAST, GATHER, CommLog
from .node import _execute, _worker_main
from .partitioner import RowShardPartitioner
from .shm import SHM_DIR, SharedArray

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

#: Environment knobs a worker pins to one BLAS thread.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: What a worker process runs (``python -c``), with ``argv`` its socket's
#: descriptor, which the entry is called with, and then the launching
#: process's ``sys.path``.
_BOOT = (
    "import os, sys\n"
    "os.environ.update(dict.fromkeys({blas!r}, '1'))\n"
    "sys.path[:0] = sys.argv[2:]\n"
    "from {module} import {function} as entry\n"
    "entry(int(sys.argv[1]))\n"
)

#: Most descriptors one ``SCM_RIGHTS`` message may carry (Linux).
_SCM_MAX_FD = 253

#: Serializes node 0's pinned ops: the BLAS thread count is per process,
#: so two clusters' pin / restore pairs must not interleave.
_PIN_LOCK = threading.Lock()


@functools.cache
def cluster_unsupported() -> str | None:
    """Why this system cannot run a :class:`ProcessCluster` — its views
    live in nameless ``/dev/shm`` segments — or ``None`` if it can."""
    if not hasattr(os, "O_TMPFILE"):
        return "no O_TMPFILE on this platform"
    try:
        os.close(os.open(SHM_DIR, os.O_TMPFILE | os.O_RDWR, 0o600))
    except OSError as exc:
        return f"cannot make a nameless file in {SHM_DIR}: {exc.strerror or exc}"
    return None


@functools.cache
def _openblas():
    """``(get, set)`` thread-count calls of the OpenBLAS NumPy loaded
    (``None``: none to pin), found as threadpoolctl finds them — by the
    mapped library's path, NumPy's own first, and exported names."""
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line}
    except OSError:
        return None
    ours = os.path.dirname(np.__file__)
    for path in sorted(paths, key=lambda path: not path.startswith(ours)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_{}_num_threads", "scipy_openblas_{}_num_threads64_"):
            if hasattr(lib, name.format("get")):
                get, put = getattr(lib, name.format("get")), getattr(lib, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


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


# -- launch --------------------------------------------------------------

class _LeafPopen(popen_fork.Popen):
    """Fork + exec a fresh interpreter on :data:`_BOOT`, passing it only
    the worker's socket and the write end of its sentinel pipe (which
    the parent sees close when the child exits)."""

    def _launch(self, process_obj) -> None:
        module, _, function = process_obj.entry.rpartition(".")
        boot = _BOOT.format(blas=_BLAS_VARS, module=module, function=function)
        sentinel, child_end = os.pipe()
        try:
            self.pid = util.spawnv_passfds(
                os.fsencode(sys.executable),
                [sys.executable, *util._args_from_interpreter_flags(),
                 "-c", boot, str(process_obj.fd), *sys.path],
                (process_obj.fd, child_end))
        except BaseException:
            os.close(sentinel)
            raise
        finally:
            os.close(child_end)
        self.sentinel = sentinel
        self.finalizer = util.Finalize(self, util.close_fds, (sentinel,))


class _LeafProcess(process.BaseProcess):
    """A ``multiprocessing`` child that runs ``entry`` (a function's
    dotted name) in a fresh interpreter over the socket ``fd``."""

    _Popen = staticmethod(_LeafPopen)

    def __init__(self, entry: str, fd: int, name: str):
        super().__init__(name=name, daemon=True)
        self.entry = entry
        self.fd = fd


def _send_fds(conn: Connection, fds: list[int]) -> int:
    """Pass ``fds`` over ``conn``'s socket behind the message just sent,
    on one-byte carriers; the bytes sent."""
    sent = 0
    sock = socket.socket(fileno=conn.fileno())
    try:
        sock.setblocking(True)  # undo a default timeout's O_NONBLOCK
        for start in range(0, len(fds), _SCM_MAX_FD):
            sent += socket.send_fds(sock, [b"\0"],
                                    fds[start:start + _SCM_MAX_FD])
    finally:
        sock.detach()
    return sent


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
    segments.clear()


class ProcessCluster:
    """Coordinator and node 0 of ``nodes``; nodes 1.. are spawned workers.

    Owns the shared-memory segments (their descriptors) and the
    per-worker sockets, and runs node 0's tiles between fan-out and
    gather.  All socket traffic is recorded into ``comm`` with real
    byte counts (pickled payload sizes, plus the one-byte carriers of
    an ``attach``'s descriptors) and real wall time.

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
    off (the default) when a failure should simply fail.  Node 0 raising
    poisons the cluster like a worker raising; it dies only with this
    process.
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
        self._workspace = Workspace()
        self._procs: list = [None] * self.nodes
        self._conns: list = [None] * self.nodes
        #: The segments each worker's current incarnation has mapped.
        self._held: list[set[str]] = [set() for _ in range(self.nodes)]
        #: Whether each worker's current incarnation has ever replied.
        self._replied = [False] * self.nodes
        self._closed = False
        # Registered before the first spawn: a failure spawning worker
        # k must not leak workers 1..k-1 and their pipes (slot 0 stays
        # ``None``: node 0 is this process).
        self._finalizer = weakref.finalize(
            self, _cleanup, self._procs, self._conns, self._segments,
            self._views,
        )
        try:
            for worker in range(1, self.nodes):
                self._spawn_worker(worker)
        except BaseException:
            self._finalizer()
            raise

    def _spawn_worker(self, worker: int) -> None:
        """(Re)start one worker process (:class:`_LeafProcess`) on
        :func:`_worker_main`, and write the tile bounds and the tiles it
        owns to its socket.

        Replaces the slot in place so the GC finalizer always sees the
        current incarnation.
        """
        ours, theirs = socket.socketpair()
        try:
            proc = _LeafProcess(
                f"{_worker_main.__module__}.{_worker_main.__qualname__}",
                theirs.fileno(), f"repro-shard-{worker}")
            proc.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        conn = Connection(ours.detach())
        self._procs[worker] = proc
        self._conns[worker] = conn
        self._held[worker] = set()
        self._replied[worker] = False
        try:
            conn.send_bytes(pickle.dumps(
                (tuple(self.partitioner.tile_bounds),
                 tuple(self.partitioner.shards[worker])),
                protocol=pickle.HIGHEST_PROTOCOL))
        except OSError:
            pass  # dead already: the first call reports its exit code

    def _send(self, worker: int, payload: bytes, op: tuple) -> int:
        """Send one pickled op to ``worker``; an ``attach`` carries the
        descriptors of the segments that incarnation has not mapped.
        Returns the carrier bytes sent beside ``payload``."""
        conn = self._conns[worker]
        conn.send_bytes(payload)
        if op[0] != "attach":
            return 0
        held = self._held[worker]
        new = [name for name, _ in op[1] if name not in held]
        held.update(new)
        return _send_fds(conn, [self._segments[name].fd for name in new])

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

    def _run_node0(self, op: tuple, label: str):
        """Node 0's share of ``op``, on one BLAS thread like a worker's.
        Its partials are workspace buffers, valid until the next op."""
        if op[0] not in ("add_lowrank", "mat_lowrank", "matT_lowrank"):
            return None  # attach / detach / ping: the segments are ours
        get, set_threads = _openblas() or (lambda: 1, lambda count: None)
        with _PIN_LOCK:
            threads, started = get(), time.perf_counter()
            try:
                set_threads(1)
                return _execute(op, self._views, self.partitioner.tile_bounds,
                                self.partitioner.shards[0], self._workspace)
            except Exception:
                self._fail(0, f"raised during {label!r}", traceback.format_exc())
            finally:
                set_threads(threads)
                self.worker_seconds[0] += time.perf_counter() - started

    def roundtrip(self, op: tuple, kind: str, label: str) -> dict:
        """Send one op to every worker, run node 0's share, gather.

        Records two comm events: the fan-out (``kind``) with the real
        pickled payload bytes per worker (and an ``attach``'s descriptor
        carriers), and the fan-in (``gather``)
        with the real reply bytes — both with measured wall time, and
        neither counting node 0, which ships nothing.

        Unsupervised, a worker failure poisons the cluster.  Supervised,
        the failed workers are recovered (respawn + reseed + replay +
        retry, see the class docstring) and the call completes as if
        nothing happened; the surviving workers' shard rows are
        untouched throughout, so state never regresses.
        """
        self._check_open()
        faults.fire("cluster.roundtrip", cluster=self, label=label)
        payload = pickle.dumps(op, protocol=pickle.HIGHEST_PROTOCOL)
        remote = range(1, self.nodes)
        started = time.perf_counter()
        failed: dict[int, str] = {}
        sent_bytes = len(payload) * len(remote)
        for worker in remote:
            try:
                sent_bytes += self._send(worker, payload, op)
            except (BrokenPipeError, OSError):
                reason = "pipe closed while sending (worker dead?)"
                if not self.supervise:
                    self._fail(worker, reason)
                failed[worker] = reason
        send_seconds = time.perf_counter() - started
        self.comm.record(kind, label, sent_bytes,
                         messages=len(remote), seconds=send_seconds)
        replies = {0: self._run_node0(op, label)}
        reply_bytes = 0
        started = time.perf_counter()
        for worker in remote:
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
                         messages=len(remote), seconds=gather_seconds)
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
        segment, in one message; (2) reseed the worker's own tile rows
        from the basis — pure copies, coordinator-side, erasing any torn
        partial write the dead incarnation left; (3) replay the oplog's
        completed refreshes *in the worker* (pinned single-thread BLAS,
        same kernels, same tile order as the lost incarnation ran them).
        Then the in-flight op is re-sent (an ``attach`` in flight finds
        every name mapped already).  Surviving workers already
        applied it to their disjoint rows, so after the retry every row
        of every view is exactly where a fault-free run would be.
        """
        sent_bytes = 0
        messages = 0
        recover_started = time.perf_counter()

        def send(message: tuple, blob: bytes, reason: str) -> None:
            nonlocal sent_bytes, messages
            try:
                sent_bytes += len(blob) + self._send(worker, blob, message)
            except (BrokenPipeError, OSError):
                raise _WorkerUnavailable(worker, reason)
            messages += 1

        def call(message: tuple):
            blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
            send(message, blob, "pipe closed during recovery")
            raw = self._try_recv(worker)
            reply = pickle.loads(raw)
            if reply[0] == "err":
                self._fail(worker, "raised during recovery replay", reply[1])
            return reply[2]

        call(self._attach_op())
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
        send(op, payload, "pipe closed during retry")
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
    def create(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        """A new zero-filled segment stored under ``name``; the workers
        see it from the next :meth:`attach` on."""
        self._check_open()
        if name in self._segments:
            raise ValueError(f"view {name!r} exists")
        seg = self._segments[name] = SharedArray.create(shape)
        self._views[name] = seg.array
        return seg.array

    def _attach_op(self) -> tuple:
        return ("attach", tuple((name, seg.shape)
                                for name, seg in self._segments.items()))

    def attach(self) -> None:
        """One roundtrip mapping every segment on every worker (names a
        worker holds already are kept; the others' descriptors travel
        with the message): when it returns, each worker sees every
        stored view."""
        self.roundtrip(self._attach_op(), BROADCAST, "attach")
        self._refresh_basis()

    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        """Store ``value`` under ``name`` in shared memory; the workers
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
            self._refresh_basis()
            return existing
        self.create(name, arr.shape)[...] = arr
        self.attach()
        return self._views[name]

    def get(self, name: str) -> np.ndarray:
        """The coordinator's zero-copy view of a stored matrix."""
        self._check_open()
        return self._views[name]

    def names(self):
        """Names of every view currently stored on the cluster."""
        return tuple(self._views)

    def free(self, name: str) -> None:
        """Release one view: workers detach, the segment is closed."""
        seg = self._segments.pop(name, None)
        if seg is None:
            return
        for held in self._held:
            held.discard(name)
        self._views.pop(name, None)
        self._basis.pop(name, None)
        self._oplog = [entry for entry in self._oplog if entry[0] != name]
        if self.failure is None and not self._closed:
            self.roundtrip(("detach", name), BROADCAST, "detach")
        seg.close()

    # -- lifecycle -------------------------------------------------------
    def ping(self) -> None:
        """Round-trip a no-op to every worker (liveness check)."""
        self.roundtrip(("ping",), BROADCAST, "ping")

    def _send_hook(self, worker: int, message: tuple) -> None:
        if worker == 0:
            raise ValueError("node 0 is the coordinator: it fails only "
                             "with this process")
        try:
            self._conns[worker].send_bytes(pickle.dumps(message))
        except (BrokenPipeError, OSError):
            pass

    def kill_worker(self, worker: int) -> None:
        """Test hook: make ``worker`` die abruptly (``os._exit``)."""
        self._send_hook(worker, ("die",))
        self._procs[worker].join(timeout=5.0)

    def hang_worker(self, worker: int, seconds: float = 3600.0) -> None:
        """Test hook: make ``worker`` go quiet for ``seconds`` (no reply).

        The next call's per-worker deadline (``timeout``) is what must
        notice; supervised clusters then terminate and recover the
        hung incarnation.
        """
        self._send_hook(worker, ("hang", float(seconds)))

    def close(self) -> None:
        """Stop the workers and release every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self.failure is None:
            payload = pickle.dumps(("exit",))
            for worker in range(1, self.nodes):
                try:
                    self._conns[worker].send_bytes(payload)
                except (BrokenPipeError, OSError):
                    pass
            for proc in self._procs[1:]:
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
]
