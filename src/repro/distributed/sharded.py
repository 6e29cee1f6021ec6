"""Sharded maintenance over the fixed-tile decomposition.

Two engines expose the same operations (``add_lowrank``,
``mat_lowrank``, ``matT_lowrank``) over views stored under names:

* :class:`ShardedEngine` — real multiprocess execution: views live in
  shared-memory segments, each :class:`~repro.distributed.workers.ProcessCluster`
  worker runs the per-tile kernels on its shard, factors move over
  pipes and are measured in ``engine.comm``.
* :class:`LocalShardEngine` — the single-process reference: identical
  per-tile kernels over the identical tile decomposition, in one
  process.  Because both engines execute the same kernel calls and sum
  ``matT_lowrank``'s per-tile partials in the same tile-index order,
  their results are **bitwise equal**, which is what the differential
  suite asserts.

Both keep an ``engine.model`` ledger of what the planner's comm model
*predicts* each op ships over the partitioner's ``nodes`` — the same
events on either engine — so tests assert modeled-vs-measured
agreement on the workers, and the node-count reports price clusters no
box can spawn on the in-process engine.

:class:`ShardBackend` puts either engine behind the
:class:`~repro.backends.base.Backend` kernel API: a trigger's lowered list
(:mod:`repro.compiler.codegen.fused`) is spelled once, and a sharded
session is that list on this backend.  The factored recurrence of the
paper's Appendix A — ``U_T = [uL | L_old @ uR + uL (vL' uR)]``,
``V_T = [R_old' vL | vR]``, all products on *old* view values, then
every view absorbs its rank-widened delta — is simply what the list
says for a chain; only thin ``(n x k)`` blocks ever cross a pipe.
:func:`unshardable` is the one check of whether a program's lists stay
inside the three tile kernels.
"""

from __future__ import annotations

import numpy as np

from ..backends import DenseBackend
from ..runtime.workspace import Workspace
from .comm import BROADCAST, GATHER, CommLog
from .partitioner import RowShardPartitioner
from .workers import (
    DEFAULT_TIMEOUT,
    ProcessCluster,
    lease_tile_stage,
    tile_add_lowrank,
    tile_matT_lowrank,
    tile_mat_lowrank,
)


def _factor(x: np.ndarray) -> np.ndarray:
    """Normalize a factor block to C-contiguous float64 ``(n, k)``."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class _ShardEngine:
    """What both engines share: the tile layout and its traffic ledgers.

    ``model`` records what the planner's comm model predicts each op
    ships over ``part`` — its node count, its tiles — so the in-process
    engine records the same events as the process engine over the same
    partitioner; ``comm`` holds measured traffic (none in process).
    """

    def __init__(self, partitioner: RowShardPartitioner):
        self.part = partitioner
        self.comm = CommLog()
        self.model = CommLog()

    def _model(self, op: str, *factors: np.ndarray) -> None:
        """Record ``op``'s modeled traffic: its factors broadcast to every
        node, then — for a product — the thin result gathered, one
        ``(n, k)`` partial per row tile under ``matT_lowrank``."""
        nodes = self.part.nodes
        self.model.record(BROADCAST, op, sum(f.nbytes for f in factors) * nodes,
                          messages=nodes)
        if op != "add_lowrank":
            tiles = self.part.n_tiles if op == "matT_lowrank" else 1
            self.model.record(GATHER, op,
                              tiles * self.part.n * factors[0].shape[1] * 8,
                              messages=nodes)


class ShardedEngine(_ShardEngine):
    """Multiprocess coordinator: named views in shm, ops fanned out.

    ``comm`` holds measured traffic (real pickled bytes, real seconds);
    ``model`` holds what the planner's comm model predicts for the same
    operations, so tests can assert modeled-vs-measured agreement.
    """

    def __init__(self, partitioner: RowShardPartitioner,
                 timeout: float = DEFAULT_TIMEOUT, supervise: bool = False):
        super().__init__(partitioner)
        self.cluster = ProcessCluster(partitioner, comm=self.comm,
                                      timeout=timeout, supervise=supervise)

    @property
    def nodes(self) -> int:
        return self.part.nodes

    @property
    def recoveries(self) -> list:
        """Logged worker recoveries (supervised clusters only)."""
        return self.cluster.recoveries

    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        return self.cluster.put(name, value)

    def get(self, name: str) -> np.ndarray:
        return self.cluster.get(name)

    def free(self, name: str) -> None:
        self.cluster.free(name)

    def add_lowrank(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        """``view += u @ v.T`` on every shard (factor pair broadcast)."""
        u, v = _factor(u), _factor(v)
        self._model("add_lowrank", u, v)
        self.cluster.roundtrip(("add_lowrank", name, u, v),
                               BROADCAST, "add_lowrank")

    def mat_lowrank(self, name: str, u: np.ndarray) -> np.ndarray:
        """``view @ u`` — broadcast ``u``, gather per-tile partial rows."""
        u = _factor(u)
        self._model("mat_lowrank", u)
        replies = self.cluster.roundtrip(("mat_lowrank", name, u),
                                         BROADCAST, "mat_lowrank")
        out = np.empty((self.part.n, u.shape[1]))
        for partials in replies.values():
            for t, block in partials.items():
                r0, r1 = self.part.tile_bounds[t]
                out[r0:r1] = block
        return out

    def matT_lowrank(self, name: str, v: np.ndarray) -> np.ndarray:
        """``view.T @ v`` — per *row* tile, one ``(n, k)`` partial each.

        A worker reads only the rows it owns; the gathered partials are
        summed in tile-index order, which depends on ``(n, tile_rows)``
        alone, so the result is bitwise the same for every node count
        and shard strategy.
        """
        v = _factor(v)
        self._model("matT_lowrank", v)
        replies = self.cluster.roundtrip(("matT_lowrank", name, v),
                                         BROADCAST, "matT_lowrank")
        partials = {t: block for reply in replies.values()
                    for t, block in reply.items()}
        out = np.zeros((self.part.n, v.shape[1]))
        for t in range(self.part.n_tiles):
            out += partials[t]
        return out

    def worker_seconds(self) -> list[float]:
        """Cumulative in-worker compute wall time, per worker."""
        return list(self.cluster.worker_seconds)

    def close(self) -> None:
        self.cluster.close()


class LocalShardEngine(_ShardEngine):
    """Single-process reference: same tiles, same kernels, no workers.

    ``model`` is priced for ``part.nodes``, not for this one process:
    the node-count reports read it for clusters no box can spawn.
    """

    def __init__(self, partitioner: RowShardPartitioner):
        super().__init__(partitioner)
        self.workspace = Workspace()
        self._views: dict[str, np.ndarray] = {}

    @property
    def nodes(self) -> int:
        return 1

    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(value, dtype=np.float64)
        if name in self._views:
            self._views[name][...] = arr
        else:
            self._views[name] = arr.copy() if arr is value else arr
        return self._views[name]

    def get(self, name: str) -> np.ndarray:
        return self._views[name]

    def free(self, name: str) -> None:
        self._views.pop(name, None)

    def add_lowrank(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        u, v = _factor(u), _factor(v)
        self._model("add_lowrank", u, v)
        view, vt = self._views[name], v.T
        bounds = self.part.tile_bounds
        with self.workspace.frame():
            stage = lease_tile_stage(self.workspace, bounds, vt.shape[1])
            for r0, r1 in bounds:
                tile_add_lowrank(view, r0, r1, u, vt, stage)

    def mat_lowrank(self, name: str, u: np.ndarray) -> np.ndarray:
        u = _factor(u)
        self._model("mat_lowrank", u)
        view = self._views[name]
        out = np.empty((self.part.n, u.shape[1]))
        with self.workspace.frame():
            for r0, r1 in self.part.tile_bounds:
                buf = self.workspace.lease(r1 - r0, u.shape[1])
                tile_mat_lowrank(view, r0, r1, u, buf)
                out[r0:r1] = buf
        return out

    def matT_lowrank(self, name: str, v: np.ndarray) -> np.ndarray:
        v = _factor(v)
        self._model("matT_lowrank", v)
        view = self._views[name]
        out = np.zeros((self.part.n, v.shape[1]))
        with self.workspace.frame():
            buf = self.workspace.lease(*out.shape)
            for r0, r1 in self.part.tile_bounds:
                tile_matT_lowrank(view, r0, r1, v, buf)
                out += buf
        return out

    def worker_seconds(self) -> list[float]:
        return [0.0]

    def close(self) -> None:
        self._views.clear()


# -- the engines behind the Backend API -----------------------------------

class ShardBackend(DenseBackend):
    """Trigger kernels over a shard engine, behind the ``Backend`` API.

    Operands are **stored views** (the arrays :meth:`put` returns: the
    engine's own storage, a shared-memory segment on a
    :class:`ShardedEngine`) or **thin** ``(n x k)`` blocks in this
    process, and the kernels dispatch on which:

    * stored view x thin — one ``mat_lowrank`` roundtrip;
    * its transpose (``view.T``, what a lowered list hoists) x thin —
      one ``matT_lowrank`` roundtrip;
    * ``add_outer`` / ``add_outer_inplace`` on a stored view — one
      ``add_lowrank`` roundtrip, noted in the apply log;
    * everything else — the inherited dense kernel, in this process.

    :func:`unshardable` refuses, before anything is built, a program
    whose lists would hand a stored view to any other kernel.

    The **apply log** is what a failure handler reads: ``began`` names
    every stored view whose ``add_lowrank`` was issued since
    :meth:`clear_log`, ``finished`` those that returned.  A view in
    ``began`` but not ``finished`` may hold torn rows; views in neither
    are untouched.

    Deliberately not registered under a name in :mod:`repro.backends`
    (it cannot exist without an engine) and reported as ``"dense"``:
    that is the representation, and what a plan built on it records.
    """

    def __init__(self, engine):
        self.rebind(engine)

    def rebind(self, engine) -> None:
        """Run on ``engine`` from now on; nothing is stored on it yet."""
        self.engine = engine
        self._names: dict[int, str] = {}
        self.clear_log()

    def clear_log(self) -> None:
        """Forget the applies noted so far (a new trigger firing)."""
        self.began: list[str] = []
        self.finished: list[str] = []

    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        """Store ``value`` on the engine (overwriting in place when the
        name exists); the returned array is the stored view."""
        stored = self.engine.put(name, value)
        self._names[id(stored)] = name
        return stored

    def close(self) -> None:
        """Close the engine; every operand is a thin block from now on."""
        self._names.clear()
        self.engine.close()

    def _stored(self, a) -> tuple[str, bool] | None:
        """``(name, transposed)`` when ``a`` is a stored view or its ``.T``."""
        name = self._names.get(id(a))
        if name is not None:
            return name, False
        base = getattr(a, "base", None)
        name = self._names.get(id(base))
        if name is not None and a.strides == base.strides[::-1]:
            return name, True
        return None

    def matmul_into(self, a, b, out):
        """``a @ b``; a stored ``a`` runs on the shards and the gathered
        result is a new array (use the returned object, not ``out``)."""
        held = self._stored(a)
        if held is None:
            return super().matmul_into(a, b, out)
        name, transposed = held
        if transposed:
            return self.engine.matT_lowrank(name, b)
        return self.engine.mat_lowrank(name, b)

    def add_outer(self, a, u: np.ndarray, v: np.ndarray):
        """``a += u @ v.T`` (also the inherited ``add_outer_inplace``):
        a stored view absorbs it shard by shard, logged."""
        held = self._stored(a)
        if held is None:
            return super().add_outer(a, u, v)
        name, _ = held
        self.began.append(name)
        self.engine.add_lowrank(name, u, v)
        self.finished.append(name)
        return a


def unshardable(program, rank: int) -> str | None:
    """Why no shard engine can maintain ``program`` — ``None`` if one can.

    The one "can this program shard" question, asked of the lowered
    lists a session compiles for updates of width ``rank``: every view
    shares one tile decomposition, so all are declared with one square
    shape; and a stored view (or its hoisted transpose)
    appears only where a tile kernel exists — as the left operand of a
    ``matmul`` with a thin block, or as the target of a factored
    ``outer`` apply.  ``inv`` of a view, a thin block left-multiplying
    one, a view-by-view product and a non-factored ``applyadd`` have no
    tile kernel.
    """
    from ..compiler.codegen.fused import lower_trigger
    from ..compiler.compile import compile_program

    symbols = [*program.inputs, *(stmt.target for stmt in program.statements)]
    if len({dim for sym in symbols for dim in sym.shape}) != 1:
        declared = ", ".join(f"{sym.name}{sym.shape}" for sym in symbols)
        return (f"sharded views share one tile decomposition and must be "
                f"square matrices of one order, got {declared}")
    for trigger in compile_program(program, rank=rank).values():
        lowered = lower_trigger(trigger)
        stored = set(lowered.views)
        for op in (*lowered.ops, *lowered.applies):
            held = [at for at, src in enumerate(op.srcs) if src in stored]
            if not held:
                continue
            if op.kernel == "transpose":
                stored.add(op.dst)
            elif held != [0] or op.kernel not in ("matmul", "outer"):
                operands = ", ".join(map(str, op.srcs))
                return (f"the trigger for {lowered.input_name} runs "
                        f"{op.kernel}({operands}) on a stored view, and "
                        f"tiles have kernels for view * thin, view' * thin "
                        f"and view += U * V' only")
    return None


__all__ = [
    "LocalShardEngine",
    "ShardBackend",
    "ShardedEngine",
    "unshardable",
]
