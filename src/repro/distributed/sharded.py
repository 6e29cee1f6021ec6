"""Sharded maintenance over the fixed-tile decomposition.

Two engines expose the same operations (``add_lowrank``,
``mat_lowrank``, ``matT_lowrank``) over views stored under names:

* :class:`ShardedEngine` — real multiprocess execution: views live in
  shared-memory segments, every node of a
  :class:`~repro.distributed.workers.ProcessCluster` (node 0 is the
  coordinator) runs the per-tile kernels on its shard, factors move
  over pipes to the other nodes and are measured in ``engine.comm``.
* :class:`LocalShardEngine` — the single-process reference: identical
  per-tile kernels over the identical tile decomposition, in one
  process.  Because both engines execute the same kernel calls and sum
  ``matT_lowrank``'s per-tile partials in the same tile-index order,
  their results are **bitwise equal**, which is what the differential
  suite asserts.

Both keep an ``engine.model`` ledger of what the planner's comm model
*predicts* each op ships to the partitioner's ``nodes - 1`` remote
nodes — the same events on either engine — so tests assert
modeled-vs-measured agreement on the workers, and the node-count
reports price clusters no box can spawn on the in-process engine.

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
from ..runtime.views import ViewStore
from ..runtime.workspace import Workspace
from .comm import BROADCAST, CommLog, tile_traffic
from .node import _execute
from .partitioner import RowShardPartitioner
from .workers import DEFAULT_TIMEOUT, ProcessCluster


def _factor(x: np.ndarray) -> np.ndarray:
    """Normalize a factor block to C-contiguous float64 ``(n, k)``."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class _ShardEngine:
    """What both engines share: the tile layout, its traffic ledgers and
    the three ops, each one :meth:`_run` of a tile op over every node.

    ``model`` records what each op ships over ``part`` — its node count,
    its tiles — by :func:`~repro.distributed.comm.tile_traffic`, the
    comm model the planner prices, so the in-process engine records the
    same events as the process engine over the same partitioner;
    ``comm`` holds measured traffic (none in process).
    """

    def __init__(self, partitioner: RowShardPartitioner):
        self.part = partitioner
        self.comm = CommLog()
        self.model = CommLog()

    def _op(self, kind: str, name: str, *factors) -> dict:
        """Model and run one tile op; its per-tile partials, by tile."""
        factors = tuple(map(_factor, factors))
        self.model.events.extend(
            tile_traffic(self.part, kind, *(f.shape for f in factors)))
        return self._run((kind, name, *factors))

    def add_lowrank(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        """``view += u @ v.T`` on every shard (factor pair broadcast)."""
        self._op("add_lowrank", name, u, v)

    def mat_lowrank(self, name: str, u: np.ndarray) -> np.ndarray:
        """``view @ u`` — broadcast ``u``, gather per-tile partial rows."""
        partials = self._op("mat_lowrank", name, u)
        out = np.empty((self.part.n, partials[0].shape[1]))
        for t, block in partials.items():
            r0, r1 = self.part.tile_bounds[t]
            out[r0:r1] = block
        return out

    def matT_lowrank(self, name: str, v: np.ndarray) -> np.ndarray:
        """``view.T @ v`` — per *row* tile, one ``(n, k)`` partial each.

        A node reads only the rows it owns; the gathered partials are
        summed in tile-index order, which depends on ``(n, tile_rows)``
        alone, so the result is bitwise the same for every node count
        and shard strategy.
        """
        partials = self._op("matT_lowrank", name, v)
        out = np.zeros(partials[0].shape)
        for t in range(self.part.n_tiles):
            out += partials[t]
        return out


class ShardedEngine(_ShardEngine):
    """Multiprocess coordinator and node 0: named views in shm, ops
    fanned out; ``comm`` is real pickled bytes and real seconds."""

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

    def create(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        return self.cluster.create(name, shape)

    def attach(self) -> None:
        self.cluster.attach()

    def put(self, name: str, value: np.ndarray) -> np.ndarray:
        return self.cluster.put(name, value)

    def get(self, name: str) -> np.ndarray:
        return self.cluster.get(name)

    def free(self, name: str) -> None:
        self.cluster.free(name)

    def _run(self, op: tuple) -> dict:
        replies = self.cluster.roundtrip(op, BROADCAST, op[0])
        return {t: block for reply in replies.values() if reply
                for t, block in reply.items()}

    def worker_seconds(self) -> list[float]:
        """Cumulative compute wall time, per node (node 0's in process)."""
        return list(self.cluster.worker_seconds)

    def close(self) -> None:
        self.cluster.close()


class LocalShardEngine(_ShardEngine):
    """Single-process reference: same tiles, same kernels, no workers —
    this process runs every tile, as node 0 runs its own.

    ``model`` is priced for ``part.nodes``, not for this one process:
    the node-count reports read it for clusters no box can spawn.
    """

    def __init__(self, partitioner: RowShardPartitioner):
        super().__init__(partitioner)
        self.workspace = Workspace()
        self._views: dict[str, np.ndarray] = {}
        self._tiles = tuple(range(partitioner.n_tiles))

    @property
    def nodes(self) -> int:
        return 1

    def create(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        self._views[name] = np.zeros(shape)
        return self._views[name]

    def attach(self) -> None:
        """Nothing to map: this process runs every tile."""

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

    def _run(self, op: tuple) -> dict:
        # The partials are workspace buffers, read before the next op.
        return _execute(op, self._views, self.part.tile_bounds,
                        self._tiles, self.workspace)

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

    * stored view x thin (fewer columns than rows) — one
      ``mat_lowrank`` roundtrip;
    * its transpose (``view.T``, what a lowered list hoists) x thin —
      one ``matT_lowrank`` roundtrip;
    * ``add_outer_inplace`` on a stored view — one ``add_lowrank``
      roundtrip, noted in the apply log;
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

    def open_store(self, program, inputs, dims) -> tuple[ViewStore, dict]:
        """A store over new engine storage for ``program``, and the
        evaluation list's buffers bound to the views' arrays.

        Every array is made first (a full ``/dev/shm`` raises before any
        data moves), then each input is copied from ``inputs`` straight
        into its own, which the store adopts as is: no private copy, no
        second scan.  The evaluation computes each view in its array
        (:func:`landing`).  The workers map none of it before
        :meth:`attach`.
        """
        from ..compiler.compile import compiled_program

        order = self.engine.part.n
        arrays = {name: self.engine.create(name, (order, order))
                  for name in (*program.input_names, *program.view_names)}
        self._names.update((id(array), name) for name, array in arrays.items())
        store = ViewStore(dims, backend=self)
        for name in program.input_names:
            np.copyto(arrays[name], self.materialize(inputs[name]))
            store.adopt(name, arrays[name])
        return store, landing(compiled_program(program).evaluation(), arrays)

    def attach(self, views: ViewStore) -> None:
        """Map every stored view on every node, in one roundtrip; a view
        the evaluation did not compute in its array (an alias) is
        copied there first."""
        arrays = views._arrays
        for name, array in arrays.items():
            stored = self.engine.get(name)
            if array is not stored:
                np.copyto(stored, array)
                arrays[name] = stored
        self.engine.attach()

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

    def matmul_into(self, a, b, out=None):
        """``a @ b``; a stored ``a`` times a thin ``b`` runs on the shards
        and the gathered result is a new array (use it, not ``out``).

        A stored view times a square operand — what
        :func:`~repro.runtime.executor.evaluate` forms when a session
        rebuilds or revalidates — has no tile kernel and stays in this
        process.
        """
        held = self._stored(a)
        if held is None or b.shape[1] >= b.shape[0]:
            return super().matmul_into(a, b, out)
        name, transposed = held
        if transposed:
            return self.engine.matT_lowrank(name, b)
        return self.engine.mat_lowrank(name, b)

    def add_outer_inplace(self, a, u: np.ndarray, v: np.ndarray):
        """``a += u @ v.T``: a stored view absorbs it shard by shard, logged."""
        held = self._stored(a)
        if held is None:
            return super().add_outer_inplace(a, u, v)
        name, _ = held
        self.began.append(name)
        self.engine.add_lowrank(name, u, v)
        self.finished.append(name)
        return a


def landing(lowered, arrays: dict) -> dict:
    """Buffer of the evaluation list ``lowered`` -> the array of
    ``arrays`` its ``store`` apply hands over: the buffer that value's
    record writes, through the sums accumulating into it, so the view
    is computed in place.  One name per buffer; an alias has none."""
    writes = {op.dst: op.srcs[-1] for op in lowered.ops
              if op.kernel not in ("transpose", "inv")}
    bound: dict = {}
    for op in lowered.applies:
        src = op.srcs[0]
        while src in writes:
            src = writes[src]
        if src in lowered.buffers and src not in bound:
            bound[src] = arrays[op.dst]
    return bound


def tile_ops(lowered) -> dict:
    """Each record of ``lowered`` on a stored view (or its hoisted
    transpose) -> the tile op a :class:`ShardBackend` runs it as, or
    ``None`` where none exists.  (A product whose right operand is not
    thin at the bound width still runs in process.)"""
    stored, flipped, found = set(lowered.views), set(), {}
    for op in (*lowered.ops, *lowered.applies):
        held = [at for at, src in enumerate(op.srcs)
                if src in stored or src in flipped]
        if not held:
            continue
        if op.kernel == "transpose":
            flipped.add(op.dst)
        elif held != [0] or op.kernel not in ("matmul", "outer"):
            found[op] = None
        else:
            found[op] = ("add_lowrank" if op.kernel == "outer"
                         else "matT_lowrank" if op.srcs[0] in flipped
                         else "mat_lowrank")
    return found


def unshardable(program) -> str | None:
    """Why no shard engine can maintain ``program`` — ``None`` if one can.

    The one "can this program shard" question, asked of the lowered
    lists every session runs (:func:`~repro.compiler.compile.compiled_program`,
    so asking compiles nothing a session will not reuse) and the same at
    every update width: every view
    shares one tile decomposition, so all are declared with one square
    shape; and a stored view (or its hoisted transpose)
    appears only where a tile kernel exists (:func:`tile_ops`) — as the
    left operand of a ``matmul`` with a thin block, or as the target of
    a factored ``outer`` apply.  ``inv`` of a view, a thin block
    left-multiplying one, a view-by-view product and a non-factored
    ``applyadd`` have no tile kernel.
    """
    from ..compiler.compile import compiled_program

    symbols = [*program.inputs, *(stmt.target for stmt in program.statements)]
    if len({dim for sym in symbols for dim in sym.shape}) != 1:
        declared = ", ".join(f"{sym.name}{sym.shape}" for sym in symbols)
        return (f"sharded views share one tile decomposition and must be "
                f"square matrices of one order, got {declared}")
    compiled = compiled_program(program)
    for lowered in map(compiled.lowered, compiled.triggers):
        for op, tile in tile_ops(lowered).items():
            if tile is None:
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
    "landing",
    "tile_ops",
    "unshardable",
]
