"""Sharded maintenance over the fixed-tile decomposition.

Two engines expose the same four operations (``add_lowrank``,
``mat_lowrank``, ``matT_lowrank``, ``matmul``) over views stored under
names:

* :class:`ShardedEngine` — real multiprocess execution: views live in
  shared-memory segments, each :class:`~repro.distributed.workers.ProcessCluster`
  worker runs the per-tile kernels on its shard, factors move over
  pipes and are measured in ``engine.comm``; a parallel ``engine.model``
  ledger records what the planner's cost model *predicts* the same
  traffic to be, so tests can assert modeled-vs-measured agreement.
* :class:`LocalShardEngine` — the single-process reference: identical
  per-tile kernels over the identical tile decomposition, in one
  process.  Because both engines execute the same kernel calls in the
  same tile order, their results are **bitwise equal**, which is what
  the differential suite asserts.

:func:`sharded_refresh` implements the factored chain recurrence
(paper Appendix A): for a statement ``T := L * R`` with pending factored
deltas ``(uL, vL)`` and ``(uR, vR)``,

    ``U_T = [uL | L_old @ uR + uL (vL' uR)]``,  ``V_T = [R_old' vL | vR]``

— all products on *old* view values, in statement order, then every
view (input included) absorbs its rank-widened delta.  Only thin
``(n x k)`` blocks ever cross a pipe.
"""

from __future__ import annotations

import numpy as np

from ..expr.ast import MatMul, MatrixSymbol
from ..runtime.workspace import Workspace
from .comm import BROADCAST, GATHER, SHUFFLE, CommLog
from .partitioner import RowShardPartitioner
from .workers import (
    DEFAULT_TIMEOUT,
    ProcessCluster,
    lease_tile_stage,
    tile_add_lowrank,
    tile_matT_lowrank,
    tile_mat_lowrank,
    tile_matmul,
)


def _factor(x: np.ndarray) -> np.ndarray:
    """Normalize a factor block to C-contiguous float64 ``(n, k)``."""
    arr = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    return arr


class ShardedEngine:
    """Multiprocess coordinator: named views in shm, ops fanned out.

    ``comm`` holds measured traffic (real pickled bytes, real seconds);
    ``model`` holds what the planner's comm model predicts for the same
    operations (satellite: modeled-vs-measured agreement).
    """

    def __init__(self, partitioner: RowShardPartitioner,
                 timeout: float = DEFAULT_TIMEOUT, supervise: bool = False):
        self.part = partitioner
        self.comm = CommLog()
        self.model = CommLog()
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

    def alloc(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        return self.cluster.alloc(name, shape)

    def get(self, name: str) -> np.ndarray:
        return self.cluster.get(name)

    def free(self, name: str) -> None:
        self.cluster.free(name)

    def add_lowrank(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        """``view += u @ v.T`` on every shard (factor pair broadcast)."""
        u, v = _factor(u), _factor(v)
        self.model.record(BROADCAST, "add_lowrank",
                          (u.nbytes + v.nbytes) * self.nodes,
                          messages=self.nodes)
        self.cluster.roundtrip(("add_lowrank", name, u, v),
                               BROADCAST, "add_lowrank")

    def mat_lowrank(self, name: str, u: np.ndarray) -> np.ndarray:
        """``view @ u`` — broadcast ``u``, gather per-tile partial rows."""
        u = _factor(u)
        n, k = self.part.n, u.shape[1]
        self.model.record(BROADCAST, "mat_lowrank", u.nbytes * self.nodes,
                          messages=self.nodes)
        self.model.record(GATHER, "mat_lowrank", n * k * 8,
                          messages=self.nodes)
        replies = self.cluster.roundtrip(("mat_lowrank", name, u),
                                         BROADCAST, "mat_lowrank")
        out = np.empty((n, k))
        for partials in replies.values():
            for t, block in partials.items():
                r0, r1 = self.part.tile_bounds[t]
                out[r0:r1] = block
        return out

    def matT_lowrank(self, name: str, v: np.ndarray) -> np.ndarray:
        """``view.T @ v`` — per *column* tile, full-height reduction.

        Each tile's partial is a complete ``(c1-c0, k)`` slice of the
        result (no cross-worker summation), which keeps the reduction
        order fixed and the result bitwise stable.
        """
        v = _factor(v)
        n, k = self.part.n, v.shape[1]
        self.model.record(BROADCAST, "matT_lowrank", v.nbytes * self.nodes,
                          messages=self.nodes)
        self.model.record(GATHER, "matT_lowrank", n * k * 8,
                          messages=self.nodes)
        replies = self.cluster.roundtrip(("matT_lowrank", name, v),
                                         BROADCAST, "matT_lowrank")
        out = np.empty((n, k))
        for partials in replies.values():
            for t, block in partials.items():
                c0, c1 = self.part.tile_bounds[t]
                out[c0:c1] = block
        return out

    def matmul(self, out_name: str, a_name: str, b_name: str) -> None:
        """``out = a @ b`` sharded by output row tiles (REEVAL path).

        The big operands move through shared memory (zero-copy), so the
        only pipe traffic is the op message itself — the honest measure
        of what single-machine sharding ships.
        """
        if out_name in (a_name, b_name):
            raise ValueError("matmul output must not alias an operand")
        self.cluster.roundtrip(("matmul", out_name, a_name, b_name),
                               SHUFFLE, "matmul")

    def worker_seconds(self) -> list[float]:
        """Cumulative in-worker compute wall time, per worker."""
        return list(self.cluster.worker_seconds)

    def close(self) -> None:
        self.cluster.close()


class LocalShardEngine:
    """Single-process reference: same tiles, same kernels, no workers."""

    def __init__(self, partitioner: RowShardPartitioner):
        self.part = partitioner
        self.comm = CommLog()
        self.model = CommLog()
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

    def alloc(self, name: str, shape: tuple[int, int]) -> np.ndarray:
        return self.put(name, np.zeros(shape))

    def get(self, name: str) -> np.ndarray:
        return self._views[name]

    def free(self, name: str) -> None:
        self._views.pop(name, None)

    def add_lowrank(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        u, v = _factor(u), _factor(v)
        view, vt = self._views[name], v.T
        bounds = self.part.tile_bounds
        with self.workspace.frame():
            stage = lease_tile_stage(self.workspace, bounds, vt.shape[1])
            for r0, r1 in bounds:
                tile_add_lowrank(view, r0, r1, u, vt, stage)

    def mat_lowrank(self, name: str, u: np.ndarray) -> np.ndarray:
        u = _factor(u)
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
        view = self._views[name]
        out = np.empty((self.part.n, v.shape[1]))
        with self.workspace.frame():
            for c0, c1 in self.part.tile_bounds:
                buf = self.workspace.lease(c1 - c0, v.shape[1])
                tile_matT_lowrank(view, c0, c1, v, buf)
                out[c0:c1] = buf
        return out

    def matmul(self, out_name: str, a_name: str, b_name: str) -> None:
        if out_name in (a_name, b_name):
            raise ValueError("matmul output must not alias an operand")
        out, a, b = (self._views[out_name], self._views[a_name],
                     self._views[b_name])
        for r0, r1 in self.part.tile_bounds:
            tile_matmul(out, a, b, r0, r1)

    def worker_seconds(self) -> list[float]:
        return [0.0]

    def close(self) -> None:
        self._views.clear()


# -- chain programs ------------------------------------------------------

def chain_steps(program):
    """``(input_name, [(target, left, right), ...])`` for a chain-shaped
    program, or ``None`` when the program cannot be sharded.

    Shardable means: exactly one input, and every statement is a product
    of two already-known views (the matrix-power / chain form of the
    paper's Appendix A, e.g. ``B := A*A; C := A*B``).
    """
    if len(program.inputs) != 1:
        return None
    input_name = program.inputs[0].name
    known = {input_name}
    steps = []
    for stmt in program.statements:
        expr = stmt.expr
        if not isinstance(expr, MatMul) or len(expr.children) != 2:
            return None
        left, right = expr.children
        if not (isinstance(left, MatrixSymbol) and isinstance(right, MatrixSymbol)):
            return None
        if left.name not in known or right.name not in known:
            return None
        known.add(stmt.target.name)
        steps.append((stmt.target.name, left.name, right.name))
    return input_name, steps


def power_chain(k: int) -> list[tuple[str, str, str]]:
    """The linear power chain ``P2 := A*A; P3 := A*P2; ...`` up to ``A^k``."""
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    steps = [("P2", "A", "A")]
    for i in range(3, k + 1):
        steps.append((f"P{i}", "A", f"P{i - 1}"))
    return steps


def sharded_refresh(engine, input_name: str, steps, u, v,
                    progress: list | None = None) -> dict:
    """Propagate one factored update ``A += u v'`` through the chain.

    All ``mat/matT`` products read *old* view values in statement
    order; then every view absorbs its factored delta.  Identical
    arithmetic on every engine, so the results are bitwise equal
    across :class:`ShardedEngine` / :class:`LocalShardEngine` and any
    shard strategy.  Returns the per-view ``(U, V)`` factor map.

    ``progress`` (a caller-owned list) receives checkpoints as the
    refresh advances — ``("factors", factor_map)`` once every product
    of old values is computed, then ``("adding", name)`` /
    ``("added", name)`` around each view's absorption.  On a worker
    failure, the caller can read exactly how far durable state got:
    views before the last ``"adding"`` entry absorbed their deltas,
    the named one may be torn, later ones are untouched
    (:meth:`ShardedChainSession._reeval_recover
    <repro.runtime.session.ShardedChainSession>` keys its fallback off
    this).
    """
    u, v = _factor(u), _factor(v)
    factors = {input_name: (u, v)}
    for target, left, right in steps:
        ul, vl = factors[left]
        ur, vr = factors[right]
        left_ur = engine.mat_lowrank(left, ur)
        cross = ul @ (vl.T @ ur)
        rightT_vl = engine.matT_lowrank(right, vl)
        factors[target] = (
            np.hstack([ul, left_ur + cross]),
            np.hstack([rightT_vl, vr]),
        )
    if progress is not None:
        progress.append(("factors", factors))
    for name, (fu, fv) in factors.items():
        if progress is not None:
            progress.append(("adding", name))
        engine.add_lowrank(name, fu, fv)
        if progress is not None:
            progress.append(("added", name))
    return factors


def sharded_reeval_refresh(engine, input_name: str, steps, u, v) -> None:
    """REEVAL under sharding: apply the delta, re-multiply every product."""
    engine.add_lowrank(input_name, _factor(u), _factor(v))
    for target, left, right in steps:
        engine.matmul(target, left, right)


class ShardedChainMaintainer:
    """A chain of products of one square input, maintained on a shard
    engine — the bench / differential-harness entry point.

    ``nodes=1`` (or ``process=False``) uses the in-process reference
    engine; otherwise a :class:`ProcessCluster` is spawned.  Initial
    views are materialized through the engine's own tiled ``matmul``,
    so the whole trajectory — setup included — is bitwise comparable
    across engines and shard strategies.
    """

    def __init__(self, a: np.ndarray, steps=None, *, input_name: str = "A",
                 nodes: int = 1, strategy: str = "range",
                 tile_rows: int | None = None, process: bool | None = None,
                 reeval: bool = False,
                 timeout: float = DEFAULT_TIMEOUT, supervise: bool = False):
        a = np.ascontiguousarray(a, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"need a square input, got shape {a.shape}")
        self.input_name = input_name
        self.steps = list(steps) if steps is not None else power_chain(3)
        self.reeval = reeval
        part = RowShardPartitioner(a.shape[0], nodes, strategy, tile_rows)
        if process is None:
            process = nodes > 1
        if process:
            self.engine = ShardedEngine(part, timeout=timeout,
                                        supervise=supervise)
        else:
            self.engine = LocalShardEngine(part)
        self.engine.put(input_name, a)
        for target, left, right in self.steps:
            self.engine.alloc(target, (a.shape[0], a.shape[0]))
            self.engine.matmul(target, left, right)

    def reset(self, a: np.ndarray) -> None:
        """Re-seed the input and re-materialize the chain in place."""
        self.engine.put(self.input_name, a)
        for target, left, right in self.steps:
            self.engine.matmul(target, left, right)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Absorb one factored update ``A += u v'``."""
        if self.reeval:
            sharded_reeval_refresh(self.engine, self.input_name,
                                   self.steps, u, v)
        else:
            sharded_refresh(self.engine, self.input_name, self.steps, u, v)

    def result(self, name: str | None = None) -> np.ndarray:
        """A private copy of one maintained view (default: last target)."""
        if name is None:
            name = self.steps[-1][0]
        return np.array(self.engine.get(name))

    def close(self) -> None:
        self.engine.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


__all__ = [
    "LocalShardEngine",
    "ShardedChainMaintainer",
    "ShardedEngine",
    "chain_steps",
    "power_chain",
    "sharded_reeval_refresh",
    "sharded_refresh",
]
