"""The simulated cluster as an execution :class:`~repro.backends.base.Backend`.

LINVIEW compiles one trigger program and swaps only the runtime under
it (Octave on one node, Spark on the cluster; Section 6).
:class:`SimulatedBackend` is that swap for the BSP simulator: it runs
the real block algebra in process, charges every kernel to a
:class:`~repro.distributed.cluster.Cluster`, and plugs into the
``backend=`` slot of the :mod:`repro.iterative` factories — the
Appendix A/B recurrences are spelled once, there, and the distributed
maintainers are those same classes on this backend.

Operands are **tiles** (a :class:`BlockMatrix` on the cluster's grid,
what :meth:`~SimulatedBackend.asarray` builds) or **thin** ``(n x k)``
``ndarray`` blocks on the master (delta factors, iterates, ``B``),
and products dispatch on the pair — the operations the paper's
generated Spark code performs:

* tiles x tiles — "the simple parallel algorithm" [Grama et al.]:
  ``g`` SUMMA rounds, each worker receiving ``2 (g-1)`` remote tiles
  (``O(n^2/g)`` bytes) and multiplying ``g`` tile pairs;
* tiles x thin (``P @ U``, ``P.T @ V``) — local per block-row or
  block-column under the paper's hybrid partitioning: the thin operand
  is broadcast, the thin result gathered at the master;
* thin x thin — the dense kernel, charged by the one master-local rule;
* ``add_outer_inplace`` on tiles — the incremental update: "only small
  delta vectors or low-rank matrices [are] communicated" (Section 6),
  each worker accumulating into its own tile.

REEVAL reshuffles ``O(n^2)`` tiles per product while INCR broadcasts
``O(nk)`` factors — the Section 7 finding that re-evaluation "has a
more dynamic model of memory usage ... as the data gets shuffled among
nodes".  docs/architecture.md ("Simulated cluster") has the cost model.
"""

from __future__ import annotations

import numpy as np

from ..backends import DenseBackend, get_backend
from ..cost.ops import outer_update_flops
from .blockmatrix import BlockMatrix, TransposedBlocks
from .cluster import Cluster
from .comm import BROADCAST, GATHER, SHUFFLE
from .partitioner import GridPartitioner


class SimulatedBackend(DenseBackend):
    """Block algebra on a simulated cluster, behind the ``Backend`` API.

    Build one from a :class:`Cluster` and pass it as ``backend=`` to the
    :mod:`repro.iterative` factories; call ``cluster.reset()`` after
    construction, because the initial materialization is charged like
    any other work while the paper preloads it untimed.  ``tiles``
    selects the tile kernel (dense NumPy by default; ``"sparse"`` keeps
    CSR tiles); communication is charged from the bytes that
    representation actually ships.  Deliberately not registered under a
    name in :mod:`repro.backends`: it cannot exist without a cluster.
    """

    name = "simulated"

    def __init__(self, cluster: Cluster, tiles=None):
        self.cluster = cluster
        self.tile_backend = get_backend(tiles)

    # -- construction ------------------------------------------------------
    def asarray(self, value, copy: bool = False) -> BlockMatrix:
        """Partition ``value`` onto the cluster's grid (tiles are copies)."""
        if isinstance(value, BlockMatrix):
            self._check_tiles(value)
            return value.copy() if copy else value
        if not hasattr(value, "tocsr"):
            value = super().asarray(value)
        return BlockMatrix.from_dense(
            value, self.cluster.config.grid, backend=self.tile_backend
        )

    def eye(self, n: int) -> BlockMatrix:
        """The partitioned ``(n x n)`` identity."""
        return self.asarray(np.eye(n))

    def _check_tiles(self, *operands: BlockMatrix) -> None:
        """Fail fast when a tile is not the tile kernel's representation.

        Every tile is checked: a sparse-built block matrix may legally
        mix CSR and dense tiles, so sampling one could pass and then
        crash mid-operation.
        """
        for block in operands:
            for tile in block.tiles.values():
                if not self.tile_backend.is_native(tile):
                    raise ValueError(
                        f"operand tile ({type(tile).__name__}) does not match "
                        f"the {self.tile_backend.name!r} tile backend; build "
                        f"the BlockMatrix with the same backend"
                    )

    # -- the one master-local charging rule --------------------------------
    def _master_small(self, m: int, n: int, p: int) -> None:
        """Charge a thin ``(m x n) @ (n x p)`` product to the master.

        Master-local work is serial, moves no bytes and costs no round:
        its true ``2 m n p`` FLOPs at one worker's rate.  Every thin
        product of a refresh is charged here and nowhere else.
        """
        self.cluster.record_step("master_small", 2 * m * n * p, 0, rounds=0)

    # -- products ----------------------------------------------------------
    def matmul_into(self, a, b, out):
        """``a @ b``, dispatched on operand kind (see the module docs).

        ``out`` is honoured for thin x thin only; tile results are new
        block matrices and gathered results new arrays — as everywhere
        in the ``*_into`` protocol, use the returned object.
        """
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"shape mismatch: {a.shape} @ {b.shape}")
        thin_b = isinstance(b, np.ndarray)
        if isinstance(a, np.ndarray) and thin_b:
            self._master_small(a.shape[0], a.shape[1], b.shape[1])
            return super().matmul_into(a, b, out)
        if isinstance(a, BlockMatrix) and thin_b:
            return self._mat_lowrank(a, b, transposed=False)
        if isinstance(a, TransposedBlocks) and thin_b:
            return self._mat_lowrank(a.base, b, transposed=True)
        if isinstance(a, BlockMatrix) and isinstance(b, BlockMatrix):
            return self._summa(a, b)
        raise TypeError(
            f"the simulated cluster has no kernel for "
            f"{type(a).__name__} @ {type(b).__name__}: a transposed view "
            f"only multiplies a thin block (P.T @ V), and a thin block "
            f"never left-multiplies tiles"
        )

    def matmul(self, a, b):
        """``a @ b`` (allocating form of :meth:`matmul_into`)."""
        return self.matmul_into(a, b, None)

    def _summa(self, a: BlockMatrix, b: BlockMatrix) -> BlockMatrix:
        """Grid matrix product via ``g`` broadcast rounds (SUMMA)."""
        if a.grid != b.grid:
            raise ValueError("operands must share one grid")
        self._check_tiles(a, b)
        g = a.grid
        be = self.tile_backend
        out_part = GridPartitioner(a.shape[0], b.shape[1], g)
        tiles = {}
        max_flops = 0
        max_bytes = 0
        total_flops = 0
        for bi in range(g):
            for bj in range(g):
                acc = None
                worker_flops = 0
                worker_bytes = 0
                for bk in range(g):
                    left = a.tiles[(bi, bk)]
                    right = b.tiles[(bk, bj)]
                    term = be.matmul(left, right)
                    acc = term if acc is None else be.add_inplace(acc, term)
                    worker_flops += be.matmul_flops(left, right)
                    if bk != bj:  # remote A tile received this round
                        worker_bytes += be.nbytes(left)
                    if bk != bi:  # remote B tile received this round
                        worker_bytes += be.nbytes(right)
                tiles[(bi, bj)] = acc
                max_flops = max(max_flops, worker_flops)
                max_bytes = max(max_bytes, worker_bytes)
                total_flops += worker_flops
        self.cluster.record_step(
            "matmul", max_flops, max_bytes, rounds=g,
            total_flops=total_flops, total_bytes=max_bytes * g * g,
        )
        self.cluster.comm.record(
            SHUFFLE, "matmul", max_bytes * g * g, messages=2 * g * g * (g - 1)
        )
        return BlockMatrix(out_part, tiles, backend=be)

    def _mat_lowrank(
        self, a: BlockMatrix, x: np.ndarray, transposed: bool
    ) -> np.ndarray:
        """``A @ X`` (or ``A' @ X``) for a broadcast thin ``X``, gathered.

        With hybrid partitioning each worker owns a block-row *and* a
        block-column of ``A``, so either orientation runs without
        reshuffling ``A``; only ``X`` (in) and the thin partial results
        (out) move.
        """
        self._check_tiles(a)
        inner, out_rows = a.shape if transposed else a.shape[::-1]
        k = x.shape[1]
        be = self.tile_backend
        g = a.grid
        parts = []
        for s in range(g):
            if transposed:
                strip = be.transpose(
                    be.vstack([a.tiles[(bi, s)] for bi in range(g)])
                )
            else:
                strip = be.hstack([a.tiles[(s, bj)] for bj in range(g)])
            parts.append(be.materialize(be.matmul(strip, x)))
        # Cost model: the strips are split across all available nodes
        # ("we split the data horizontally among all available nodes")
        # — the cluster's worker count, not the tile count.
        workers = self.cluster.config.workers
        strip_rows = -(-out_rows // workers)  # ceil
        bytes_in = x.nbytes + strip_rows * k * 8  # broadcast in + gather out
        self.cluster.record_step(
            "mat_lowrank", 2 * strip_rows * inner * k, bytes_in, rounds=2,
            total_flops=2 * out_rows * inner * k,
            total_bytes=bytes_in * workers,
        )
        self.cluster.comm.record(
            BROADCAST, "mat_lowrank", x.nbytes * workers, messages=workers
        )
        self.cluster.comm.record(
            GATHER, "mat_lowrank", out_rows * k * 8, messages=workers
        )
        return np.vstack(parts)

    # -- the update kernel -------------------------------------------------
    def add_outer(self, a, u: np.ndarray, v: np.ndarray):
        """``a += u @ v.T``: broadcast factors, accumulate into the tiles.

        Also the inherited :meth:`add_outer_inplace` — tiles always
        mutate.  A thin ``a`` (an iterate on the master) takes the dense
        kernel and the master-local charge.
        """
        if isinstance(a, np.ndarray):
            self._master_small(a.shape[0], u.shape[1], a.shape[1])
            return super().add_outer(a, u, v)
        self._check_tiles(a)
        part = a.partitioner
        be = self.tile_backend
        tile_flops = []
        for bi, (r0, r1) in enumerate(part.row_bounds):
            for bj, (c0, c1) in enumerate(part.col_bounds):
                tile = a.tiles[(bi, bj)]
                u_slice, v_slice = u[r0:r1], v[c0:c1]
                tile_flops.append(
                    outer_update_flops(be, tile, u_slice, v_slice)
                    + be.add_flops(tile)
                )
                a.tiles[(bi, bj)] = be.add_outer_inplace(tile, u_slice, v_slice)
        bytes_in = be.nbytes(u) + be.nbytes(v)  # what each worker receives
        # The factor pair is broadcast once per *node* (the cluster's
        # worker count), not once per tile: a node owning several tiles
        # still receives one copy.
        nodes = self.cluster.config.workers
        self.cluster.record_step(
            "lowrank_update", max(tile_flops), bytes_in, rounds=1,
            total_flops=sum(tile_flops),
            total_bytes=bytes_in * nodes,
        )
        self.cluster.comm.record(
            BROADCAST, "lowrank_update", bytes_in * nodes, messages=nodes,
        )
        return a

    # -- element-wise: tile-local, no communication -----------------------
    def add_into(self, a, b, out):
        """Element-wise sum; each worker adds its own tiles."""
        if isinstance(a, np.ndarray):
            return super().add_into(a, b, out)
        if not (isinstance(a, BlockMatrix) and isinstance(b, BlockMatrix)):
            raise TypeError(
                f"tile-local add needs two stored block matrices, got "
                f"{type(a).__name__} + {type(b).__name__}"
            )
        if a.shape != b.shape or a.grid != b.grid:
            raise ValueError("operands must share shape and grid")
        self._check_tiles(a, b)
        be = self.tile_backend
        tiles = {key: be.add(tile, b.tiles[key]) for key, tile in a.tiles.items()}
        tile_flops = [be.add_flops(tile) for tile in a.tiles.values()]
        self.cluster.record_step(
            "add", max(tile_flops), 0, rounds=0,
            total_flops=sum(tile_flops), total_bytes=0,
        )
        return BlockMatrix(a.partitioner, tiles, backend=be)

    def add(self, a, b):
        """Element-wise sum (allocating form of :meth:`add_into`)."""
        return self.add_into(a, b, None)

    # -- inspection --------------------------------------------------------
    def materialize(self, a) -> np.ndarray:
        """Gather tiles (or pass a thin block through) as a dense array."""
        if isinstance(a, BlockMatrix):
            return a.to_dense()
        return super().materialize(a)

    def is_native(self, value) -> bool:
        """Block matrices and thin 2-D arrays both execute here."""
        return isinstance(value, BlockMatrix) or super().is_native(value)

    def nbytes(self, a) -> int:
        """Stored bytes across tiles (thin blocks: the array's own)."""
        if isinstance(a, BlockMatrix):
            return a.nbytes()
        return super().nbytes(a)
