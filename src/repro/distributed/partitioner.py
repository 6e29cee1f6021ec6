"""Matrix partitioning schemes (Section 6, "Data Partitioning").

:class:`GridPartitioner` tiles an ``(n x m)`` matrix over a ``g x g``
worker grid — worker ``(bi, bj)`` owns tile ``(bi, bj)`` — the layout
the paper uses for its Spark matrix multiplication.

The paper's *hybrid* scheme additionally gives every node one block of
rows and one block of columns of each large matrix ("doubles the memory
consumption" but keeps products with small delta matrices strictly
local).  The simulator models that as zero-shuffle row/column access in
:mod:`repro.distributed.engine`; :func:`hybrid_extra_bytes` reports the
memory price.
"""

from __future__ import annotations

import numpy as np


class GridPartitioner:
    """Balanced ``g x g`` tiling of matrix indices.

    Tile boundaries put ``ceil`` remainders on the leading tiles so any
    ``n >= g`` splits without padding.
    """

    def __init__(self, n_rows: int, n_cols: int, grid: int):
        if grid < 1:
            raise ValueError(f"grid must be >= 1, got {grid}")
        if n_rows < grid or n_cols < grid:
            raise ValueError(
                f"matrix ({n_rows} x {n_cols}) too small for a {grid}x{grid} grid"
            )
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.grid = grid
        self.row_bounds = self._bounds(n_rows, grid)
        self.col_bounds = self._bounds(n_cols, grid)

    @staticmethod
    def _bounds(total: int, parts: int) -> list[tuple[int, int]]:
        base, extra = divmod(total, parts)
        bounds = []
        start = 0
        for i in range(parts):
            size = base + (1 if i < extra else 0)
            bounds.append((start, start + size))
            start += size
        return bounds

    def tile_shape(self, bi: int, bj: int) -> tuple[int, int]:
        """Shape of tile ``(bi, bj)``."""
        r0, r1 = self.row_bounds[bi]
        c0, c1 = self.col_bounds[bj]
        return r1 - r0, c1 - c0

    def split(self, dense: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
        """Tile a dense matrix into the grid layout (copies)."""
        if dense.shape != (self.n_rows, self.n_cols):
            raise ValueError(
                f"expected ({self.n_rows} x {self.n_cols}), got {dense.shape}"
            )
        tiles = {}
        for bi, (r0, r1) in enumerate(self.row_bounds):
            for bj, (c0, c1) in enumerate(self.col_bounds):
                tiles[(bi, bj)] = dense[r0:r1, c0:c1].copy()
        return tiles

    def assemble(self, tiles: dict[tuple[int, int], np.ndarray]) -> np.ndarray:
        """Reassemble a dense matrix from grid tiles."""
        out = np.empty((self.n_rows, self.n_cols))
        for bi, (r0, r1) in enumerate(self.row_bounds):
            for bj, (c0, c1) in enumerate(self.col_bounds):
                out[r0:r1, c0:c1] = tiles[(bi, bj)]
        return out


class RowShardPartitioner:
    """Fixed row-tile decomposition sharded over ``nodes`` workers.

    The tile boundaries depend only on ``(n, tile_rows)`` — never on the
    node count or the sharding strategy — so every execution path
    (1 worker or N, ``hash`` or ``range`` assignment, in-process or
    multi-process) performs *bitwise identical* per-tile kernels.
    Changing ``nodes`` or ``strategy`` only changes which worker runs
    each tile, which is why sharded maintenance can promise bit-equality
    with the single-process reference instead of mere ``allclose``.

    Strategies (Section 6 "Data Partitioning", extended per the ISSUE):

    * ``range`` — contiguous balanced runs of tiles per worker (the
      paper's block-row layout);
    * ``hash`` — tile index modulo node count (round-robin), which
      balances skewed per-tile cost at the price of locality.

    Degenerate shapes are all legal: ``nodes=1`` (single-node cluster),
    ``nodes > n_tiles`` (trailing workers own zero tiles — empty block
    rows), and ``n`` not divisible by ``tile_rows`` (a short last tile).
    """

    STRATEGIES = ("range", "hash")

    #: Default tile height; a function of nothing but this constant so
    #: that two partitioners over the same ``n`` agree on boundaries.
    DEFAULT_TILE_ROWS = 64

    def __init__(self, n: int, nodes: int, strategy: str = "range",
                 tile_rows: int | None = None):
        if n < 1:
            raise ValueError(f"matrix dimension must be >= 1, got {n}")
        if nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {nodes}")
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; use one of {self.STRATEGIES}"
            )
        if tile_rows is None:
            tile_rows = min(n, self.DEFAULT_TILE_ROWS)
        if tile_rows < 1:
            raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
        self.n = n
        self.nodes = nodes
        self.strategy = strategy
        self.tile_rows = tile_rows
        self.tile_bounds: list[tuple[int, int]] = [
            (start, min(n, start + tile_rows)) for start in range(0, n, tile_rows)
        ]
        self.n_tiles = len(self.tile_bounds)
        if strategy == "hash":
            self.owners = [t % nodes for t in range(self.n_tiles)]
        else:
            runs = GridPartitioner._bounds(self.n_tiles, nodes)
            self.owners = [0] * self.n_tiles
            for worker, (t0, t1) in enumerate(runs):
                for t in range(t0, t1):
                    self.owners[t] = worker
        self.shards: list[tuple[int, ...]] = [
            tuple(t for t in range(self.n_tiles) if self.owners[t] == w)
            for w in range(nodes)
        ]

    def shard_rows(self, worker: int) -> int:
        """Row count owned by ``worker`` (0 for an empty shard)."""
        return sum(r1 - r0 for r0, r1 in
                   (self.tile_bounds[t] for t in self.shards[worker]))

    def describe(self) -> dict:
        """Shard layout summary for bench/CLI artifacts."""
        return {
            "n": self.n,
            "nodes": self.nodes,
            "strategy": self.strategy,
            "tile_rows": self.tile_rows,
            "n_tiles": self.n_tiles,
            "shard_rows": [self.shard_rows(w) for w in range(self.nodes)],
        }


def hybrid_extra_bytes(n_rows: int, n_cols: int, itemsize: int = 8) -> int:
    """Extra memory of the hybrid row+column replication (one full copy).

    Each node holding one block-row *and* one block-column of a matrix
    doubles the aggregate footprint: ``g`` nodes x (n/g) rows is one full
    copy, likewise for columns.
    """
    return n_rows * n_cols * itemsize
