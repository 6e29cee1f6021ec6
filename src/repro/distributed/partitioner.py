"""The row-shard layout (Section 6, "Data Partitioning").

Every view is split into fixed row tiles, and the tiles are sharded
over the workers.  The paper's *hybrid* scheme would also give every
node a block of columns ("doubles the memory consumption"); its
traffic and memory price are modeled, not run, by
``benchmarks/bench_ablation_partition.py``.
"""

from __future__ import annotations


class RowShardPartitioner:
    """Fixed row-tile decomposition sharded over ``nodes`` workers.

    The tile boundaries depend only on ``(n, tile_rows)`` — never on the
    node count or the sharding strategy — so every execution path
    (1 worker or N, ``hash`` or ``range`` assignment, in-process or
    multi-process) performs *bitwise identical* per-tile kernels.
    Changing ``nodes`` or ``strategy`` only changes which worker runs
    each tile, which is why sharded maintenance can promise bit-equality
    with the single-process reference instead of mere ``allclose``.

    Strategies (Section 6 "Data Partitioning", plus round-robin):

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
            # Balanced runs: the first ``n_tiles % nodes`` workers take
            # one tile more.
            base, extra = divmod(self.n_tiles, nodes)
            self.owners = [worker for worker in range(nodes)
                           for _ in range(base + (worker < extra))]
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
