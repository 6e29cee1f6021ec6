"""Block matrices over a grid partitioning."""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from .partitioner import GridPartitioner


class BlockMatrix:
    """A matrix stored as ``g x g`` tiles on the simulated cluster.

    Purely a data container — all distributed *operations* (and their
    cost accounting) live in :mod:`repro.distributed.engine`.  The
    ``backend`` names the tiles' representation (dense NumPy by
    default, CSR under ``"sparse"``) and must match the tile kernel of
    the :class:`~repro.distributed.engine.SimulatedBackend` operating
    on them.
    """

    def __init__(self, partitioner: GridPartitioner,
                 tiles: dict[tuple[int, int], np.ndarray],
                 backend=None):
        self.partitioner = partitioner
        self.backend = get_backend(backend)
        expected = {
            (bi, bj)
            for bi in range(partitioner.grid)
            for bj in range(partitioner.grid)
        }
        if set(tiles) != expected:
            raise ValueError("tile index set does not match the grid")
        for key, tile in tiles.items():
            if tile.shape != partitioner.tile_shape(*key):
                raise ValueError(
                    f"tile {key} has shape {tile.shape}, "
                    f"expected {partitioner.tile_shape(*key)}"
                )
        self.tiles = tiles

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, grid: int, backend=None
    ) -> "BlockMatrix":
        """Partition a dense matrix onto a ``g x g`` grid.

        With ``backend`` set, each tile is converted to that backend's
        representation (e.g. CSR under ``"sparse"``) before storage.
        A ``scipy.sparse`` source is routed through :meth:`from_sparse`
        so it never materializes densely.
        """
        if not isinstance(dense, np.ndarray) and hasattr(dense, "tocsr"):
            return cls.from_sparse(dense, grid, backend=backend or "sparse")
        partitioner = GridPartitioner(dense.shape[0], dense.shape[1], grid)
        tiles = partitioner.split(np.asarray(dense, dtype=np.float64))
        be = get_backend(backend)
        if backend is not None:
            tiles = {key: be.asarray(tile) for key, tile in tiles.items()}
        return cls(partitioner, tiles, backend=be)

    @classmethod
    def from_sparse(
        cls, matrix, grid: int, backend="sparse"
    ) -> "BlockMatrix":
        """Partition a ``scipy.sparse`` matrix without densifying it.

        Tiles are sliced straight from the CSR structure — the full
        dense image is never materialized, so graph-scale inputs
        (``nnz << n^2``) partition in ``O(nnz)`` memory.  Each tile is
        then normalized through ``backend`` (default ``"sparse"``),
        whose representation policy may densify *small* tiles where
        BLAS wins.
        """
        if not hasattr(matrix, "tocsr"):
            raise TypeError(
                f"from_sparse needs a scipy.sparse matrix, got {type(matrix)!r}"
            )
        csr = matrix.tocsr()
        partitioner = GridPartitioner(csr.shape[0], csr.shape[1], grid)
        be = get_backend(backend)
        tiles = {}
        for bi, (r0, r1) in enumerate(partitioner.row_bounds):
            row_band = csr[r0:r1]
            for bj, (c0, c1) in enumerate(partitioner.col_bounds):
                tile = row_band[:, c0:c1]
                if not be.is_native(tile):
                    # e.g. backend="dense": materialize the (small) tile.
                    tile = np.asarray(tile.todense(), dtype=np.float64)
                tiles[(bi, bj)] = be.asarray(tile)
        return cls(partitioner, tiles, backend=be)

    def to_dense(self) -> np.ndarray:
        """Gather all tiles into one dense matrix."""
        tiles = {
            key: self.backend.materialize(t) for key, t in self.tiles.items()
        }
        return self.partitioner.assemble(tiles)

    @property
    def shape(self) -> tuple[int, int]:
        """Global (rows, cols)."""
        return (self.partitioner.n_rows, self.partitioner.n_cols)

    @property
    def grid(self) -> int:
        """Grid side length ``g``."""
        return self.partitioner.grid

    @property
    def T(self) -> "TransposedBlocks":
        """Lazy transpose: no tile moves until a kernel consumes it."""
        return TransposedBlocks(self)

    def copy(self) -> "BlockMatrix":
        """Deep copy (fresh tile arrays)."""
        return BlockMatrix(
            self.partitioner, {k: t.copy() for k, t in self.tiles.items()},
            backend=self.backend,
        )

    def nbytes(self) -> int:
        """Total bytes across tiles (index structures included for CSR)."""
        return sum(self.backend.nbytes(t) for t in self.tiles.values())

    def __repr__(self) -> str:
        return f"BlockMatrix({self.shape[0]}x{self.shape[1]}, grid={self.grid})"


class TransposedBlocks:
    """``P'`` of a :class:`BlockMatrix`, unevaluated.

    The factored recurrences only need ``P' V`` for a thin ``V`` — the
    column-replica product of hybrid partitioning — so the transpose is
    a view the backend's ``matmul_into`` recognizes, never a reshuffle.
    """

    def __init__(self, base: BlockMatrix):
        self.base = base
        self.shape = base.shape[::-1]
