"""Sparse (SciPy CSR) execution backend with dense fallback.

Graph-shaped workloads — pagerank, reachability, markov chains — keep
``n x n`` state that is overwhelmingly sparse (a social graph at 1%
density stores 100x fewer entries than its dense image).  The dense
executor pays ``O(n^2)`` per matrix-vector product regardless;
:class:`SparseBackend` stores large low-density operands as CSR and
pays ``O(nnz)`` instead, which is exactly the regime where LINVIEW's
factored deltas shine (the deltas themselves stay *thin dense*
``(n x k)`` blocks, so factored propagation is unchanged).

Representation policy (hysteresis avoids format flip-flop):

* matrices with both dimensions ``>= min_sparse_dim`` and density
  ``<= sparsify_below`` are stored CSR;
* sparse results whose density crosses ``densify_above`` are
  materialized to dense (walk-count views in reachability fill in over
  long update streams — the backend follows them down the density
  ramp);
* thin factor blocks and small matrices are always dense ``ndarray``:
  at those shapes BLAS beats sparse kernels handily.

Cost hooks report nnz-proportional FLOPs so counters reflect the work
the kernels actually do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

try:
    from scipy import sparse as _sp
except ImportError:  # pragma: no cover - scipy is a soft dependency
    _sp = None

from ..cost import flops
from . import SPARSE_MIN_DIM, SPARSIFY_BELOW, stores_sparse
from .base import MatrixLike
from .dense import DenseBackend


def _dense(out):
    """``out`` when it is a dense buffer, else ``None`` (allocate)."""
    return out if isinstance(out, np.ndarray) else None


def _require_scipy() -> None:
    if _sp is None:  # pragma: no cover - exercised only without scipy
        raise RuntimeError(
            "SparseBackend requires scipy; install it or use DenseBackend"
        )


class SparseBackend(DenseBackend):
    """CSR kernels for large sparse state, dense fallback elsewhere.

    Parameters
    ----------
    min_sparse_dim:
        Matrices with either dimension below this stay dense (sparse
        formats only pay off at scale).
    sparsify_below:
        Density at or under which a large input is converted to CSR.
    densify_above:
        Density above which a sparse *result* is materialized dense.
        Must exceed ``sparsify_below`` (hysteresis).
    """

    name = "sparse"

    def __init__(
        self,
        min_sparse_dim: int = SPARSE_MIN_DIM,
        sparsify_below: float = SPARSIFY_BELOW,
        densify_above: float = 0.35,
    ):
        _require_scipy()
        if densify_above <= sparsify_below:
            raise ValueError(
                "densify_above must exceed sparsify_below (hysteresis)"
            )
        self.min_sparse_dim = int(min_sparse_dim)
        self.sparsify_below = float(sparsify_below)
        self.densify_above = float(densify_above)

    # -- representation policy -------------------------------------------
    def _is_sparse(self, a: MatrixLike) -> bool:
        return _sp.issparse(a)

    def _worth_sparse_shape(self, rows: int, cols: int) -> bool:
        return min(rows, cols) >= self.min_sparse_dim

    def _finalize(self, a: MatrixLike) -> MatrixLike:
        """Post-op normalization: densify sparse results that filled in."""
        if not self._is_sparse(a):
            return a
        rows, cols = a.shape
        if not self._worth_sparse_shape(rows, cols):
            return np.asarray(a.todense(), dtype=np.float64)
        if self.density(a) > self.densify_above:
            return np.asarray(a.todense(), dtype=np.float64)
        if not isinstance(a, _sp.csr_array):
            a = _sp.csr_array(a)
        return a

    # -- construction ----------------------------------------------------
    def asarray(self, value: MatrixLike, copy: bool = False) -> MatrixLike:
        if self._is_sparse(value):
            if value.ndim != 2:
                raise ValueError(f"matrix must be 2-D, got ndim={value.ndim}")
            out = _sp.csr_array(value, dtype=np.float64)
            if copy:
                # csr_array(S) may share S's index/data buffers; a full
                # copy is cheap next to the aliasing bugs it prevents.
                out = out.copy()
            return self._finalize(out)
        # Measure first: a matrix that becomes CSR is never copied as
        # dense (the conversion allocates its own buffers), so only
        # what stays dense pays for ``copy``.
        arr = super().asarray(value)
        rows, cols = arr.shape
        if self._worth_sparse_shape(rows, cols):
            nnz = int(np.count_nonzero(arr))
            if nnz <= self.sparsify_below * arr.size:
                return _sp.csr_array(arr)
        if copy and np.may_share_memory(arr, value):
            arr = arr.copy()
        return arr

    def from_columns(self, shape, indptr, indices, data) -> MatrixLike:
        rows, cols = shape
        if (
            self._worth_sparse_shape(rows, cols)
            and len(data) <= self.sparsify_below * rows * cols
        ):
            # Same entry rule as asarray; CSC -> CSR is one O(nnz) pass
            # into fresh buffers with sorted column indices.
            return _sp.csc_array((data, indices, indptr), shape=shape).tocsr()
        return super().from_columns(shape, indptr, indices, data)

    def eye(self, n: int) -> MatrixLike:
        if n >= self.min_sparse_dim:
            return _sp.eye_array(n, format="csr", dtype=np.float64)
        return np.eye(n)

    def zeros(self, rows: int, cols: int) -> MatrixLike:
        if self._worth_sparse_shape(rows, cols):
            return _sp.csr_array((rows, cols), dtype=np.float64)
        return np.zeros((rows, cols))

    # -- algebra ---------------------------------------------------------
    # CSR results cannot be written into caller buffers (the output's
    # nnz structure is data-dependent), so each kernel honors ``out``
    # only on its all-dense leg and allocates on the CSR one — thin
    # dense factor blocks, which dominate factored propagation, still
    # run allocation-free.  An ``out`` that is itself CSR (a REEVAL list
    # computing into a view stored as CSR) is not a buffer: the dense
    # leg allocates then too.

    def matmul_into(self, a: MatrixLike, b: MatrixLike,
                    out=None) -> MatrixLike:
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            return np.matmul(a, b, out=_dense(out))
        return self._finalize(a @ b)

    def add_into(self, a: MatrixLike, b: MatrixLike, out=None) -> MatrixLike:
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            return np.add(a, b, out=_dense(out))
        if self._is_sparse(a) and not self._is_sparse(b):
            # csr + dense yields dense; keep operand order np-friendly.
            return np.asarray(a.todense() + b)
        return self._finalize(a + b)

    def sub_into(self, a: MatrixLike, b: MatrixLike, out=None) -> MatrixLike:
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            return np.subtract(a, b, out=_dense(out))
        if self._is_sparse(a) and not self._is_sparse(b):
            return np.asarray(a.todense() - b)
        return self._finalize(a - b)

    def scale_into(self, coeff: float, a: MatrixLike,
                   out=None) -> MatrixLike:
        if isinstance(a, np.ndarray):
            return np.multiply(coeff, a, out=_dense(out))
        return self._finalize(a * coeff)

    def hstack_into(self, blocks: Sequence[MatrixLike],
                    out=None) -> MatrixLike:
        blocks = list(blocks)
        if any(self._is_sparse(b) for b in blocks):
            return self._finalize(_sp.hstack(blocks, format="csr"))
        return np.concatenate(blocks, axis=1, out=_dense(out))

    def vstack_into(self, blocks: Sequence[MatrixLike],
                    out=None) -> MatrixLike:
        blocks = list(blocks)
        if any(self._is_sparse(b) for b in blocks):
            return self._finalize(_sp.vstack(blocks, format="csr"))
        return np.concatenate(blocks, axis=0, out=_dense(out))

    def add_inplace(self, a: MatrixLike, b: MatrixLike) -> MatrixLike:
        if isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
            a += b
            return a
        if isinstance(a, np.ndarray):  # dense += sparse
            a += b.todense()
            return a
        return self._finalize(a + b)

    def _merge_outer(
        self, a: MatrixLike, u: np.ndarray, v: np.ndarray
    ) -> MatrixLike:
        """``a + u v'`` for CSR ``a``: merged CSR, or dense on fill-in.

        The delta is laid out as CSR straight from each factor column's
        nonzero rows, so building it costs ``O(nnz(u v'))`` — the size
        of the change, not of ``a`` and not of a generic sparse product.
        """
        u = np.asarray(u, dtype=np.float64).reshape(len(u), -1)
        v = np.asarray(v, dtype=np.float64).reshape(len(v), -1)
        # Expected nnz of U V' (columnwise outer products); if the delta
        # would fill the matrix in, stop fighting it and go dense: the
        # sparse merge (and the pattern comparison after it) costs ~3x
        # one dense dgemm there.
        u_nnz = np.count_nonzero(u, axis=0)
        v_nnz = np.count_nonzero(v, axis=0)
        est_nnz = int((u_nnz * v_nnz).sum()) + a.nnz
        if est_nnz > self.densify_above * a.shape[0] * a.shape[1]:
            dense = np.asarray(a.todense())
            return super().add_outer_inplace(dense, u, v)
        if est_nnz == a.nnz:  # rank 0, or all-zero factors
            return a
        # a's own index type keeps the merge free of an index upcast.
        index = a.indices.dtype
        if est_nnz > np.iinfo(index).max:
            index = np.int64
        delta = None
        for k in range(u.shape[1]):
            # One factor column's outer product is already canonical
            # CSR: |rows| runs of the same sorted column indices.
            hit_rows = np.flatnonzero(u[:, k])
            hit_cols = np.flatnonzero(v[:, k])
            indptr = np.zeros(a.shape[0] + 1, dtype=index)
            indptr[hit_rows + 1] = hit_cols.size
            np.cumsum(indptr, out=indptr)
            term = _sp.csr_array(
                (np.outer(u[hit_rows, k], v[hit_cols, k]).reshape(-1),
                 np.tile(hit_cols.astype(index), hit_rows.size), indptr),
                shape=a.shape,
            )
            delta = term if delta is None else delta + term
        return a + delta

    def add_outer_inplace(
        self, a: MatrixLike, u: np.ndarray, v: np.ndarray
    ) -> MatrixLike:
        """``a += u v'`` reusing ``a``'s CSR index arrays when they fit.

        A factored update whose nonzeros all land on ``a``'s existing
        sparsity pattern (row rewrites over already-connected vertices,
        cell bumps on existing edges) leaves the structure unchanged —
        only ``a.data`` moves.  In that case the stored matrix keeps its
        identity and its ``indptr``/``indices`` buffers; otherwise the
        merged matrix is returned (allocation is unavoidable when the
        structure itself grows).
        """
        if not self._is_sparse(a):
            return super().add_outer_inplace(a, u, v)
        merged = self._merge_outer(a, u, v)
        if (
            self._is_sparse(merged)
            and merged.nnz == a.nnz
            and np.array_equal(merged.indptr, a.indptr)
            and np.array_equal(merged.indices, a.indices)
        ):
            a.data[:] = merged.data
            return a
        return self._finalize(merged)

    def transpose(self, a: MatrixLike) -> MatrixLike:
        if self._is_sparse(a):
            return _sp.csr_array(a.T)
        return a.T

    def inv(self, a: MatrixLike) -> np.ndarray:
        # Inverses of sparse matrices are generically dense; solve dense.
        return np.linalg.inv(self.materialize(a))

    def max_abs(self, a: MatrixLike) -> float:
        if self._is_sparse(a):
            return float(np.max(np.abs(a.data))) if a.nnz else 0.0
        return super().max_abs(a)

    # -- factored-delta kernels ------------------------------------------
    def compact(
        self, u: np.ndarray, v: np.ndarray, rtol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        # Factors are thin: dense QR/SVD is the right kernel even here.
        return super().compact(self.materialize(u), self.materialize(v), rtol)

    # -- inspection ------------------------------------------------------
    def is_native(self, value: MatrixLike) -> bool:
        return self._is_sparse(value) or super().is_native(value)

    def nbytes(self, a: MatrixLike) -> int:
        if self._is_sparse(a):
            return int(a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)
        return super().nbytes(a)

    def density(self, a: MatrixLike) -> float:
        if self._is_sparse(a):
            size = a.shape[0] * a.shape[1]
            return float(a.nnz) / size if size else 0.0
        return 1.0

    # -- predictive cost hooks (planner) ---------------------------------
    #: Wall-time penalty of one sparse-kernel FLOP versus one dense BLAS
    #: FLOP (indirect indexing, no vectorized fused multiply-adds).  The
    #: planner uses it so near-threshold densities don't flap to sparse.
    est_overhead: float = 4.0

    #: Penalty of one *structure-mutating* FLOP (``add_outer_inplace``'s CSR
    #: merge/rebuild) — index arrays are reallocated and re-sorted, which
    #: costs far more per touched entry than a streaming matvec pass.
    #: Shipped equal to :attr:`est_overhead`; machine calibration
    #: (:mod:`repro.calibrate`) fits the two independently.
    est_update_overhead: float = 4.0

    #: Penalty of one sparse x sparse product FLOP.  The expected-count
    #: model ``2 nnz_a nnz_b / m`` prices multiply-adds only; real CSR
    #: spgemm also allocates, gathers and sorts the result structure,
    #: which measures at 1-2 orders of magnitude above the flop count.
    #: Shipped as a conservative lower bound; calibration fits the
    #: machine's true value.
    est_spgemm_overhead: float = 32.0

    #: CSR kernel calls pay index validation and format dispatch on top
    #: of the Python-level cost every backend has.
    est_call_overhead_flops: float = 30_000.0

    #: In-place execution saves less here than on dense state: CSR
    #: results still allocate structure, so only the dense (thin-factor)
    #: legs of a lowered trigger shed their allocator traffic.
    est_inplace_discount: float = 0.85

    def est_stored_density(self, rows: int, cols: int, density: float) -> float:
        if stores_sparse(rows, cols, density,
                         self.min_sparse_dim, self.sparsify_below):
            return float(density)
        return 1.0

    def est_matmul_flops(
        self,
        a_shape: tuple[int, int],
        b_shape: tuple[int, int],
        a_density: float = 1.0,
        b_density: float = 1.0,
    ) -> float:
        n, m = a_shape
        p = b_shape[1]
        da = self.est_stored_density(n, m, a_density)
        db = self.est_stored_density(m, p, b_density)
        a_sp, b_sp = da < 1.0, db < 1.0
        if not a_sp and not b_sp:
            return super().est_matmul_flops(a_shape, b_shape)
        nnz_a = da * n * m
        nnz_b = db * m * p
        if a_sp and b_sp:
            work = max(2.0 * nnz_a * nnz_b / max(m, 1), 2.0 * nnz_a)
            return self.est_spgemm_overhead * work
        if a_sp:
            work = 2.0 * nnz_a * p
        else:
            work = 2.0 * n * nnz_b
        return self.est_overhead * work

    def est_add_flops(
        self, shape: tuple[int, int], density: float = 1.0
    ) -> float:
        d = self.est_stored_density(*shape, density)
        if d < 1.0:
            return self.est_overhead * d * shape[0] * shape[1]
        return super().est_add_flops(shape)

    def est_add_outer_flops(
        self,
        shape: tuple[int, int],
        density: float = 1.0,
        rank: int = 1,
        u_nnz_per_col: float | None = None,
    ) -> float:
        rows, cols = shape
        d = self.est_stored_density(rows, cols, density)
        if d >= 1.0:
            return super().est_add_outer_flops(shape, density, rank, u_nnz_per_col)
        upc = rows if u_nnz_per_col is None else u_nnz_per_col
        # Sparse outer accumulation: the delta's nonzeros plus a CSR
        # structure rebuild touching the state's nonzeros.
        return self.est_update_overhead * (
            2.0 * upc * cols * rank + d * rows * cols
        )

    # -- cost hooks ------------------------------------------------------
    def matmul_flops(self, a: MatrixLike, b: MatrixLike) -> int:
        a_sp, b_sp = self._is_sparse(a), self._is_sparse(b)
        n, m = a.shape
        p = b.shape[1]
        if a_sp and b_sp:
            # Expected count for random sparsity patterns.
            return max(2 * int(a.nnz) * int(b.nnz) // max(m, 1), 2 * int(a.nnz))
        if a_sp:
            return 2 * int(a.nnz) * p
        if b_sp:
            return 2 * n * int(b.nnz)
        return flops.matmul_flops(n, m, p)

    def add_flops(self, a: MatrixLike) -> int:
        if self._is_sparse(a):
            return int(a.nnz)
        return super().add_flops(a)

    def scale_flops(self, a: MatrixLike) -> int:
        if self._is_sparse(a):
            return int(a.nnz)
        return super().scale_flops(a)

    def __repr__(self) -> str:
        return (
            f"SparseBackend(min_sparse_dim={self.min_sparse_dim}, "
            f"sparsify_below={self.sparsify_below}, "
            f"densify_above={self.densify_above})"
        )
