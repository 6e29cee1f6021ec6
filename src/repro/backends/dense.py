"""Dense NumPy execution backend (the seed semantics, unchanged).

Every operation runs on 2-D float64 ``ndarray``\\ s with the classical
kernels, and the cost hooks report the standard dense counts from
:mod:`repro.cost.flops` — so a session built on :class:`DenseBackend`
is FLOP-for-FLOP identical to the pre-backend executor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..cost import flops
from .base import Backend, MatrixLike

try:  # SciPy gives direct BLAS access for single-pass rank-k updates.
    from scipy.linalg import blas as _blas
except ImportError:  # pragma: no cover - scipy is a soft dependency
    _blas = None


class DenseBackend(Backend):
    """NumPy float64 kernels; the default backend."""

    name = "dense"

    # -- construction ----------------------------------------------------
    def asarray(self, value: MatrixLike, copy: bool = False) -> np.ndarray:
        arr = np.array(value, dtype=np.float64) if copy else np.asarray(
            value, dtype=np.float64
        )
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got ndim={arr.ndim}")
        return arr

    def from_columns(self, shape, indptr, indices, data) -> np.ndarray:
        out = np.zeros(shape)
        out[indices, np.repeat(np.arange(shape[1]), np.diff(indptr))] = data
        return out

    def eye(self, n: int) -> np.ndarray:
        return np.eye(n)

    def zeros(self, rows: int, cols: int) -> np.ndarray:
        return np.zeros((rows, cols))

    # -- algebra ---------------------------------------------------------
    # Every kernel is one BLAS/ufunc call with NumPy's own ``out=``:
    # ``None`` allocates, a buffer takes the result with zero allocation.

    def matmul_into(self, a: np.ndarray, b: np.ndarray,
                    out: np.ndarray | None = None) -> np.ndarray:
        return np.matmul(a, b, out=out)

    def add_into(self, a: np.ndarray, b: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        return np.add(a, b, out=out)

    def sub_into(self, a: np.ndarray, b: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
        return np.subtract(a, b, out=out)

    def scale_into(self, coeff: float, a: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        return np.multiply(coeff, a, out=out)

    def hstack_into(self, blocks: Sequence[np.ndarray],
                    out: np.ndarray | None = None) -> np.ndarray:
        return np.concatenate(list(blocks), axis=1, out=out)

    def vstack_into(self, blocks: Sequence[np.ndarray],
                    out: np.ndarray | None = None) -> np.ndarray:
        return np.concatenate(list(blocks), axis=0, out=out)

    def add_inplace(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a += b
        return a

    def add_outer_inplace(
        self, a: np.ndarray, u: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """``a += u @ v.T`` in one memory pass.

        Uses BLAS ``dgemm`` with ``beta = 1`` accumulating straight into
        ``a`` (via its transposed Fortran-order view), halving memory
        traffic against the materialize-then-add form — this is what the
        paper's generated BLAS backends do for ``A += U V'`` updates.
        Falls back to two passes when SciPy or the layout rules it out.
        """
        if (
            _blas is not None
            and isinstance(a, np.ndarray)
            and a.flags.c_contiguous
            and a.dtype == np.float64
            and u.dtype == np.float64
            and v.dtype == np.float64
        ):
            # a.T (Fortran view) = v @ u.T + a.T, computed in place.
            _blas.dgemm(1.0, v, u, beta=1.0, c=a.T, trans_b=True,
                        overwrite_c=1)
            return a
        a += u @ v.T
        return a

    def transpose(self, a: np.ndarray) -> np.ndarray:
        return a.T

    def inv(self, a: np.ndarray) -> np.ndarray:
        return np.linalg.inv(a)

    def max_abs(self, a: np.ndarray) -> float:
        return float(np.max(np.abs(a))) if a.size else 0.0

    # -- factored-delta kernels ------------------------------------------
    def compact(
        self, u: np.ndarray, v: np.ndarray, rtol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rank compaction via thin QR of each factor + SVD of the core.

        ``U V' = Q_u (R_u R_v') Q_v' = (Q_u W S)(Q_v Z)'`` at
        ``O(n m^2 + m^3)`` for width-``m`` factors; see
        :mod:`repro.delta.batch` for the batching context.
        """
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if u.ndim != 2 or v.ndim != 2 or u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factors must be (n x m)/(p x m), got {u.shape} and {v.shape}"
            )
        qu, ru = np.linalg.qr(u, mode="reduced")
        qv, rv = np.linalg.qr(v, mode="reduced")
        core = ru @ rv.T
        w, s, zt = np.linalg.svd(core, full_matrices=False)
        # Threshold against the *input* magnitude, not the core's own top
        # singular value — a batch that cancels to numerical zero must
        # compact to width 0, which a purely relative cutoff never does.
        scale = float(np.linalg.norm(ru) * np.linalg.norm(rv))
        if s.size and scale > 0.0:
            keep = s > rtol * scale
        else:
            keep = np.zeros(s.shape, dtype=bool)
        left = qu @ (w[:, keep] * s[keep])
        right = qv @ zt[keep].T
        return left, right

    # -- inspection ------------------------------------------------------
    def materialize(self, a: MatrixLike) -> np.ndarray:
        return np.asarray(a.toarray() if hasattr(a, "toarray") else a, dtype=np.float64)

    def is_native(self, value: MatrixLike) -> bool:
        return isinstance(value, np.ndarray) and value.ndim == 2

    def nbytes(self, a: np.ndarray) -> int:
        return int(a.nbytes)

    def density(self, a: np.ndarray) -> float:
        return 1.0

    # -- cost hooks ------------------------------------------------------
    def matmul_flops(self, a: np.ndarray, b: np.ndarray) -> int:
        n, m = a.shape
        p = b.shape[1]
        return flops.matmul_flops(n, m, p)

    def add_flops(self, a: np.ndarray) -> int:
        return flops.add_flops(*a.shape)

    def scale_flops(self, a: np.ndarray) -> int:
        return flops.scalar_mul_flops(*a.shape)

    def inverse_flops(self, a: np.ndarray) -> int:
        return flops.inverse_flops(a.shape[0])
