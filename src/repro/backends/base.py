"""The numeric kernel interface every execution backend implements.

LINVIEW's maintenance machinery is representation-agnostic: triggers,
delta derivation and the iterative-model recurrences only need a small
algebra of matrix operations.  F-IVM (Kara et al.) makes the analogous
point for rings of aggregates; here the abstraction is over the
*physical* value domain — dense NumPy arrays today, SciPy CSR matrices
for graph-shaped inputs, and (eventually) GPU or out-of-core blocks.

A :class:`Backend` bundles

* **construction** — :meth:`asarray`, :meth:`from_columns`, :meth:`eye`,
  :meth:`zeros`;
* **algebra** — :meth:`matmul_into`, :meth:`add_into`,
  :meth:`sub_into`, :meth:`scale_into`, :meth:`hstack_into`,
  :meth:`vstack_into`, :meth:`transpose`, :meth:`inv`, :meth:`max_abs`.
  One method per operation, each with an optional ``out`` buffer:
  ``out=None`` allocates the result, a buffer (usually leased from a
  :class:`~repro.runtime.workspace.Workspace`) receives it *when the
  representation allows* — the allocation-free hot path;
* **update kernels** — :meth:`add_outer_inplace` (the trigger statement
  ``A += U V'``), :meth:`add_inplace` and :meth:`compact` (rank
  compaction of factored deltas, the Table 4 batching step);
* **cost hooks** — ``*_flops`` formulas so the FLOP counters charge
  what the representation actually performs (a sparse matvec is *not*
  ``2 n^2`` work, and reporting it as such would fake the paper's
  complexity plots);
* **inspection** — :meth:`materialize`, :meth:`shape`, :meth:`nbytes`,
  :meth:`density`.

Every kernel returns its result, and callers must always use the
returned object: a backend that cannot honor ``out`` or mutate in
place (CSR structure changes) allocates instead.  Factored-delta blocks
(thin ``(n x k)`` matrices) stay dense ``ndarray``\\ s under every
backend — their products are already cheap, and keeping them dense is
what makes factored updates fast on sparse state too.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

#: A backend value: a 2-D ``ndarray`` or a backend-specific matrix type.
MatrixLike = Any

#: Relative singular-value threshold of :meth:`Backend.compact`: values
#: below ``rtol * s_max`` count as rank-deficient.  The default of
#: :mod:`repro.delta.batch` and of every deferral policy, defined here
#: so that a session can name it without loading either.
DEFAULT_RTOL = 1e-12


class Backend(ABC):
    """Abstract numeric kernel used by the executor and maintainers."""

    #: Registry key and display name (``"dense"``, ``"sparse"``, ...).
    name: str = "abstract"

    # -- construction ----------------------------------------------------
    @abstractmethod
    def asarray(self, value: MatrixLike, copy: bool = False) -> MatrixLike:
        """Normalize ``value`` into this backend's preferred 2-D form.

        1-D input becomes a column; ``copy=True`` guarantees the result
        does not alias caller memory (maintainers that mutate state in
        place rely on this).
        """

    @abstractmethod
    def from_columns(
        self,
        shape: tuple[int, int],
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
    ) -> MatrixLike:
        """A freshly allocated matrix from compressed columns.

        Column ``j`` holds ``data[indptr[j]:indptr[j + 1]]`` at the rows
        ``indices[indptr[j]:indptr[j + 1]]`` (unique within a column).
        This is the one place that decides the stored format of a
        matrix described by its nonzeros: callers holding a graph as
        edge lists never build the dense image to hand it over.
        """

    @abstractmethod
    def eye(self, n: int) -> MatrixLike:
        """The ``(n x n)`` identity in this backend's representation."""

    @abstractmethod
    def zeros(self, rows: int, cols: int) -> MatrixLike:
        """An all-zero ``(rows x cols)`` matrix."""

    # -- algebra ---------------------------------------------------------
    # One method per operation; ``out=None`` allocates, a buffer is
    # written where the representation allows (see the module docs).
    # ``out`` never aliases an operand of a product or a concatenation.

    @abstractmethod
    def matmul_into(self, a: MatrixLike, b: MatrixLike,
                    out=None) -> MatrixLike:
        """Matrix product ``a @ b`` (in the expression's association order)."""

    @abstractmethod
    def add_into(self, a: MatrixLike, b: MatrixLike, out=None) -> MatrixLike:
        """Element-wise sum ``a + b``.

        ``out`` *may* alias ``a`` or ``b`` (element-wise kernels accept
        overlapping input/output), which is how ``+=`` accumulation is
        expressed: ``add_into(acc, term, acc)``.
        """

    @abstractmethod
    def sub_into(self, a: MatrixLike, b: MatrixLike, out=None) -> MatrixLike:
        """Element-wise difference ``a - b``."""

    @abstractmethod
    def scale_into(self, coeff: float, a: MatrixLike,
                   out=None) -> MatrixLike:
        """Scalar multiple ``coeff * a``."""

    @abstractmethod
    def hstack_into(self, blocks: Sequence[MatrixLike],
                    out=None) -> MatrixLike:
        """Horizontal concatenation."""

    @abstractmethod
    def vstack_into(self, blocks: Sequence[MatrixLike],
                    out=None) -> MatrixLike:
        """Vertical concatenation."""

    @abstractmethod
    def add_inplace(self, a: MatrixLike, b: MatrixLike) -> MatrixLike:
        """``a += b`` where possible; returns the result (may be new).

        Unlike ``add_into(a, b, a)``, which writes only when both
        operands are dense, this accumulates a sparse ``b`` into a
        dense ``a`` in place too.
        """

    @abstractmethod
    def add_outer_inplace(
        self, a: MatrixLike, u: np.ndarray, v: np.ndarray
    ) -> MatrixLike:
        """The trigger update ``a += u @ v.T`` for thin factor blocks.

        Callers hand over ``a`` knowing it may be mutated; the result
        is returned either way, and sparse backends may return a new
        (possibly densified) matrix.
        """

    @abstractmethod
    def transpose(self, a: MatrixLike) -> MatrixLike:
        """Transpose (no arithmetic)."""

    @abstractmethod
    def inv(self, a: MatrixLike) -> MatrixLike:
        """Matrix inverse (dense result; inverses are generically dense)."""

    @abstractmethod
    def max_abs(self, a: MatrixLike) -> float:
        """``max |a_ij|`` (drift monitoring); 0.0 for an empty matrix."""

    # -- factored-delta kernels ------------------------------------------
    @abstractmethod
    def compact(
        self, u: np.ndarray, v: np.ndarray, rtol: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Minimal-rank thin factors ``(L, R)`` with ``L R' == u v'``.

        Factors are dense thin blocks under every backend; see
        :mod:`repro.delta.batch` for the QR/SVD derivation.
        """

    # -- inspection ------------------------------------------------------
    @abstractmethod
    def materialize(self, a: MatrixLike) -> np.ndarray:
        """A dense float64 ``ndarray`` copy-or-view of ``a``."""

    @abstractmethod
    def is_native(self, value: MatrixLike) -> bool:
        """Whether ``value`` is already in a form this backend executes."""

    def shape(self, a: MatrixLike) -> tuple[int, int]:
        """Global ``(rows, cols)``."""
        return a.shape

    @abstractmethod
    def nbytes(self, a: MatrixLike) -> int:
        """Bytes of storage the representation actually holds."""

    @abstractmethod
    def density(self, a: MatrixLike) -> float:
        """Fraction of stored entries (1.0 for dense)."""

    # -- predictive cost hooks (planner) ---------------------------------
    # The ``*_flops`` hooks below charge work *performed* on concrete
    # matrices; these ``est_*`` hooks predict the same quantities from
    # shapes and densities alone, so the cost model can rank backends
    # before any state exists.  Estimates follow each backend's
    # representation policy: a backend that would store a given
    # (shape, density) densely must estimate dense costs for it.

    #: Fixed cost of one kernel invocation, in dense-FLOP equivalents.
    #: Python dispatch + allocation + library call setup costs the same
    #: whether operands are thin or square, so plans that trade a few
    #: big products for many matrix–vector-shaped calls must be charged
    #: per call as well as per flop.
    est_call_overhead_flops: float = 10_000.0

    #: Fraction of the per-call overhead a kernel still pays when it
    #: runs through the in-place / ``out=`` path (no result allocation,
    #: no allocator round-trip, warmer caches).  Ships as a conservative
    #: class constant; ``repro calibrate`` measures the machine's true
    #: in-place vs out-of-place gap and overwrites it.
    est_inplace_discount: float = 0.5

    #: Memory passes per stored entry of converting state into or out of
    #: this backend's representation (the re-planning switch cost:
    #: :meth:`ReplanMonitor._switch_cost`).  The shipped 2.0 matches the
    #: pre-calibration fixed constant; ``repro calibrate`` fits it from
    #: timed conversions.
    est_convert_passes_per_entry: float = 2.0

    #: Effective FLOPs per ``m^3`` of the small core SVD inside
    #: :meth:`compact` (the QR+SVD batch compaction of
    #: :mod:`repro.delta.batch`).  LAPACK's ``gesdd`` runs a few dozen
    #: passes over the ``m x m`` core; the shipped 22.0 matches the
    #: pre-calibration constant in :func:`repro.cost.estimate.compaction_cost`,
    #: and ``repro calibrate`` fits the machine's true value from timed
    #: compactions.
    est_compaction_factor: float = 22.0

    #: Fixed cost of one coordinator->worker IPC round-trip, in
    #: dense-FLOP equivalents (pipe send + pickle + scheduler wakeup).
    #: Shipped from pipe measurements on a development box;
    #: ``repro calibrate`` re-fits it from a timed spawn-pipe echo
    #: microbenchmark.
    est_ipc_call_flops: float = 50_000.0

    #: Dense-FLOP equivalents per byte moved over an IPC pipe
    #: (~flop_rate / pipe_bandwidth).  Also re-fitted by calibration.
    est_ipc_flops_per_byte: float = 2.0

    def est_call_overhead(self, inplace: bool = False) -> float:
        """Per-call overhead in dense-FLOP equivalents.

        ``inplace=True`` prices a call handed an ``out`` buffer
        (lowered triggers, workspace-backed maintainers), discounting
        the allocation/temporary share of the overhead.
        """
        if inplace:
            return self.est_call_overhead_flops * self.est_inplace_discount
        return self.est_call_overhead_flops

    def est_broadcast(self, nbytes: float, remote: int) -> float:
        """Predicted cost (dense-FLOP equivalents) of broadcasting
        ``nbytes`` from the coordinator to each of ``remote`` workers.

        Over pipes every worker receives its own copy, so both the
        per-message overhead and the bytes scale with the worker count.
        Zero at ``remote < 1``: a node in this process ships nothing.
        """
        if remote < 1:
            return 0.0
        return remote * (self.est_ipc_call_flops
                         + nbytes * self.est_ipc_flops_per_byte)

    def est_shuffle(self, nbytes: float, remote: int) -> float:
        """Predicted cost of gathering ``nbytes`` total from ``remote``
        workers (each byte crosses a pipe once; one message per worker)."""
        if remote < 1:
            return 0.0
        return (remote * self.est_ipc_call_flops
                + nbytes * self.est_ipc_flops_per_byte)

    def est_stored_density(self, rows: int, cols: int, density: float) -> float:
        """Density at which this backend would *store* such a matrix.

        1.0 means dense storage (the base-class default); sparse
        backends return ``density`` for operands they would keep in a
        compressed format.
        """
        return 1.0

    def est_matmul_flops(
        self,
        a_shape: tuple[int, int],
        b_shape: tuple[int, int],
        a_density: float = 1.0,
        b_density: float = 1.0,
    ) -> float:
        """Predicted FLOPs of ``a @ b`` given shapes and densities."""
        n, m = a_shape
        p = b_shape[1]
        return float(2 * n * m * p)

    def est_add_flops(
        self, shape: tuple[int, int], density: float = 1.0
    ) -> float:
        """Predicted FLOPs of an element-wise add at ``shape``."""
        return float(shape[0] * shape[1])

    def est_add_outer_flops(
        self,
        shape: tuple[int, int],
        density: float = 1.0,
        rank: int = 1,
        u_nnz_per_col: float | None = None,
    ) -> float:
        """Predicted FLOPs of the update kernel ``a += U V'``.

        ``u_nnz_per_col`` bounds the nonzeros per column of ``U`` (row
        or edge updates carry indicator columns with a single nonzero);
        ``None`` means dense factor columns.
        """
        rows, cols = shape
        return float(2 * rows * rank * cols)

    def est_entries(
        self, shape: tuple[int, int], density: float = 1.0
    ) -> float:
        """Predicted stored entries (the space unit of Tables 2/3)."""
        rows, cols = shape
        return float(rows * cols) * self.est_stored_density(rows, cols, density)

    # -- cost hooks ------------------------------------------------------
    @abstractmethod
    def matmul_flops(self, a: MatrixLike, b: MatrixLike) -> int:
        """FLOPs the backend performs for ``a @ b``."""

    def add_outer_flops(self, a: MatrixLike, u, v) -> int:
        """FLOPs of applying ``a += u @ v.T`` under this backend.

        Dense state pays the full rank-k GEMM; sparse state accumulates a
        sparse outer product whose work scales with the factors' nonzeros.
        """
        rows, cols = self.shape(a)
        k = u.shape[1]
        if self.density(a) < 1.0:
            u_nnz = int(np.count_nonzero(u))
            v_nnz = int(np.count_nonzero(v))
            return 2 * max(u_nnz, 1) * max(v_nnz, 1) // max(k, 1)
        return 2 * rows * k * cols

    @abstractmethod
    def add_flops(self, a: MatrixLike) -> int:
        """FLOPs of an element-wise add shaped like ``a``."""

    @abstractmethod
    def scale_flops(self, a: MatrixLike) -> int:
        """FLOPs of scaling ``a``."""

    @abstractmethod
    def inverse_flops(self, a: MatrixLike) -> int:
        """FLOPs of inverting the square matrix ``a``."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"
