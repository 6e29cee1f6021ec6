"""Update events: the dynamic part of a workload.

The paper considers factored updates ``dX = U @ V'`` of small rank —
most commonly rank-1 row updates ("each update affects one row of an
input matrix", Section 7).  :class:`FactoredUpdate` carries the two
factor blocks; constructors cover the practical patterns:

* :func:`row_update` — change one row by a given vector (rank 1);
* :func:`cell_update` — change a single entry (rank 1);
* :func:`column_update` — change one column (rank 1);
* :func:`batch_row_update` — change many rows at once (rank = #rows),
  the Table 4 workload.

Malformed updates are rejected with a typed :class:`InvalidUpdateError`
— at construction for factor-width disagreement, and at the session
boundary (:meth:`Session.apply_update
<repro.runtime.session.Session.apply_update>`) for NaN/Inf entries and
shapes the target view cannot absorb — before any view or accumulator
is touched.  An update that leaves a maintained ``inv`` with no inverse
raises :class:`SingularUpdateError`, again with every input and view as
it was.
"""

from __future__ import annotations

import numpy as np


class InvalidUpdateError(ValueError):
    """A malformed update rejected before it could touch any state.

    Raised at the session boundary for non-finite factors (NaN/Inf —
    one such entry silently poisons every downstream view through
    ``add_outer``) and for factor shapes no view could absorb, and at
    construction for factor widths that disagree.  Subclasses
    ``ValueError`` so pre-existing callers catching that still work.
    """


#: Entries per row block of :func:`validate_finite_inputs`' scan: its
#: one boolean temporary is this many bytes, whatever the input's size.
FINITE_SCAN_BLOCK = 1 << 16


def _all_finite(entries: np.ndarray) -> bool:
    """Whether ``entries`` holds no NaN/Inf, scanned in row blocks of at
    most :data:`FINITE_SCAN_BLOCK` entries through one reused mask, up
    to the first block that holds one."""
    entries = np.atleast_1d(entries)
    rows = entries.shape[0]
    step = max(1, FINITE_SCAN_BLOCK // max(1, entries[:1].size))
    mask = np.empty((min(step, rows), *entries.shape[1:]), dtype=bool)
    for start in range(0, rows, step):
        block = entries[start:start + step]
        if not np.isfinite(block, out=mask[:len(block)]).all():
            return False
    return True


def validate_finite_inputs(inputs, names) -> None:
    """Raise :class:`InvalidUpdateError` naming the first of ``names``
    whose initial value holds a NaN/Inf (sparse: in its ``.data``)."""
    for name in names:
        value = inputs[name]
        entries = np.asarray(value if isinstance(value, np.ndarray)
                             else getattr(value, "data", value))
        if entries.dtype.kind in "fc" and not _all_finite(entries):
            raise InvalidUpdateError(
                f"non-finite entries in the initial value of {name!r}")


class SingularUpdateError(ValueError):
    """A well-formed update that would make an ``inv`` view singular.

    Raised by :meth:`Session.apply_update
    <repro.runtime.session.Session.apply_update>` under either strategy
    — INCR's Woodbury core or REEVAL's re-evaluated inverse has no
    inverse — with every input and view left as it was, so the session
    stays consistent and usable.
    """


class FactoredUpdate:
    """An additive factored update ``target += u_block @ v_block'``."""

    __slots__ = ("target", "u_block", "v_block")

    def __init__(self, target: str, u_block: np.ndarray, v_block: np.ndarray):
        u = np.asarray(u_block, dtype=np.float64)
        v = np.asarray(v_block, dtype=np.float64)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        if u.ndim != 2 or v.ndim != 2:
            raise InvalidUpdateError(
                f"factor blocks must be matrices, got shapes "
                f"{u.shape} and {v.shape} for {target!r}"
            )
        if u.shape[1] != v.shape[1]:
            raise InvalidUpdateError(
                f"factor widths disagree: {u.shape} vs {v.shape} for {target!r}"
            )
        self.target = target
        self.u_block = u
        self.v_block = v

    def validate_finite(self) -> None:
        """Raise :class:`InvalidUpdateError` on any NaN/Inf factor entry."""
        if not np.isfinite(self.u_block).all():
            raise InvalidUpdateError(
                f"non-finite entries in the left factor for {self.target!r}"
            )
        if not np.isfinite(self.v_block).all():
            raise InvalidUpdateError(
                f"non-finite entries in the right factor for {self.target!r}"
            )

    @property
    def rank(self) -> int:
        """Width of the factor blocks (the update's rank bound)."""
        return self.u_block.shape[1]

    def dense(self) -> np.ndarray:
        """Materialize the update as a dense matrix (tests, REEVAL path)."""
        return self.u_block @ self.v_block.T

    def __repr__(self) -> str:
        return (
            f"FactoredUpdate({self.target!r}, rank={self.rank}, "
            f"shape=({self.u_block.shape[0]} x {self.v_block.shape[0]}))"
        )


def cell_update(target: str, n_rows: int, n_cols: int, i: int, j: int,
                value: float) -> FactoredUpdate:
    """Rank-1 update adding ``value`` to entry ``(i, j)``."""
    u = np.zeros((n_rows, 1))
    v = np.zeros((n_cols, 1))
    u[i, 0] = value
    v[j, 0] = 1.0
    return FactoredUpdate(target, u, v)


def row_update(target: str, n_rows: int, row: int,
               delta_row: np.ndarray) -> FactoredUpdate:
    """Rank-1 update adding ``delta_row`` to row ``row``."""
    delta_row = np.asarray(delta_row, dtype=np.float64).reshape(-1)
    u = np.zeros((n_rows, 1))
    u[row, 0] = 1.0
    return FactoredUpdate(target, u, delta_row.reshape(-1, 1))


def column_update(target: str, n_cols: int, col: int,
                  delta_col: np.ndarray) -> FactoredUpdate:
    """Rank-1 update adding ``delta_col`` to column ``col``."""
    delta_col = np.asarray(delta_col, dtype=np.float64).reshape(-1)
    v = np.zeros((n_cols, 1))
    v[col, 0] = 1.0
    return FactoredUpdate(target, delta_col.reshape(-1, 1), v)


def batch_row_update(target: str, n_rows: int, rows: np.ndarray,
                     delta_rows: np.ndarray) -> FactoredUpdate:
    """Rank-k update changing ``k`` distinct rows at once (Table 4).

    ``rows`` holds the affected row indices; ``delta_rows`` is ``(k x
    n_cols)`` with one delta vector per affected row.  The factored form
    stacks the indicator vectors: ``U[:, t] = e_{rows[t]}``.
    """
    rows = np.asarray(rows, dtype=np.intp).reshape(-1)
    delta_rows = np.asarray(delta_rows, dtype=np.float64)
    if delta_rows.ndim != 2 or delta_rows.shape[0] != rows.shape[0]:
        raise ValueError(
            f"need one delta row per index: {rows.shape[0]} indices, "
            f"deltas {delta_rows.shape}"
        )
    if len(set(rows.tolist())) != rows.shape[0]:
        raise ValueError("batch rows must be distinct (merge duplicates first)")
    k = rows.shape[0]
    u = np.zeros((n_rows, k))
    u[rows, np.arange(k)] = 1.0
    return FactoredUpdate(target, u, delta_rows.T)
