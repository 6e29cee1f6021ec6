"""Batch-update compaction: ship the rank, not the update count.

Table 4's finding is that the cost of an incremental batch refresh is
driven by the *rank* of the batched delta, not by how many rank-1
updates the batch contains — a Zipf-skewed batch of 1000 row updates
touching 10 distinct rows is a rank-10 change.  Stacking the updates
naively gives factors of width = batch size; this module compresses
them to the numerical rank first:

    U V'  =  Q_u (R_u R_v') Q_v'          (thin QR of each factor)
          =  Q_u (W S Z') Q_v'            (SVD of the small core)
          =  (Q_u W S) (Q_v Z)'           (rank r <= batch size)

at ``O(n m^2 + m^3)`` for an ``m``-update batch — cheap relative to the
``O(n^2)``-per-unit-width propagation it saves downstream.

:class:`BatchCollector` wraps the workflow: accumulate factored updates
(rank-1 pairs or wider blocks), ``flush()`` one compacted rank-``r``
refresh into any maintainer whose ``refresh(u, v)`` accepts ``(n x k)``
factors (all the iterative and distributed maintainers do).
The flush *policy* — width and staleness bounds, flush-on-read, for
sessions and ``refresh(u, v)`` drivers alike — lives one layer up in
:mod:`repro.runtime.batching`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..backends import get_backend
from ..backends.base import DEFAULT_RTOL


def _as_block(factor: np.ndarray) -> np.ndarray:
    """Normalize one factor to a 2-D float64 block (1-D becomes a column)."""
    block = np.asarray(factor, dtype=np.float64)
    if block.ndim == 1:
        block = block.reshape(-1, 1)
    if block.ndim != 2:
        raise ValueError(f"factor blocks must be 1- or 2-D, got ndim={block.ndim}")
    return block


def stack_updates(
    updates: Sequence[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """Naive batching: column-stack the factor pairs (width = total rank).

    Each pair may be a rank-1 update (vectors or ``(n x 1)`` columns) or
    an already-factored rank-``k`` block; widths accumulate.  Width-0
    blocks contribute nothing (a zero update is a legal event).
    """
    if not updates:
        raise ValueError("cannot stack an empty batch")
    lefts, rights = [], []
    for u, v in updates:
        u = _as_block(u)
        v = _as_block(v)
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factor widths disagree: {u.shape} vs {v.shape}"
            )
        lefts.append(u)
        rights.append(v)
    return np.hstack(lefts), np.hstack(rights)


def compact_factors(
    u: np.ndarray,
    v: np.ndarray,
    rtol: float = DEFAULT_RTOL,
    backend=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Minimal-rank factors ``(L, R)`` with ``L R' == U V'`` numerically.

    The result width is the numerical rank of ``U V'`` (relative
    threshold ``rtol`` on the core's singular values).  A zero update
    compacts to width-0 factors.  The QR/SVD kernel is the backend's
    :meth:`~repro.backends.base.Backend.compact` (factors are thin, so
    every backend runs it dense).
    """
    return get_backend(backend).compact(u, v, rtol)


def compact_updates(
    updates: Sequence[tuple[np.ndarray, np.ndarray]],
    rtol: float = DEFAULT_RTOL,
    backend=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Stack a batch of factored updates and compress to numerical rank."""
    return compact_factors(*stack_updates(updates), rtol=rtol, backend=backend)


class BatchCollector:
    """Accumulates factored updates; flushes one compacted rank-r refresh.

    ``rank_cap`` optionally forces a flush-side truncation (lossy — use
    only when the application tolerates approximate views; the dropped
    mass is returned so callers can monitor it).  ``backend`` supplies
    the compaction kernel and should match the maintainer being flushed
    into so the factors arrive in a form its kernels accept.
    """

    def __init__(
        self,
        rtol: float = DEFAULT_RTOL,
        rank_cap: int | None = None,
        backend=None,
    ):
        if rank_cap is not None and rank_cap < 1:
            raise ValueError("rank_cap must be positive")
        self.rtol = rtol
        self.rank_cap = rank_cap
        self.backend = get_backend(backend)
        self._pending: list[tuple[np.ndarray, np.ndarray]] = []

    def __len__(self) -> int:
        """Number of queued update events (not their total width)."""
        return len(self._pending)

    @property
    def pending_width(self) -> int:
        """Total stacked factor width of the queued updates."""
        return sum(u.shape[1] for u, _ in self._pending)

    def add(self, u: np.ndarray, v: np.ndarray) -> None:
        """Queue one factored update ``u v'`` (rank-1 or a wider block)."""
        u = _as_block(u)
        v = _as_block(v)
        if u.shape[1] != v.shape[1]:
            raise ValueError(
                f"factor widths disagree: {u.shape} vs {v.shape}"
            )
        self._pending.append((u, v))

    def clear(self) -> None:
        """Drop all queued updates without applying them."""
        self._pending.clear()

    def compacted(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The pending batch as ``(L, R, dropped)`` without clearing it.

        ``dropped`` is the spectral norm of the truncated remainder
        (0.0 unless ``rank_cap`` cut actual mass).
        """
        left, right = compact_updates(self._pending, self.rtol,
                                      backend=self.backend)
        dropped = 0.0
        if self.rank_cap is not None and left.shape[1] > self.rank_cap:
            # Factors arrive singular-value ordered from the SVD core.
            norms = np.linalg.norm(left, axis=0) * np.linalg.norm(right, axis=0)
            dropped = float(norms[self.rank_cap])
            left = left[:, :self.rank_cap]
            right = right[:, :self.rank_cap]
        return left, right, dropped

    def flush(self, maintainer) -> tuple[int, int, float]:
        """Refresh ``maintainer`` with the compacted batch and clear it.

        Returns ``(batch_size, compacted_rank, dropped)``.  An empty
        collector is a no-op returning ``(0, 0, 0.0)``.  A batch that
        cancels to numerical rank 0 clears without touching the
        maintainer (the zero update is a no-op by definition).
        """
        if not self._pending:
            return 0, 0, 0.0
        size = len(self._pending)
        left, right, dropped = self.compacted()
        if left.shape[1] > 0:
            maintainer.refresh(left, right)
        self._pending.clear()
        return size, left.shape[1], dropped


__all__ = [
    "BatchCollector",
    "DEFAULT_RTOL",
    "compact_factors",
    "compact_updates",
    "stack_updates",
]
