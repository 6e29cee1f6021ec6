"""Ordinary least squares with incremental maintenance (Section 5.1).

The estimator ``beta* = inv(X'X) X'Y`` is maintained as four views::

    Z    = X'X            (n x n)
    W    = inv(Z)         (n x n)
    C    = X'Y            (n x p)
    beta = W C            (n x p)

For a rank-1 update ``X += u v'`` (Example 4.2/4.3):

* ``dZ = [v | X'u + v (u'u)] @ [X'u | v]'`` — two outer products;
* ``dW`` via Sherman–Morrison applied per outer product (the paper's
  Example 4.3) or one rank-2 Woodbury step — both ``O(n^2)``;
* ``dC = v (u'Y)'`` — one outer product;
* ``dbeta = dW C + W dC + dW dC`` evaluated in matrix–vector order.

Total incremental cost ``O(n^2 + mn + np + mp)`` versus re-evaluation's
``O(n^gamma + mn^2 + mnp)`` — the Fig. 3e experiment.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..cost.ops import Ops
from ..delta.inverse import SingularUpdateError, sherman_morrison_delta


class ReevalOLS:
    """Re-evaluation baseline: rebuild the whole model per update."""

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        self.ops = Ops(counter, backend)
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        self._recompute()

    def _recompute(self) -> None:
        ops = self.ops
        self.z = ops.mm(self.x.T, self.x)
        self.w = ops.inv(self.z)
        self.c = ops.mm(self.x.T, self.y)
        self.beta = ops.mm(self.w, self.c)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``X += u v'`` and recompute Z, W, C and beta."""
        u = u.reshape(-1, 1)
        v = v.reshape(-1, 1)
        self.x = self.ops.add(self.x, self.ops.mm(u, v.T))
        self._recompute()

    def memory_bytes(self) -> int:
        """Footprint of the model state."""
        return sum(m.nbytes for m in (self.x, self.y, self.z, self.w,
                                      self.c, self.beta))


class IncrementalOLS:
    """Incrementally maintained OLS (the INCR strategy of Fig. 3e).

    ``method`` selects the inverse-maintenance primitive:
    ``"sherman-morrison"`` (default; per-outer-product, Example 4.3) or
    ``"woodbury"`` (one rank-2 step).  Both raise
    :class:`~repro.delta.inverse.SingularUpdateError` when an update
    makes ``X'X`` singular, in which case callers should rebuild.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        method: str = "sherman-morrison",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        if method not in ("sherman-morrison", "woodbury"):
            raise ValueError(f"unknown method {method!r}")
        self.method = method
        self.ops = Ops(counter, backend)
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        ops = Ops()  # initial build not charged to refreshes
        self.z = ops.mm(self.x.T, self.x)
        self.w = np.linalg.inv(self.z)
        self.c = ops.mm(self.x.T, self.y)
        self.beta = ops.mm(self.w, self.c)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain Z, W, C, beta for ``X += u v'`` in ``O(n^2 + mn)``."""
        ops = self.ops
        u = u.reshape(-1, 1)
        v = v.reshape(-1, 1)

        # dZ = p1 q1' + p2 q2'   (Example 4.2, factored form of Sec. 5.1)
        xtu = ops.mm(self.x.T, u)                       # X'u       O(mn)
        utu = float((u.T @ u)[0, 0])
        # The raw-NumPy steps here (u'u, Sherman-Morrison / Woodbury) run
        # on no backend: each charges the kernel it stands in for.
        self.ops.counter.record("matmul_into", 2 * u.shape[0])
        p1, q1 = v, xtu
        p2 = ops.add(xtu, ops.scale(utu, v))            # X'u + v(u'u)
        q2 = v

        # dW via Sherman-Morrison per outer product or one Woodbury step.
        if self.method == "sherman-morrison":
            r1, s1 = sherman_morrison_delta(self.w, p1, q1)
            self._charge_sm()
            w_mid = self.w + r1 @ s1.T
            self.ops.counter.record("add_into", self.w.size)
            r2, s2 = sherman_morrison_delta(w_mid, p2, q2)
            self._charge_sm()
            r_block = ops.hstack([r1, r2])
            s_block = ops.hstack([s1, s2])
        else:
            from ..delta.inverse import woodbury_delta

            p_block = ops.hstack([p1, p2])
            q_block = ops.hstack([q1, q2])
            r_block, s_block = woodbury_delta(self.w, p_block, q_block)
            n = self.w.shape[0]
            self.ops.counter.record("matmul_into",
                                    2 * (2 * n * n * 2 + 2 * n * 2 * 2))

        # dC = v (u'Y)'  — rank 1.
        uty = ops.mm(u.T, self.y)                       # (1 x p)
        dc = ops.mm(v, uty)

        # dbeta = dW C + W dC + dW dC, evaluated matrix-vector first.
        dbeta = ops.mm(r_block, ops.mm(s_block.T, self.c))
        dbeta = ops.add(dbeta, ops.mm(self.w, dc))
        dbeta = ops.add(dbeta, ops.mm(r_block, ops.mm(s_block.T, dc)))

        # Apply all deltas (derived purely from old state).
        self.x = ops.add(self.x, ops.mm(u, v.T))
        self.z = ops.add(self.z, ops.add(ops.mm(p1, q1.T), ops.mm(p2, q2.T)))
        self.w = ops.add(self.w, ops.mm(r_block, s_block.T))
        self.c = ops.add(self.c, dc)
        self.beta = ops.add(self.beta, dbeta)

    def _charge_sm(self) -> None:
        """FLOPs of one Sherman–Morrison step: two n^2 products."""
        n = self.w.shape[0]
        self.ops.counter.record("matmul_into", 4 * n * n)

    def revalidate(self) -> float:
        """Max drift of any maintained view vs from-scratch recomputation."""
        z = self.x.T @ self.x
        w = np.linalg.inv(z)
        c = self.x.T @ self.y
        beta = w @ c
        return max(
            float(np.max(np.abs(self.z - z))),
            float(np.max(np.abs(self.w - w))),
            float(np.max(np.abs(self.c - c))),
            float(np.max(np.abs(self.beta - beta))),
        )

    def memory_bytes(self) -> int:
        """Footprint of the model state."""
        return sum(m.nbytes for m in (self.x, self.y, self.z, self.w,
                                      self.c, self.beta))


class QRIncrementalOLS:
    """OLS maintained through a QR factorization (Section 4.2 hook).

    The Sherman–Morrison route of :class:`IncrementalOLS` squares the
    condition number by working with ``inv(X'X)``; this variant keeps
    ``X = Q R`` current instead (:mod:`repro.delta.qr`, ``O(m^2 + mn)``
    per rank-1 update) and answers ``beta`` by one triangular solve —
    the numerically robust choice for nearly collinear designs, at the
    cost of the ``(m x m)`` orthogonal factor.

    The same trigger interface as the other maintainers:
    ``refresh(u, v)`` absorbs ``X += u v'``.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        from ..delta.qr import QRView

        self.y = np.array(y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        self._qr = QRView(np.asarray(x, dtype=np.float64))

    @property
    def x(self) -> np.ndarray:
        """The current (updated) design matrix, reconstructed."""
        return self._qr.matrix()

    @property
    def beta(self) -> np.ndarray:
        """The least-squares estimate against the current design."""
        return self._qr.solve_ls(self.y)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain the factorization for ``X += u v'``."""
        self._qr.refresh(u, v)

    def revalidate(self) -> float:
        """Max drift of beta vs a from-scratch least-squares solve."""
        exact, *_ = np.linalg.lstsq(self.x, self.y, rcond=None)
        return float(np.max(np.abs(self.beta - exact)))

    def memory_bytes(self) -> int:
        """Footprint of the factorization state."""
        return self._qr.q.nbytes + self._qr.r.nbytes + self.y.nbytes


def make_ols(
    x: np.ndarray,
    y: np.ndarray,
    strategy="auto",
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
    batch: int | None = None,
    **kwargs,
):
    """OLS maintainer for a strategy name, plan, or ``"auto"``.

    ``"auto"`` routes through :func:`repro.planner.plan_ols` (the
    Section 5.1 INCR-vs-REEVAL comparison); extra ``kwargs`` (e.g.
    ``method=``) are forwarded to :class:`IncrementalOLS`.

    ``batch`` wraps the maintainer in a
    :class:`~repro.runtime.batching.DeferredRefresher`: design-row
    updates queue and flush per ``batch`` as QR+SVD-compacted
    refreshes.  The OLS deltas (Sherman–Morrison) are strictly rank-1,
    so the OLS sink replays the compacted factors column by column — a
    skewed batch of ``m`` updates still collapses to ``r <= m``
    refreshes.  Reads (``.beta`` etc.) flush first.
    """
    x = np.asarray(x, dtype=np.float64)
    m, n = x.shape
    y_arr = np.asarray(y, dtype=np.float64)
    p = 1 if y_arr.ndim == 1 else y_arr.shape[1]
    if strategy == "auto":
        from ..planner import plan_ols

        strategy = plan_ols(m, n, p)
    name = strategy if isinstance(strategy, str) else strategy.strategy
    if name == "INCR":
        maintainer = IncrementalOLS(x, y, counter=counter, backend=backend,
                                    **kwargs)
    elif name == "REEVAL":
        maintainer = ReevalOLS(x, y, counter=counter, backend=backend)
    else:
        raise ValueError(f"OLS has no {name!r} strategy")
    maintainer.plan = None if isinstance(strategy, str) else strategy
    if batch is not None and batch > 1:
        from ..runtime.batching import deferred

        def replay_rank1(u: np.ndarray, v: np.ndarray) -> None:
            for col in range(u.shape[1]):
                maintainer.refresh(u[:, col:col + 1], v[:, col:col + 1])

        return deferred(maintainer, batch=batch, backend=backend,
                        apply=replay_rank1)
    return maintainer


__all__ = [
    "IncrementalOLS",
    "QRIncrementalOLS",
    "ReevalOLS",
    "SingularUpdateError",
    "make_ols",
]
