"""Incremental truncated matrix exponentials (a Section 5.2 application).

The paper lists "solving systems of linear differential equations using
matrix exponentials" among the matrix-powers applications.  The
truncated Taylor series

    expm_k(A) = sum_{i=0}^{k} A^i / i!

is a *weighted* sum of the power views ``P_i = A^i`` the linear-model
incremental maintainer already materializes (Appendix A), so the
exponential view is repaired per update by combining the factored power
deltas with the Taylor coefficients:

    d expm_k = sum_{i=1}^{k} (1/i!) U_i V_i'

— all matrix–vector shaped, never a dense ``n x n`` product.  The same
machinery accepts arbitrary fixed coefficients, which also covers e.g.
truncated Neumann series ``(I - A)^{-1} ≈ sum A^i`` (the honest name
for that use is :func:`neumann_coefficients`).

For the ODE ``x'(t) = A x(t)``, ``x(t) = expm(A t) x0`` is exposed via
:meth:`IncrementalExpm.propagate`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..cost import counters
from ..iterative.models import Model
from ..iterative.powers import IncrementalPowers


def taylor_coefficients(k: int, t: float = 1.0) -> list[float]:
    """Coefficients ``t^i / i!`` for ``i = 0..k``."""
    return [t ** i / math.factorial(i) for i in range(k + 1)]


def neumann_coefficients(k: int) -> list[float]:
    """All-ones coefficients: the truncated Neumann series for ``inv(I-A)``."""
    return [1.0] * (k + 1)


def reference_weighted_powers(a: np.ndarray, coeffs: Sequence[float]) -> np.ndarray:
    """Ground truth ``sum_i coeffs[i] A^i`` by dense evaluation."""
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    acc = coeffs[0] * np.eye(n)
    power = np.eye(n)
    for c in coeffs[1:]:
        power = power @ a
        acc = acc + c * power
    return acc


class WeightedPowerSum:
    """Maintained ``W = sum_{i=0}^{k} c_i A^i`` under rank-1 updates to A.

    Builds on the linear-model :class:`IncrementalPowers` (which
    materializes every ``P_1..P_k`` and yields factored deltas per
    update) and folds the weights into the view repair.  Cost per
    update is ``O(n^2 k^2)`` — Table 2's linear-model INCR column —
    versus ``O(n^gamma k)`` re-evaluation.

    ``batch`` queues incoming updates and flushes one QR+SVD-compacted
    rank-``r`` refresh per ``batch`` updates (Table 4: repeated hits on
    the same rows compact far below the batch size); reads
    (:meth:`result`, :meth:`revalidate`, :attr:`a`) flush first.
    """

    def __init__(
        self,
        a: np.ndarray,
        coeffs: Sequence[float],
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        batch: int | None = None,
    ):
        if len(coeffs) < 2:
            raise ValueError("need coefficients for at least I and A")
        from ..backends import get_backend

        self.coeffs = [float(c) for c in coeffs]
        self.k = len(coeffs) - 1
        self.backend = get_backend(backend)
        a = np.asarray(a, dtype=np.float64)
        self._powers = IncrementalPowers(a, self.k, Model.linear(), counter,
                                         backend=self.backend)
        self._view = self.backend.asarray(
            reference_weighted_powers(a, self.coeffs)
        )
        self.batch = batch if batch is not None and batch > 1 else None
        # The shared deferral front end over this object's own apply
        # step — same policy/width/flush machinery as the other
        # analytics drivers, not a private reimplementation.
        self._refresher = None
        if self.batch:
            from ..runtime.batching import deferred

            self._refresher = deferred(self, batch=self.batch,
                                       backend=self.backend,
                                       apply=self._refresh_now)

    @property
    def a(self) -> np.ndarray:
        """The current (updated) input matrix, densely."""
        self.flush()
        return self.backend.materialize(self._powers.a)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Absorb ``A += u v'`` into the weighted-sum view.

        Accepts rank-1 vectors or ``(n x k)`` factor blocks.  With
        batching enabled the update queues and applies on the next
        flush (width reached, or any read).
        """
        if self._refresher is not None:
            self._refresher.refresh(u, v)
            return
        self._refresh_now(u, v)

    def flush(self) -> None:
        """Apply all queued updates as one compacted refresh now."""
        if self._refresher is not None:
            self._refresher.flush()

    def _refresh_now(self, u: np.ndarray, v: np.ndarray) -> None:
        u = np.asarray(u, dtype=np.float64)
        v = np.asarray(v, dtype=np.float64)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if v.ndim == 1:
            v = v.reshape(-1, 1)
        factors = self._powers.compute_factors(u, v)
        for i, (left, right) in factors.items():
            c = self.coeffs[i]
            if c != 0.0:
                self._view = self.backend.add_outer_inplace(self._view, c * left, right)
        self._powers.apply_factors(factors)

    def result(self) -> np.ndarray:
        """The current weighted power sum, densely."""
        self.flush()
        return self.backend.materialize(self._view)

    def revalidate(self) -> float:
        """Max drift of the maintained view vs dense recomputation."""
        exact = reference_weighted_powers(self.a, self.coeffs)
        return float(np.max(np.abs(self.result() - exact)))

    def memory_bytes(self) -> int:
        """Footprint: the power views plus the combined view."""
        return self._powers.memory_bytes() + self.backend.nbytes(self._view)


class IncrementalExpm(WeightedPowerSum):
    """Maintained truncated matrix exponential ``expm_k(A t)``.

    ``order`` is the Taylor truncation ``k``; accuracy vs
    ``scipy.linalg.expm`` depends on ``||A t||`` as usual for
    un-scaled Taylor evaluation — keep ``||A t|| <~ 1`` or raise the
    order (this mirrors what the paper's fixed-iteration regime does
    for convergent iterations, Section 3.1).
    """

    def __init__(
        self,
        a: np.ndarray,
        order: int = 12,
        t: float = 1.0,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        batch: int | None = None,
    ):
        self.t = float(t)
        self.order = order
        super().__init__(a, taylor_coefficients(order, t), counter,
                         backend=backend, batch=batch)

    def propagate(self, x0: np.ndarray) -> np.ndarray:
        """Solution ``x(t) = expm(A t) x0`` of ``x' = A x`` (one matvec)."""
        x0 = np.asarray(x0, dtype=np.float64).reshape(-1, 1)
        return self.result() @ x0


__all__ = [
    "IncrementalExpm",
    "WeightedPowerSum",
    "neumann_coefficients",
    "reference_weighted_powers",
    "taylor_coefficients",
]
