"""Incremental truncated matrix exponentials (a Section 5.2 application).

The paper lists "solving systems of linear differential equations using
matrix exponentials" among the matrix-powers applications.  The
truncated Taylor series

    expm_k(A) = sum_{i=0}^{k} A^i / i!

is a *weighted* sum of the linear-model power views ``P_i = A^i``
(Appendix A): an INCR session on that program
(:func:`weighted_program`) repairs the exponential view per update
with the factored power deltas scaled by the Taylor coefficients,

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


def weighted_program(coeffs: Sequence[float]) -> str:
    """Program text of ``W = sum_i coeffs[i] A^i``: the linear-model
    powers ``P_i := A * P_{i-1}`` and ``W``, each coefficient printed as
    its shortest round-tripping decimal, so the program holds the very
    floats it was given."""
    powers = ["eye(n)", "A", *(f"P{i}" for i in range(2, len(coeffs)))]
    terms = " + ".join(
        f"{np.format_float_positional(c, unique=True, trim='-')} * {power}"
        for c, power in zip(coeffs, powers))
    return "\n".join(["input A(n, n);",
                      *(f"P{i} := A * {powers[i - 1]};"
                        for i in range(2, len(coeffs))),
                      f"W := {terms};", "output W;", ""])


class WeightedPowerSum:
    """Maintained ``W = sum_{i=0}^{k} c_i A^i`` under rank-1 updates to A.

    An INCR session on :func:`weighted_program`: every ``P_1..P_k`` is
    materialized and repaired with factored deltas, and ``W`` by the
    weighted sum of them.  Cost per update is ``O(n^2 k^2)`` — Table
    2's linear-model INCR column — versus ``O(n^gamma k)``
    re-evaluation; a ``counter`` is charged all of it.

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
        from ..iterative.strategies import SessionMaintainer
        from ..planner.plan import MaintenancePlan

        self.coeffs = [float(c) for c in coeffs]
        self.k = len(coeffs) - 1
        self.backend = get_backend(backend)
        self._maintainer = SessionMaintainer(
            weighted_program(self.coeffs),
            {"A": np.asarray(a, dtype=np.float64)}, MaintenancePlan("INCR"),
            counter, self.backend)
        self.batch = batch if batch is not None and batch > 1 else None
        # The shared deferral front end over this object's own apply
        # step — same policy/width/flush machinery as the other
        # analytics drivers, not a private reimplementation.
        self._refresher = None
        if self.batch:
            from ..runtime.batching import deferred

            self._refresher = deferred(self, batch=self.batch,
                                       backend=self.backend,
                                       apply=self._maintainer.refresh)

    @property
    def a(self) -> np.ndarray:
        """The current (updated) input matrix, densely."""
        self.flush()
        return self.backend.materialize(self._maintainer.a)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Absorb ``A += u v'`` into the weighted-sum view.

        Accepts rank-1 vectors or ``(n x k)`` factor blocks.  With
        batching enabled the update queues and applies on the next
        flush (width reached, or any read).
        """
        if self._refresher is not None:
            self._refresher.refresh(u, v)
            return
        self._maintainer.refresh(u, v)

    def flush(self) -> None:
        """Apply all queued updates as one compacted refresh now."""
        if self._refresher is not None:
            self._refresher.flush()

    def result(self) -> np.ndarray:
        """The current weighted power sum, densely."""
        self.flush()
        return self.backend.materialize(self._maintainer.result())

    def revalidate(self) -> float:
        """Max drift of the maintained view vs dense recomputation."""
        exact = reference_weighted_powers(self.a, self.coeffs)
        return float(np.max(np.abs(self.result() - exact)))

    def memory_bytes(self) -> int:
        """Footprint: the session's store (``A``, every power, ``W``)."""
        return self._maintainer.memory_bytes()


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
    "weighted_program",
]
