"""Incremental power iteration for dominant eigenpairs (Section 5.3).

The paper names "the power iteration method for eigenvalue computation"
as an instance of the general form ``T_{i+1} = A T_i`` — the extreme
``p = 1`` case where its analysis (Section 5.3.2, Fig. 3g) shows HYBRID
evaluation is the cheapest maintenance strategy: dense ``n x 1`` iterate
deltas, factored power views.

A fixed iteration count ``k`` (Section 3.1) keeps incremental and
re-evaluated results comparable.  The iterate is deliberately left
*unnormalized* — normalization is a per-query cosmetic —, so the
maintained view is exactly ``x_k = A^k x_0`` and the eigenvalue
estimate is the Rayleigh quotient of the current iterate.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..iterative.models import Model
from ..iterative.strategies import make_general


def reference_dominant_eigenpair(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Ground-truth dominant eigenpair via ``numpy.linalg.eig``.

    Returns ``(eigenvalue, unit eigenvector)`` for the eigenvalue of
    largest magnitude, with a sign convention (largest-magnitude entry
    positive) so directions are comparable.
    """
    values, vectors = np.linalg.eig(np.asarray(a, dtype=np.float64))
    top = int(np.argmax(np.abs(values)))
    vec = np.real(vectors[:, top])
    val = float(np.real(values[top]))
    pivot = int(np.argmax(np.abs(vec)))
    if vec[pivot] < 0:
        vec = -vec
    return val, vec / np.linalg.norm(vec)


class IncrementalPowerIteration:
    """Maintained power iteration ``x_k = A^k x_0`` under rank-1 updates.

    ``strategy`` is ``REEVAL``, ``INCR``, ``HYBRID`` (default, per the
    paper's p = 1 analysis), ``"auto"`` (ask the planner, which also
    picks the model and backend from the operator's measured density)
    or a :class:`~repro.planner.plan.MaintenancePlan`.  ``backend``
    selects the execution backend for the maintained views.  ``x0``
    defaults to the normalized all-ones vector; pick one with a
    component along the dominant eigenvector, as for any power method.
    """

    def __init__(
        self,
        a: np.ndarray,
        k: int = 32,
        x0: np.ndarray | None = None,
        model: Model | None = None,
        strategy="HYBRID",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        a = np.array(a, dtype=np.float64)
        n = a.shape[0]
        if a.shape != (n, n):
            raise ValueError(f"matrix must be square, got {a.shape}")
        if x0 is None:
            x0 = np.full((n, 1), 1.0 / np.sqrt(n))
        x0 = np.asarray(x0, dtype=np.float64).reshape(-1, 1)
        self.a = a
        self.k = k
        from ..planner import WorkloadStats, plan_general, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.linear(),
            lambda: plan_general(
                WorkloadStats.from_matrix(a, p=1, k=k, has_b=False), backend
            ),
        )
        self._maintainer = make_general(
            strategy, a, None, x0, k, model, counter, backend=backend
        )
        self.model = self._maintainer.model

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Absorb ``A += u v'`` into the maintained iterate."""
        u = np.asarray(u, dtype=np.float64).reshape(-1, 1)
        v = np.asarray(v, dtype=np.float64).reshape(-1, 1)
        self.a = self.a + u @ v.T
        self._maintainer.refresh(u, v)

    def iterate(self) -> np.ndarray:
        """The raw maintained iterate ``x_k`` (unnormalized)."""
        return self._maintainer.result()

    def eigenvector(self) -> np.ndarray:
        """Unit-norm dominant-eigenvector estimate (sign-normalized)."""
        x = self.iterate().reshape(-1)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            raise ArithmeticError("iterate collapsed to zero; re-seed x0")
        x = x / norm
        pivot = int(np.argmax(np.abs(x)))
        return x if x[pivot] >= 0 else -x

    def eigenvalue(self) -> float:
        """Rayleigh-quotient eigenvalue estimate at the current iterate."""
        x = self.eigenvector()
        return float(x @ self.a @ x)

    def residual(self) -> float:
        """``||A x - lambda x||`` of the current estimate (quality gauge)."""
        x = self.eigenvector()
        return float(np.linalg.norm(self.a @ x - self.eigenvalue() * x))


__all__ = ["IncrementalPowerIteration", "reference_dominant_eigenpair"]
