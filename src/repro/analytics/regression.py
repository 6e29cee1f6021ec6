"""Linear regression via batch gradient descent (Section 7, Fig. 3h).

The paper's LR experiment runs ``Theta_{i+1} = Theta_i - eta X'(X Theta_i
- Y)`` and adapts it to the general iterative form with

    A = I - eta X'X          B = eta X'Y

so every general-form strategy (REEVAL / INCR / HYBRID) and iterative
model applies unchanged.  Two update styles are supported:

* :meth:`GradientDescentLR.refresh_a` — rank-1 updates straight to
  ``A`` (what Fig. 3h measures);
* :meth:`GradientDescentLR.refresh_x` — rank-1 updates to the *data*
  ``X``, which induce a rank-2 update to ``A`` and a rank-1 update to
  ``B`` (derived exactly like the OLS deltas of Section 5.1).
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..iterative.models import Model
from ..iterative.strategies import make_general


class GradientDescentLR:
    """Fixed-step batch gradient descent, incrementally maintained.

    Parameters mirror the paper's experiment: ``X (m x n)``, ``Y (m x
    p)``, ``k`` gradient steps from ``theta0`` with learning rate
    ``eta``, evaluated under ``model`` with ``strategy`` (``REEVAL``,
    ``INCR``, ``HYBRID``, ``"auto"`` to ask the planner, or a
    :class:`~repro.planner.plan.MaintenancePlan`).  ``backend`` selects
    the execution backend for the maintained views.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        k: int,
        eta: float = 0.1,
        theta0: np.ndarray | None = None,
        model: Model | None = None,
        strategy="INCR",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        self.x = np.array(x, dtype=np.float64)
        self.y = np.array(y, dtype=np.float64)
        if self.y.ndim == 1:
            self.y = self.y.reshape(-1, 1)
        self.eta = float(eta)
        m, n = self.x.shape
        p = self.y.shape[1]
        if theta0 is None:
            theta0 = np.zeros((n, p))
        a = np.eye(n) - self.eta * (self.x.T @ self.x)
        b = self.eta * (self.x.T @ self.y)
        from ..planner import WorkloadStats, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.linear(),
            lambda planner: planner.plan_general(
                WorkloadStats.from_matrix(a, p=p, k=k), backend),
        )
        self._general = make_general(strategy, a, b, theta0, k, model, counter,
                                     backend=backend)
        self.strategy = strategy if isinstance(strategy, str) else strategy.strategy

    @property
    def theta(self) -> np.ndarray:
        """The maintained parameter estimate after ``k`` steps."""
        return self._general.result()

    @property
    def a(self) -> np.ndarray:
        """The maintained iteration matrix ``I - eta X'X``."""
        return self._general.a

    def refresh_a(self, u: np.ndarray, v: np.ndarray) -> None:
        """Rank-1 update directly to ``A`` (the Fig. 3h workload)."""
        self._general.refresh(u, v)

    def refresh_x(self, u: np.ndarray, v: np.ndarray) -> None:
        """Data update ``X += u v'``: rank-2 on ``A``, rank-1 on ``B``.

        With ``dZ = v (u'X) + (X'u + v u'u) v'`` as in Section 5.1::

            dA = -eta dZ            (rank 2)
            dB =  eta v (u'Y)       (rank 1)
        """
        u = u.reshape(-1, 1)
        v = v.reshape(-1, 1)
        xtu = self.x.T @ u
        utu = float((u.T @ u)[0, 0])
        # dA = [-eta v | -eta (X'u + utu v)] @ [X'u | v]'
        left = np.hstack([-self.eta * v, -self.eta * (xtu + utu * v)])
        right = np.hstack([xtu, v])
        self._general.refresh(left, right)
        if self._general.b is not None:
            self._general.refresh_b(self.eta * v, self.y.T @ u)
        self.x = self.x + u @ v.T

    def loss(self) -> float:
        """Current residual ``||X theta - Y||_F^2 / (2m)``."""
        residual = self.x @ self.theta - self.y
        return float(np.sum(residual * residual)) / (2 * self.x.shape[0])

    def memory_bytes(self) -> int:
        """Footprint of the maintained state."""
        return self._general.memory_bytes() + self.x.nbytes + self.y.nbytes


def reference_gradient_descent(
    x: np.ndarray, y: np.ndarray, k: int, eta: float,
    theta0: np.ndarray | None = None
) -> np.ndarray:
    """Plain-loop gradient descent for ground-truth comparisons."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    theta = (
        np.zeros((x.shape[1], y.shape[1])) if theta0 is None
        else np.array(theta0, dtype=np.float64)
    )
    for _ in range(k):
        theta = theta - eta * (x.T @ (x @ theta - y))
    return theta
