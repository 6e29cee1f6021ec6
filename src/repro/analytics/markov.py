"""Incremental k-step Markov chain analysis (a Section 5.2 application).

The paper motivates matrix powers with "computing the stochastic matrix
of a Markov chain after k steps".  Two maintained views cover the two
standard questions about a chain with column-stochastic transition
matrix ``P``:

* :class:`KStepTransitionMatrix` — the full ``k``-step matrix ``P^k``
  (matrix powers, Section 5.2);
* :class:`KStepDistribution` — the distribution ``pi_k = P^k pi_0`` for
  one start distribution (the general form with ``B = 0`` and
  ``p = 1``, Section 5.3 — where the paper's analysis says HYBRID
  evaluation wins).

Transition-probability changes are naturally low rank: re-estimating
the outgoing probabilities of one state ``j`` replaces column ``j``,
the rank-1 update ``dP = (new_col - old_col) e_j'``.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..iterative.models import Model
from ..iterative.strategies import make_general, make_powers

#: Tolerance for the column-stochasticity check.
STOCHASTIC_ATOL = 1e-9


def check_column_stochastic(p: np.ndarray, atol: float = STOCHASTIC_ATOL) -> None:
    """Raise ``ValueError`` unless ``p`` is square column-stochastic."""
    p = np.asarray(p)
    if p.ndim != 2 or p.shape[0] != p.shape[1]:
        raise ValueError(f"transition matrix must be square, got {p.shape}")
    if np.any(p < -atol):
        raise ValueError("transition probabilities must be non-negative")
    sums = p.sum(axis=0)
    if not np.allclose(sums, 1.0, atol=atol):
        worst = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(
            f"column {worst} sums to {sums[worst]:.6f}, expected 1.0"
        )


def reference_k_step(p: np.ndarray, k: int) -> np.ndarray:
    """Ground truth ``P^k`` by repeated dense multiplication."""
    return np.linalg.matrix_power(np.asarray(p, dtype=np.float64), k)


def column_stochastic(adjacency, dangling: str):
    """``adjacency`` with every column divided by its sum, in one pass.

    ``adjacency[i, j] != 0`` encodes an edge ``j -> i`` (column =
    source).  A column without out-edges cannot be normalized;
    ``dangling`` names what it becomes instead: ``"uniform"`` (``1/N``
    in every row, PageRank's teleporting surfer) or ``"self-loop"`` (a
    one on the diagonal, the walker stays put).  An ``ndarray`` (or
    anything array-like) gives a new dense matrix; a ``scipy.sparse``
    matrix gives a new CSC one in ``O(nnz)`` — note that every
    ``"uniform"`` dangling column then stores ``N`` entries.
    """
    is_sparse = hasattr(adjacency, "tocsc")
    if not is_sparse:
        adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    out_degree = np.asarray(adjacency.sum(axis=0), dtype=np.float64).reshape(-1)
    empty = np.flatnonzero(out_degree == 0)
    out_degree[empty] = 1.0
    if dangling == "uniform":
        rows, cols, fill = np.tile(np.arange(n), empty.size), np.repeat(empty, n), 1.0 / n
    elif dangling == "self-loop":
        rows, cols, fill = empty, empty, 1.0
    else:
        raise ValueError(f"unknown dangling rule {dangling!r}")
    if not is_sparse:
        p = adjacency / out_degree
        p[rows, cols] = fill
        return p
    from scipy import sparse

    p = sparse.csc_array(adjacency, dtype=np.float64, copy=True)
    p.data /= np.repeat(out_degree, np.diff(p.indptr))
    patch = sparse.csc_array(
        (np.full(rows.size, fill), (rows, cols)), shape=p.shape)
    return p + patch


def random_walk_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Column-stochastic simple-random-walk matrix of a digraph.

    ``adjacency[i, j] = 1`` encodes ``j -> i``; states without
    out-edges self-loop (stay put), keeping the matrix stochastic.
    """
    return column_stochastic(adjacency, "self-loop")


class _ColumnPerturbMixin:
    """Shared column-replacement plumbing for the Markov maintainers."""

    p: np.ndarray

    def perturb_column(self, j: int, new_column: np.ndarray) -> None:
        """Replace the outgoing distribution of state ``j``.

        Derives the rank-1 factors ``u = new_col - old_col``,
        ``v = e_j`` and pushes them through the maintained views.
        """
        new_column = np.asarray(new_column, dtype=np.float64).reshape(-1)
        n = self.p.shape[0]
        if new_column.shape[0] != n:
            raise ValueError(f"column length {new_column.shape[0]} != {n}")
        if abs(float(new_column.sum()) - 1.0) > STOCHASTIC_ATOL:
            raise ValueError("replacement column must sum to 1")
        if np.any(new_column < -STOCHASTIC_ATOL):
            raise ValueError("replacement column must be non-negative")
        u = (new_column - self.p[:, j]).reshape(-1, 1)
        v = np.zeros((n, 1))
        v[j, 0] = 1.0
        # The maintainers hold their own copy, so the driver's shadow
        # changes one column in place (no n x n temporaries).
        self.p[:, j] += u[:, 0]
        self._refresh(u, v)

    def _refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        raise NotImplementedError

    def serve(self, max_staleness: int | None = 32,
              max_age: float | None = None, max_queue: int = 0):
        """Serve ``result()`` snapshots concurrently (CQRS over this chain).

        Returns a :class:`~repro.runtime.serving.ViewServer` whose
        writer thread owns this maintainer: route mutations through it
        (``server.call(chain.perturb_column, j, col)``) and read
        ``server.read("result")`` from any number of threads — reads
        serve the last published epoch, lock-free, never lagging more
        than ``max_staleness`` edits (see
        :mod:`repro.runtime.serving`).  Do not touch the maintainer
        directly while the server is open.
        """
        from ..runtime.serving import MaintainerEngine, ViewServer

        engine = MaintainerEngine(
            self, views={"result": lambda: self.result()},
            refresh=self._refresh,
        )
        return ViewServer(engine, max_staleness=max_staleness,
                          max_age=max_age, max_queue=max_queue)


class KStepTransitionMatrix(_ColumnPerturbMixin):
    """Maintained ``P^k`` of an evolving Markov chain.

    ``strategy`` is ``REEVAL``, ``INCR``, ``"auto"`` (ask the planner,
    which also picks the model and backend from the chain's measured
    density) or a :class:`~repro.planner.plan.MaintenancePlan`;
    ``model`` defaults to the exponential model (the Table 2 winner for
    powers).  ``backend`` selects the execution backend — sparse chains
    (random walks on large graphs) keep ``P^k`` views in CSR.
    ``batch`` queues column perturbations and flushes one QR+SVD-
    compacted refresh per ``batch`` changes (re-estimating the same hot
    states repeatedly compacts far below the batch size); reads flush
    first.  The maintained view is ``n x n`` by definition, so this
    driver keeps a dense shadow ``p`` of its input under every backend.
    """

    def __init__(
        self,
        p: np.ndarray,
        k: int = 16,
        model: Model | None = None,
        strategy="INCR",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        batch: int | None = None,
    ):
        check_column_stochastic(p)
        self.p = np.array(p, dtype=np.float64)
        self.k = k
        from ..planner import WorkloadStats, plan_powers, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.exponential(),
            lambda: plan_powers(WorkloadStats.from_matrix(self.p, k=k),
                                backend),
        )
        self._maintainer = make_powers(strategy, self.p, k, model, counter,
                                       backend=backend)
        if batch is not None and batch > 1:
            from ..runtime.batching import deferred

            self._maintainer = deferred(self._maintainer, batch=batch,
                                        backend=backend)
        self.model = self._maintainer.model

    def _refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        self._maintainer.refresh(u, v)

    def result(self) -> np.ndarray:
        """The current ``k``-step transition matrix.

        Flushes any batched pending edits first; the returned array is
        live maintained storage — copy it to keep a snapshot.
        """
        return self._maintainer.result()

    def step_distribution(self, pi0: np.ndarray) -> np.ndarray:
        """``pi_k`` for an arbitrary start distribution (one matvec)."""
        pi0 = np.asarray(pi0, dtype=np.float64).reshape(-1, 1)
        return self.result() @ pi0

    def hitting_probability(self, target: int, pi0: np.ndarray) -> float:
        """Probability mass on ``target`` after exactly ``k`` steps."""
        return float(self.step_distribution(pi0)[target, 0])


class KStepDistribution(_ColumnPerturbMixin):
    """Maintained ``pi_k = P^k pi_0`` for one start distribution.

    The ``p = 1`` instance of the general form — per Section 5.3 the
    HYBRID strategy (dense ``n x 1`` deltas, factored power views) has
    the lowest cost, and is the default here.
    """

    def __init__(
        self,
        p: np.ndarray,
        pi0: np.ndarray,
        k: int = 16,
        model: Model | None = None,
        strategy="HYBRID",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        batch: int | None = None,
    ):
        check_column_stochastic(p)
        self.p = np.array(p, dtype=np.float64)
        pi0 = np.asarray(pi0, dtype=np.float64).reshape(-1, 1)
        if abs(float(pi0.sum()) - 1.0) > STOCHASTIC_ATOL:
            raise ValueError("start distribution must sum to 1")
        self.k = k
        from ..planner import WorkloadStats, plan_general, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.linear(),
            lambda: plan_general(
                WorkloadStats.from_matrix(self.p, p=1, k=k, has_b=False),
                backend,
            ),
        )
        self._maintainer = make_general(
            strategy, self.p, None, pi0, k, model, counter, backend=backend
        )
        if batch is not None and batch > 1:
            from ..runtime.batching import deferred

            self._maintainer = deferred(self._maintainer, batch=batch,
                                        backend=backend)
        self.model = self._maintainer.model

    def _refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        self._maintainer.refresh(u, v)

    def result(self) -> np.ndarray:
        """The current ``k``-step distribution (an ``n x 1`` vector).

        Flushes any batched pending edits first; the returned vector is
        live maintained storage — copy it to keep a snapshot.
        """
        return self._maintainer.result()

    def total_variation_from(self, other: np.ndarray) -> float:
        """Total-variation distance of the maintained ``pi_k`` from ``other``."""
        other = np.asarray(other, dtype=np.float64).reshape(-1, 1)
        return 0.5 * float(np.abs(self.result() - other).sum())


__all__ = [
    "KStepDistribution",
    "KStepTransitionMatrix",
    "check_column_stochastic",
    "column_stochastic",
    "random_walk_matrix",
    "reference_k_step",
]
