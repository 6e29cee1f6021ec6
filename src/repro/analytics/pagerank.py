"""Incremental PageRank over evolving graphs (Sections 5.3 and 7).

The power-method iteration

    r_{i+1} = d M r_i + (1 - d)/N * 1

is exactly the general form ``T_{i+1} = A T_i + B`` with ``A = d M``
(``M`` the column-stochastic transition matrix, dangling columns spread
uniformly) and ``B = (1-d)/N * 1`` — the paper's motivating instance of
``p = 1`` iterate maintenance.

Structural graph changes are low-rank: adding or removing an edge at
source ``s`` replaces column ``s`` of ``M``, which is the rank-1 update
``dM = (new_col - old_col) e_s'``.  :meth:`IncrementalPageRank.add_edge`
and :meth:`IncrementalPageRank.remove_edge` derive the factors and push
them through the chosen strategy.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..iterative.models import Model
from ..iterative.strategies import make_general


def transition_matrix(adjacency: np.ndarray) -> np.ndarray:
    """Column-stochastic transition matrix from a 0/1 adjacency matrix.

    ``adjacency[i, j] = 1`` encodes an edge ``j -> i`` (column = source).
    Dangling columns (no out-edges) become uniform ``1/N``.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    out_degree = adjacency.sum(axis=0)
    m = np.empty_like(adjacency)
    for j in range(n):
        if out_degree[j] == 0:
            m[:, j] = 1.0 / n
        else:
            m[:, j] = adjacency[:, j] / out_degree[j]
    return m


def reference_pagerank(
    adjacency: np.ndarray, damping: float = 0.85, iterations: int = 64
) -> np.ndarray:
    """Plain power-method PageRank for ground-truth comparisons."""
    n = adjacency.shape[0]
    m = transition_matrix(adjacency)
    r = np.full((n, 1), 1.0 / n)
    teleport = np.full((n, 1), (1.0 - damping) / n)
    for _ in range(iterations):
        r = damping * (m @ r) + teleport
    return r


class IncrementalPageRank:
    """PageRank maintained under edge insertions/deletions.

    ``k`` fixes the number of power iterations (Section 3.1: fixed
    iteration counts make incremental and re-evaluated results
    comparable).  ``strategy`` is ``REEVAL``, ``INCR``, ``HYBRID`` (the
    paper's recommendation for ``p = 1``), ``"auto"`` to let the
    planner pick strategy, model and backend from the graph's measured
    density, or a :class:`~repro.planner.plan.MaintenancePlan`.

    ``backend`` selects the execution backend: real web graphs are
    sparse, and ``backend="sparse"`` stores the transition matrix as
    CSR so each maintained power iteration costs ``O(nnz)`` instead of
    ``O(n^2)`` (see :mod:`repro.backends`).  Note the dangling-column
    fill-in: a node with no out-edges produces a dense uniform column,
    so graphs with many dangling nodes densify the operator.

    ``batch`` enables Table 4 update batching: edge changes queue in a
    :class:`~repro.delta.batch.BatchCollector` and every ``batch``
    changes flush as one QR+SVD-compacted refresh (bursty crawls hit
    the same hot columns repeatedly, so the compacted rank is far below
    the batch size).  Reads (:attr:`ranks`, :meth:`top`,
    :meth:`revalidate`) flush first, so results never lag the edits.

    ``partition="heavy-light"`` routes edge changes through a
    :class:`~repro.runtime.heavylight.HeavyLightMaintainer` instead
    (mutually exclusive with ``batch``): changes to the same hot source
    node merge eagerly into one accumulated transition-delta column —
    zero marginal refresh rank, however bursty the crawl — while
    changes to cold sources defer into a bounded pending block.  The
    split is keyed on the *source column* (pagerank's update is
    ``delta e_s'``: the indicator is the right factor), with at most
    ``heavy_budget`` sources maintained eagerly.  The same
    read-freshness contract holds: any read folds pending state first.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        k: int = 16,
        damping: float = 0.85,
        model: Model | None = None,
        strategy="HYBRID",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        batch: int | None = None,
        partition: str | None = None,
        heavy_budget: int | None = None,
    ):
        self.adjacency = np.array(adjacency, dtype=np.float64)
        self.n = self.adjacency.shape[0]
        self.damping = float(damping)
        self.k = k
        m = transition_matrix(self.adjacency)
        a = self.damping * m
        b = np.full((self.n, 1), (1.0 - self.damping) / self.n)
        r0 = np.full((self.n, 1), 1.0 / self.n)
        from ..planner import WorkloadStats, plan_general, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.linear(),
            lambda: plan_general(WorkloadStats.from_matrix(a, p=1, k=k)),
        )
        self._general = make_general(strategy, a, b, r0, k, model, counter,
                                     backend=backend)
        if partition not in (None, "uniform", "heavy-light"):
            raise ValueError(f"unknown partition {partition!r}")
        batched = batch is not None and batch > 1
        if partition == "heavy-light" and batched:
            raise ValueError(
                "batch and partition='heavy-light' are mutually "
                "exclusive: the heavy-light policy already defers "
                "and compacts the light tail")
        if partition == "heavy-light" or batched:
            from ..runtime.batching import deferred

            # The split is keyed on the source column: the indicator
            # is the right factor, so the policy sees the transpose.
            self._general = deferred(
                self._general, batch=batch, partition=partition,
                heavy_budget=heavy_budget, backend=backend,
                transpose=partition == "heavy-light")
        self.strategy = strategy if isinstance(strategy, str) else strategy.strategy

    @property
    def ranks(self) -> np.ndarray:
        """The maintained rank vector after ``k`` iterations (column).

        Folds/flushes any deferred (batched or heavy-light) edits
        first; the returned vector is live maintained storage — copy
        it to keep a snapshot that survives further edits.
        """
        return self._general.result()

    def serve(self, max_staleness: int | None = 32, max_age: float | None = None,
              max_queue: int = 0):
        """Serve rank snapshots concurrently (CQRS over this driver).

        Returns a :class:`~repro.runtime.serving.ViewServer` whose
        writer thread owns this driver: route every mutation through it
        (``server.call(pr.add_edge, 2, 3)``, or ``server.submit`` with
        raw transition-delta factors) and read ``server.read("ranks")``
        from any number of threads — reads serve the last published
        epoch, lock-free, never lagging more than ``max_staleness``
        edits (see :mod:`repro.runtime.serving`).  Do not touch the
        driver directly while the server is open.
        """
        from ..runtime.serving import MaintainerEngine, ViewServer

        engine = MaintainerEngine(
            self, views={"ranks": lambda: self.ranks},
            refresh=self._general.refresh,
        )
        return ViewServer(engine, max_staleness=max_staleness,
                          max_age=max_age, max_queue=max_queue)

    def top(self, count: int = 10) -> list[tuple[int, float]]:
        """The ``count`` highest-ranked nodes as ``(node, score)`` pairs."""
        flat = self.ranks.reshape(-1)
        order = np.argsort(-flat)[:count]
        return [(int(i), float(flat[i])) for i in order]

    def _column(self, adjacency_col: np.ndarray) -> np.ndarray:
        """Transition column for one adjacency column (dangling-aware)."""
        total = adjacency_col.sum()
        if total == 0:
            return np.full((self.n, 1), 1.0 / self.n)
        return (adjacency_col / total).reshape(-1, 1)

    def _apply_column_change(self, source: int,
                             new_adj_col: np.ndarray) -> None:
        old_col = self._column(self.adjacency[:, source])
        new_col = self._column(new_adj_col)
        delta = self.damping * (new_col - old_col)
        e_s = np.zeros((self.n, 1))
        e_s[source, 0] = 1.0
        self.adjacency[:, source] = new_adj_col
        self._general.refresh(delta, e_s)

    def add_edge(self, source: int, target: int) -> None:
        """Insert edge ``source -> target`` (no-op if already present)."""
        if self.adjacency[target, source] != 0:
            return
        new_col = self.adjacency[:, source].copy()
        new_col[target] = 1.0
        self._apply_column_change(source, new_col)

    def remove_edge(self, source: int, target: int) -> None:
        """Delete edge ``source -> target`` (no-op if absent)."""
        if self.adjacency[target, source] == 0:
            return
        new_col = self.adjacency[:, source].copy()
        new_col[target] = 0.0
        self._apply_column_change(source, new_col)

    def revalidate(self) -> float:
        """Max drift vs a from-scratch ``k``-iteration recomputation."""
        m = transition_matrix(self.adjacency)
        r = np.full((self.n, 1), 1.0 / self.n)
        teleport = np.full((self.n, 1), (1.0 - self.damping) / self.n)
        for _ in range(self.k):
            r = self.damping * (m @ r) + teleport
        return float(np.max(np.abs(r - self.ranks)))
