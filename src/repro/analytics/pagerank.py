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

The driver reads the graph once (:func:`sorted_columns`), holds one
sorted target-index slice per source and describes the operator to the
backend by its nonzeros (:meth:`~repro.backends.base.Backend.from_columns`),
so under ``backend="sparse"`` nothing it allocates is ``n x n``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..backends import get_backend
from ..cost import counters

if TYPE_CHECKING:
    from ..iterative.models import Model


def sorted_columns(adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Sorted compressed columns ``(indptr, indices)``, both ``intp``,
    of a square ``ndarray`` or ``scipy.sparse`` matrix's nonzeros.

    Dense: row blocks of 256 through one reused boolean buffer give flat
    indices target-major, then one stable sort by source.  Sparse: a CSC
    copy, duplicates summed (which sorts it) and explicit zeros removed.
    """
    n = adjacency.shape[0]
    if not isinstance(adjacency, np.ndarray):
        csc = adjacency.tocsc(copy=True)
        csc.sum_duplicates()
        csc.eliminate_zeros()
        return csc.indptr.astype(np.intp), csc.indices.astype(np.intp)
    mask = np.empty((min(n, 256), n), bool)
    targets, sources = np.divmod(np.concatenate([np.flatnonzero(np.not_equal(
        adjacency[start:start + 256], 0, out=mask[:min(256, n - start)]))
        + start * n for start in range(0, n, 256)]), n)
    indices = targets[np.argsort(sources, kind="stable")]
    counts = np.bincount(sources, minlength=n)
    return np.concatenate(([0], np.cumsum(counts))), indices


def transition_matrix(adjacency):
    """Column-stochastic transition matrix from a 0/1 adjacency matrix.

    ``adjacency[i, j] = 1`` encodes an edge ``j -> i`` (column = source).
    Dangling columns (no out-edges) become uniform ``1/N``.  Dense in,
    dense out; a ``scipy.sparse`` adjacency gives a sparse matrix in
    ``O(nnz)`` (see :func:`~repro.analytics.markov.column_stochastic`).
    """
    from .markov import column_stochastic

    return column_stochastic(adjacency, "uniform")


def reference_pagerank(
    adjacency, damping: float = 0.85, iterations: int = 64
) -> np.ndarray:
    """Plain power-method PageRank for ground-truth comparisons.

    Takes what :func:`transition_matrix` takes; on a sparse adjacency
    every iteration is one ``O(nnz)`` product.
    """
    n = adjacency.shape[0]
    m = transition_matrix(adjacency)
    r = np.full((n, 1), 1.0 / n)
    teleport = np.full((n, 1), (1.0 - damping) / n)
    for _ in range(iterations):
        r = damping * (m @ r) + teleport
    return r


class IncrementalPageRank:
    """PageRank maintained under edge insertions/deletions.

    ``adjacency`` is a square ``ndarray`` (or array-like) or any
    ``scipy.sparse`` matrix; a nonzero of its value at ``[i, j]`` is the
    edge ``j -> i`` (column = source) and weights are not kept.  It is
    read once (:func:`sorted_columns`): the driver keeps one sorted
    target-index slice per source, ``O(n + nnz)`` memory, not the matrix.

    ``k`` fixes the number of power iterations (Section 3.1: fixed
    iteration counts make incremental and re-evaluated results
    comparable).  ``strategy`` is ``REEVAL``, ``INCR``, ``HYBRID`` (the
    paper's recommendation for ``p = 1``), ``"auto"`` to let the
    planner pick strategy, model and backend from the graph's density
    (``nnz / n^2`` of the operator, counted from the edge lists), or a
    :class:`~repro.planner.plan.MaintenancePlan`.

    ``backend="sparse"`` stores the transition matrix as CSR, so each
    maintained power iteration costs ``O(nnz)`` instead of ``O(n^2)``.
    Set-up is then ``O(nnz)`` time and memory after one read of the
    input (a dense input is itself the ``n^2`` object: hand a large
    graph over as ``scipy.sparse``), an edge change costs ``O(n)`` for
    its two thin factors plus one ``O(nnz)`` CSR merge, and
    :meth:`revalidate` is ``O(k nnz)``.  A dangling node's column is
    dense and uniform, so many of them densify the operator (stored
    dense once they fill it in).  :attr:`adjacency` builds a dense copy
    on every access: it is there for tests and small graphs.

    ``batch`` enables Table 4 update batching: edge changes queue in a
    :class:`~repro.delta.batch.BatchCollector` and every ``batch``
    changes flush as one QR+SVD-compacted refresh (bursty crawls hit
    the same hot columns repeatedly, so the compacted rank is far below
    the batch size).  Reads (:attr:`ranks`, :meth:`top`,
    :meth:`revalidate`) flush first, so results never lag the edits.

    ``partition="heavy-light"`` (exclusive with ``batch``) routes edge
    changes through a :class:`~repro.runtime.heavylight.HeavyLightMaintainer`:
    changes to one hot source merge eagerly into one accumulated
    transition-delta column (zero marginal refresh rank), changes to
    cold sources defer into a bounded pending block.  The split is keyed
    on the *source column* (the indicator ``e_s`` is the right factor),
    at most ``heavy_budget`` sources eager; any read folds pending first.
    """

    def __init__(
        self,
        adjacency,
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
        if not hasattr(adjacency, "tocsc"):
            adjacency = np.asarray(adjacency)
        self.n = n = adjacency.shape[0]
        if adjacency.shape != (n, n):
            raise ValueError(f"adjacency must be square, got {adjacency.shape}")
        indptr, indices = sorted_columns(adjacency)
        bounds = indptr.tolist()
        self._targets = [indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        self.damping = float(damping)
        self.k = k
        # The operator d*M as compressed columns: 1/out_degree at each
        # target, a dangling column uniform (every row, 1/n) spliced in.
        counts = np.diff(indptr)
        dangling = np.flatnonzero(counts == 0)
        if dangling.size:
            indices = np.insert(indices, np.repeat(indptr[dangling], n),
                                np.tile(np.arange(n), dangling.size))
            counts[dangling] = n
            indptr = np.concatenate(([0], np.cumsum(counts)))
        data = np.repeat(self.damping * (1.0 / counts), counts)
        b = np.full((n, 1), (1.0 - self.damping) / n)
        r0 = np.full((n, 1), 1.0 / n)
        from ..iterative.models import Model
        from ..iterative.strategies import make_general
        from ..planner import WorkloadStats, resolve_driver_strategy

        strategy, model, self.plan = resolve_driver_strategy(
            strategy, model, Model.linear(),
            lambda planner: planner.plan_general(WorkloadStats(
                n=n, p=1, k=k, density=data.size / (n * n)), backend),
        )
        if backend is None and self.plan is not None:
            backend = self.plan.backend
        self._backend = get_backend(backend)
        a = self._backend.from_columns((n, n), indptr, indices, data)
        self._general = make_general(strategy, a, b, r0, k, model, counter,
                                     backend=self._backend)
        if partition not in (None, "uniform", "heavy-light"):
            raise ValueError(f"unknown partition {partition!r}")
        batched = batch is not None and batch > 1
        if partition == "heavy-light" and batched:
            raise ValueError("batch and partition='heavy-light' are mutually "
                             "exclusive: the heavy-light policy already "
                             "defers and compacts the light tail")
        if partition == "heavy-light" or batched:
            from ..runtime.batching import deferred

            # The split is keyed on the source column: the indicator
            # is the right factor, so the policy sees the transpose.
            self._general = deferred(
                self._general, batch=batch, partition=partition,
                heavy_budget=heavy_budget, backend=self._backend,
                transpose=partition == "heavy-light")
        self.strategy = strategy if isinstance(strategy, str) else strategy.strategy

    def _graph(self, backend):
        """The 0/1 adjacency matrix in ``backend``'s format."""
        counts = np.fromiter(map(len, self._targets), np.intp, self.n)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        indices = np.concatenate(self._targets)
        return backend.from_columns(
            (self.n, self.n), indptr, indices, np.ones(indices.size))

    @property
    def adjacency(self) -> np.ndarray:
        """The current graph as a dense 0/1 matrix (column = source).

        Built from the edge lists on every access, ``O(n^2)``: for
        tests and small graphs — the driver itself never needs it.
        """
        return self._graph(get_backend("dense"))

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

    def _column(self, targets: np.ndarray):
        """``(rows, value)`` of one transition column (dangling-aware)."""
        if targets.size:
            return targets, 1.0 / targets.size
        return slice(None), 1.0 / self.n

    def _find(self, source: int, target: int):
        """``source``'s targets, where ``target`` sorts in, and if it is there."""
        if not (0 <= source < self.n and 0 <= target < self.n):
            raise IndexError(
                f"edge {source} -> {target} is outside a {self.n}-node graph")
        targets = self._targets[source]
        at = int(np.searchsorted(targets, target))
        return targets, at, at < targets.size and targets[at] == target

    def _apply_column_change(self, source: int,
                             new_targets: np.ndarray) -> None:
        # damping * (new_col - old_col), touching only the rows the
        # two target lists name.
        delta = np.zeros((self.n, 1))
        rows, value = self._column(new_targets)
        delta[rows, 0] = value
        rows, value = self._column(self._targets[source])
        delta[rows, 0] -= value
        delta *= self.damping
        e_s = np.zeros((self.n, 1))
        e_s[source, 0] = 1.0
        self._targets[source] = new_targets
        self._general.refresh(delta, e_s)

    def add_edge(self, source: int, target: int) -> None:
        """Insert edge ``source -> target`` (no-op if already present)."""
        targets, at, present = self._find(source, target)
        if not present:
            self._apply_column_change(source, np.insert(targets, at, target))

    def remove_edge(self, source: int, target: int) -> None:
        """Delete edge ``source -> target`` (no-op if absent)."""
        targets, at, present = self._find(source, target)
        if present:
            self._apply_column_change(source, np.delete(targets, at))

    def revalidate(self) -> float:
        """Max drift vs a from-scratch ``k``-iteration recomputation.

        The oracle runs on the graph in the backend's own format —
        ``O(k nnz)`` when that is CSR.
        """
        expected = reference_pagerank(
            self._graph(self._backend), self.damping, self.k)
        return float(np.max(np.abs(expected - self.ranks)))
