"""Bounded-hop graph reachability via maintained power sums (Section 5.2).

The paper lists "answering graph reachability queries where k
represents the maximum path length" among the matrix-powers
applications.  With adjacency matrix ``A`` (``A[i, j] = 1`` iff edge
``j -> i``), the walk-counting matrix

    W_k = I + A + A^2 + ... + A^{k-1}

has ``W_k[i, j] > 0`` iff ``j`` reaches ``i`` in fewer than ``k`` hops —
exactly the sums-of-powers view ``S_k`` of Section 5.2.3, maintained
incrementally here under edge insertions and deletions (each a rank-1
update ``dA = ±e_dst e_src'``).

Entries count walks, which grow combinatorially: with float64 views the
counts are exact as long as they stay below ``2^53`` (safe for the
small ``k`` regimes the paper argues for; reachability itself only
needs "> 0", with a tolerance guarding accumulated IVM drift).
"""

from __future__ import annotations

import numpy as np

from ..backends import get_backend
from ..cost import counters
from ..iterative.models import Model, is_power_of_two
from ..iterative.strategies import make_sums

#: Walk counts below this are treated as zero (IVM rounding drift).
COUNT_ATOL = 1e-6


def reference_reachable_pairs(adjacency: np.ndarray, k: int) -> np.ndarray:
    """Boolean matrix of pairs connected by a path of ``< k`` hops."""
    a = np.asarray(adjacency, dtype=np.float64)
    n = a.shape[0]
    reach = np.eye(n, dtype=bool)
    frontier = np.eye(n)
    for _ in range(k - 1):
        frontier = np.minimum(a @ frontier, 1.0)
        reach |= frontier > 0.5
    return reach


class ReachabilityIndex:
    """Incrementally maintained ``k``-hop reachability oracle.

    ``reachable(src, dst)`` answers in O(1) against the maintained
    ``W_k`` view; :meth:`add_edge` / :meth:`remove_edge` repair the view
    in ``O(n^2 k)`` (INCR) instead of re-running the whole power sum.
    The maintained view is ``n x n`` by definition and fills in, so this
    driver keeps a dense shadow of its input under every backend — the
    ``O(nnz)`` graph path is
    :class:`~repro.analytics.pagerank.IncrementalPageRank`'s.
    """

    def __init__(
        self,
        adjacency: np.ndarray,
        k: int = 8,
        model: Model | None = None,
        strategy: str = "INCR",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        self.adjacency = np.array(adjacency, dtype=np.float64)
        n = self.adjacency.shape[0]
        if self.adjacency.shape != (n, n):
            raise ValueError(f"adjacency must be square, got {self.adjacency.shape}")
        if k < 2:
            raise ValueError("k must be at least 2 (S_2 = I + A)")
        self.n = n
        self.k = k
        if model is None:
            model = (Model.exponential() if is_power_of_two(k)
                     else Model.linear())
        self.model = model
        self._backend = get_backend(backend)
        self._maintainer = make_sums(
            strategy, self.adjacency, k, self.model, counter,
            backend=self._backend
        )

    def _edge_factors(self, src: int, dst: int, sign: float):
        if not (0 <= src < self.n and 0 <= dst < self.n):
            raise IndexError(f"edge ({src}, {dst}) outside 0..{self.n - 1}")
        u = np.zeros((self.n, 1))
        v = np.zeros((self.n, 1))
        u[dst, 0] = sign
        v[src, 0] = 1.0
        return u, v

    def add_edge(self, src: int, dst: int) -> None:
        """Insert ``src -> dst`` and repair the reachability view."""
        if self.adjacency[dst, src] != 0.0:
            raise ValueError(f"edge ({src}, {dst}) already present")
        u, v = self._edge_factors(src, dst, 1.0)
        self.adjacency[dst, src] = 1.0
        self._maintainer.refresh(u, v)

    def remove_edge(self, src: int, dst: int) -> None:
        """Delete ``src -> dst`` and repair the reachability view."""
        if self.adjacency[dst, src] == 0.0:
            raise ValueError(f"edge ({src}, {dst}) not present")
        u, v = self._edge_factors(src, dst, -1.0)
        self.adjacency[dst, src] = 0.0
        self._maintainer.refresh(u, v)

    def walk_counts(self) -> np.ndarray:
        """The maintained ``W_k`` matrix (walks of length ``< k``), dense.

        Under a sparse backend the maintained view may be CSR; this
        accessor materializes the full matrix — point queries below
        index the native representation instead.
        """
        return self._backend.materialize(self._maintainer.result())

    def reachable(self, src: int, dst: int) -> bool:
        """Whether ``dst`` is reachable from ``src`` in ``< k`` hops.

        Indexes the maintained view natively (CSR or dense) — no
        materialization, so the query stays cheap at any scale.
        """
        return bool(self._maintainer.result()[dst, src] > COUNT_ATOL)

    def reachable_set(self, src: int) -> list[int]:
        """All vertices reachable from ``src`` in ``< k`` hops (sorted)."""
        counts = self._maintainer.result()
        if isinstance(counts, np.ndarray):
            column = counts[:, src]
        else:
            # One O(n) column of the CSR view, not the full n^2 matrix.
            column = np.asarray(counts[:, [src]].todense()).ravel()
        return [int(i) for i in np.nonzero(column > COUNT_ATOL)[0]]

    def reachable_pairs(self) -> np.ndarray:
        """Boolean reachability matrix (``[dst, src]`` orientation).

        Inherently ``O(n^2)`` output; materializes under any backend.
        """
        return self.walk_counts() > COUNT_ATOL


__all__ = ["COUNT_ATOL", "ReachabilityIndex", "reference_reachable_pairs"]
