"""Incremental PageRank on evolving graphs, checked against networkx."""

import networkx as nx
try:
    import scipy  # noqa: F401
except ImportError:
    scipy = None

import numpy as np
import pytest

from repro.analytics import (
    IncrementalPageRank,
    reference_pagerank,
    transition_matrix,
)
from repro.iterative import Model
from repro.workloads import random_adjacency

STRATS = ["REEVAL", "INCR", "HYBRID"]


class TestTransitionMatrix:
    def test_columns_stochastic(self, rng):
        adj = random_adjacency(rng, 20)
        m = transition_matrix(adj)
        np.testing.assert_allclose(m.sum(axis=0), np.ones(20), atol=1e-12)

    def test_dangling_column_uniform(self):
        adj = np.zeros((4, 4))
        adj[1, 0] = 1.0  # only node 0 has an out-edge
        m = transition_matrix(adj)
        np.testing.assert_allclose(m[:, 2], 0.25 * np.ones(4))


class TestAgainstNetworkx:
    # networkx's pagerank itself runs on scipy sparse matrices.
    pytestmark = pytest.mark.skipif(
        scipy is None,
        reason="networkx pagerank needs scipy")

    def test_ranks_match_networkx(self, rng):
        adj = random_adjacency(rng, 25)
        pr = IncrementalPageRank(adj, k=128, strategy="HYBRID")
        graph = nx.DiGraph()
        graph.add_nodes_from(range(25))
        sources, targets = np.nonzero(adj.T)  # adj[t, s] = 1 => edge s->t
        graph.add_edges_from(zip(sources, targets))
        nx_ranks = nx.pagerank(graph, alpha=0.85, tol=1e-12, max_iter=500)
        mine = pr.ranks.reshape(-1)
        for node in range(25):
            assert abs(mine[node] - nx_ranks[node]) < 1e-6

    def test_ranks_match_networkx_after_edge_churn(self, rng):
        adj = random_adjacency(rng, 15)
        pr = IncrementalPageRank(adj, k=128, strategy="INCR",
                                 model=Model.linear())
        pr.add_edge(0, 7)
        pr.add_edge(3, 9)
        pr.remove_edge(0, 7)
        pr.add_edge(11, 2)
        graph = nx.DiGraph()
        graph.add_nodes_from(range(15))
        sources, targets = np.nonzero(pr.adjacency.T)
        graph.add_edges_from(zip(sources, targets))
        nx_ranks = nx.pagerank(graph, alpha=0.85, tol=1e-12, max_iter=500)
        mine = pr.ranks.reshape(-1)
        for node in range(15):
            assert abs(mine[node] - nx_ranks[node]) < 1e-6


class TestIncrementalMaintenance:
    @pytest.mark.parametrize("strategy", STRATS)
    def test_strategies_match_reference(self, strategy, rng):
        adj = random_adjacency(rng, 20)
        pr = IncrementalPageRank(adj, k=64, strategy=strategy,
                                 model=Model.linear())
        pr.add_edge(1, 2)
        pr.add_edge(5, 9)
        pr.remove_edge(1, 2)
        expected = reference_pagerank(pr.adjacency, iterations=64)
        np.testing.assert_allclose(pr.ranks, expected, atol=1e-10)

    def test_ranks_sum_to_one(self, rng):
        adj = random_adjacency(rng, 20)
        pr = IncrementalPageRank(adj, k=64)
        pr.add_edge(0, 3)
        assert abs(pr.ranks.sum() - 1.0) < 1e-9

    def test_duplicate_edge_is_noop(self, rng):
        adj = random_adjacency(rng, 10)
        src, dst = np.nonzero(adj.T)[0][0], np.nonzero(adj.T)[1][0]
        pr = IncrementalPageRank(adj, k=32)
        before = pr.ranks.copy()
        pr.add_edge(int(src), int(dst))  # already present
        np.testing.assert_array_equal(pr.ranks, before)

    def test_missing_edge_removal_is_noop(self, rng):
        adj = random_adjacency(rng, 10)
        zero = np.argwhere(adj.T == 0)
        src, dst = (int(z) for z in zero[0])
        pr = IncrementalPageRank(adj, k=32)
        before = pr.ranks.copy()
        pr.remove_edge(src, dst)
        np.testing.assert_array_equal(pr.ranks, before)

    def test_edge_to_dangling_node(self):
        """Adding the first out-edge of a dangling node is still rank-1."""
        adj = np.zeros((5, 5))
        adj[1, 0] = 1.0
        adj[2, 1] = 1.0
        adj[0, 2] = 1.0  # nodes 3, 4 dangling
        pr = IncrementalPageRank(adj, k=128, strategy="INCR",
                                 model=Model.linear())
        pr.add_edge(3, 0)
        expected = reference_pagerank(pr.adjacency, iterations=128)
        np.testing.assert_allclose(pr.ranks, expected, atol=1e-10)
        assert pr.revalidate() < 1e-10

    def test_top_nodes_ordering(self, rng):
        adj = random_adjacency(rng, 30)
        # make node 7 popular
        adj[7, :] = 1.0
        adj[7, 7] = 0.0
        pr = IncrementalPageRank(adj, k=64)
        top = pr.top(3)
        assert top[0][0] == 7
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)

    def test_long_churn_drift_bounded(self, rng):
        adj = random_adjacency(rng, 15)
        pr = IncrementalPageRank(adj, k=64, strategy="INCR",
                                 model=Model.linear())
        for i in range(40):
            src = int(rng.integers(0, 15))
            dst = int(rng.integers(0, 15))
            if src == dst:
                continue
            if pr.adjacency[dst, src]:
                pr.remove_edge(src, dst)
            else:
                pr.add_edge(src, dst)
        assert pr.revalidate() < 1e-8


def _toggle_stream(rng, adjacency, length=200):
    """``(source, target)`` toggles that empty node 0's out-edges and refill them.

    Node 0 loses its last out-edge early (its column turns dangling,
    i.e. uniform), gains one back mid-stream and the rest are random
    toggles, some of which hit node 0 again.
    """
    n = adjacency.shape[0]
    drain = [(0, int(t)) for t in np.flatnonzero(adjacency[:, 0])]
    pairs = [(int(s), int(t)) for s, t in rng.integers(n, size=(length, 2))
             if s != t]
    head = length // 4
    stream = drain + pairs[:head] + [(0, 3)] + pairs[head:]
    return stream[:length]


class TestGraphContract:
    """The driver holds edge lists, whatever the input and the backend."""

    @pytest.mark.parametrize("deferral", [
        {}, {"batch": 8}, {"partition": "heavy-light"},
    ], ids=["unit", "batch8", "heavy-light"])
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("strategy", STRATS)
    def test_differential_grid(self, strategy, backend, deferral, rng):
        if backend == "sparse" and scipy is None:
            pytest.skip("sparse backend needs scipy")
        n = 80  # above SparseBackend.min_sparse_dim: the operator is CSR
        adjacency = random_adjacency(rng, n, avg_out_degree=4)
        shadow = adjacency.copy()
        pr = IncrementalPageRank(adjacency, k=24, strategy=strategy,
                                 model=Model.linear(), backend=backend,
                                 **deferral)
        np.testing.assert_array_equal(adjacency, shadow)  # input untouched
        was_dangling = False
        for step, (source, target) in enumerate(
                _toggle_stream(rng, adjacency), start=1):
            if shadow[target, source]:
                pr.remove_edge(source, target)
                shadow[target, source] = 0.0
            else:
                pr.add_edge(source, target)
                shadow[target, source] = 1.0
            was_dangling |= not shadow[:, 0].any()
            if step % 20 == 0:
                np.testing.assert_allclose(
                    pr.ranks, reference_pagerank(shadow, iterations=24),
                    rtol=0, atol=1e-9)
        assert was_dangling and shadow[:, 0].any()
        np.testing.assert_array_equal(pr.adjacency, shadow)
        assert pr.revalidate() < 1e-9

    @pytest.mark.skipif(scipy is None, reason="needs scipy.sparse input")
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_sparse_and_dense_input_are_the_same_graph(self, backend, rng):
        from scipy import sparse

        n = 80
        adjacency = random_adjacency(rng, n, avg_out_degree=4)
        adjacency[:, 5] = 0.0  # one dangling node from the start
        stream = _toggle_stream(rng, adjacency, length=40)
        results = []
        for graph in (adjacency, sparse.csr_array(adjacency),
                      sparse.csc_array(adjacency), sparse.coo_array(adjacency),
                      adjacency.tolist()):
            pr = IncrementalPageRank(graph, k=16, strategy="REEVAL",
                                     backend=backend)
            for source, target in stream:
                if pr.adjacency[target, source]:
                    pr.remove_edge(source, target)
                else:
                    pr.add_edge(source, target)
            results.append((pr.ranks.copy(), pr.adjacency))
        for ranks, final in results[1:]:
            np.testing.assert_array_equal(ranks, results[0][0])
            np.testing.assert_array_equal(final, results[0][1])

    @pytest.mark.skipif(scipy is None, reason="needs scipy.sparse input")
    def test_sparse_path_allocates_no_dense_square(self):
        """20 000 nodes: one dense ``n x n`` would be 3.2 GB."""
        import tracemalloc

        from scipy import sparse

        n, out_edges = 20_000, 20
        rng = np.random.default_rng(15)
        sources = np.repeat(np.arange(n), out_edges)
        targets = rng.integers(n, size=n * out_edges)
        graph = sparse.csc_array(
            (np.ones(n * out_edges), (targets, sources)), shape=(n, n))
        tracemalloc.start()
        try:
            pr = IncrementalPageRank(graph, k=8, strategy="REEVAL",
                                     backend="sparse")
            for source, target in rng.integers(n, size=(10, 2)).tolist():
                pr.add_edge(source, target)
                pr.remove_edge(source, int(targets[source * out_edges]))
            drift = pr.revalidate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 150e6, f"peak {peak / 1e6:.0f} MB traced"
        assert drift < 1e-12
        assert scipy.sparse.issparse(pr._general.a)

    def test_adjacency_is_a_read_only_snapshot(self, rng):
        adjacency = random_adjacency(rng, 12)
        pr = IncrementalPageRank(adjacency, k=8)
        snapshot = pr.adjacency
        np.testing.assert_array_equal(snapshot, adjacency)
        snapshot[:] = 0.0  # a copy: the driver's graph is unaffected
        np.testing.assert_array_equal(pr.adjacency, adjacency)
        with pytest.raises(AttributeError):
            pr.adjacency = adjacency

    def test_rejects_bad_graphs_and_nodes(self, rng):
        with pytest.raises(ValueError, match="square"):
            IncrementalPageRank(np.zeros((3, 4)))
        pr = IncrementalPageRank(random_adjacency(rng, 6), k=4)
        before = pr.adjacency
        for source, target in ((6, 0), (0, 6), (-1, 2), (2, -1)):
            with pytest.raises(IndexError):
                pr.add_edge(source, target)
            with pytest.raises(IndexError):
                pr.remove_edge(source, target)
        np.testing.assert_array_equal(pr.adjacency, before)

    @pytest.mark.skipif(scipy is None, reason="needs scipy.sparse input")
    def test_reference_accepts_sparse_adjacency(self, rng):
        from scipy import sparse

        adjacency = random_adjacency(rng, 30, avg_out_degree=3)
        adjacency[:, 4] = 0.0
        m = transition_matrix(sparse.csr_array(adjacency))
        assert sparse.issparse(m)
        np.testing.assert_array_equal(m.toarray(), transition_matrix(adjacency))
        np.testing.assert_allclose(
            reference_pagerank(sparse.coo_array(adjacency), iterations=32),
            reference_pagerank(adjacency, iterations=32), rtol=0, atol=1e-15)

    def test_auto_prices_density_from_the_edge_lists(self, rng, monkeypatch):
        """``"auto"`` hands the planner ``nnz / n^2`` of the operator."""
        import repro.planner.planner as planner_mod

        seen = {}
        original = planner_mod.recommend_general

        def spy(n, p, k, **kwargs):
            seen.update(n=n, p=p, k=k, **kwargs)
            return original(n, p, k, **kwargs)

        monkeypatch.setattr(planner_mod, "recommend_general", spy)
        adjacency = random_adjacency(rng, 40, avg_out_degree=4)
        adjacency[:, 7] = 0.0  # dangling: a full column of the operator
        pr = IncrementalPageRank(adjacency, k=8, strategy="auto")
        assert pr.plan is not None
        operator = 0.85 * transition_matrix(adjacency)
        assert seen["density"] == np.count_nonzero(operator) / 40 ** 2
        assert (seen["n"], seen["p"], seen["k"]) == (40, 1, 8)



def _weighted_graph(n: int):
    """A weighted adjacency with dangling columns, self-loops and
    non-unit (some negative) weights, and COO triplets that sum to it:
    every entry given as two halves, and three zero positions (one in a
    dangling column) given as an explicit zero, a ``+1`` and a ``-1``."""
    rng = np.random.default_rng([7, n])
    dense = np.where(rng.random((n, n)) < 4.0 / n,
                     rng.uniform(-2.0, 3.0, (n, n)), 0.0)
    loops = np.arange(0, n, 5)
    dense[loops, loops] = 2.5
    dense[:, 1::9] = 0.0
    rows, cols = np.nonzero(dense)
    halves = dense[rows, cols] / 2.0
    zero_rows, zero_cols = (axis[:3] for axis in np.nonzero(dense == 0))
    ones = np.ones(zero_rows.size)
    triplets = (
        np.concatenate([halves, halves, 0.0 * ones, ones, -ones]),
        (np.concatenate([rows, rows] + [zero_rows] * 3),
         np.concatenate([cols, cols] + [zero_cols] * 3)))
    return dense, triplets


def _as_input(kind: str, dense, triplets):
    if kind == "ndarray":
        return dense.copy()
    if kind == "list":
        return dense.tolist()
    from scipy import sparse

    return getattr(sparse, f"{kind}_array")(triplets, shape=dense.shape)


def _reference_operator(dense, damping=0.85):
    """``(indptr, indices, data)`` of ``damping * M`` as CSR, one entry at
    a time: column ``j`` holds ``damping / out_degree`` at its targets,
    or ``damping / n`` at every row when ``j`` is dangling."""
    n = len(dense)
    rows = [[] for _ in range(n)]
    for j in range(n):
        targets = [i for i in range(n) if dense[i, j] != 0] or range(n)
        for i in targets:
            rows[i].append((j, damping * (1.0 / len(targets))))
    indptr = np.cumsum([0] + [len(row) for row in rows])
    entries = [entry for row in rows for entry in row]
    return (indptr, np.array([j for j, _ in entries], dtype=int),
            np.array([value for _, value in entries]))


def _snapshot(graph) -> list[np.ndarray]:
    """Copies of the arrays a caller holds in ``graph``."""
    if not hasattr(graph, "format"):
        return [np.array(graph)]
    return [part.copy() for part in (
        (graph.data, *graph.coords) if graph.format == "coo"
        else (graph.data, graph.indices, graph.indptr))]


class TestSortedColumns:
    """The one read of the input: a dense scan or a canonical CSC copy."""

    @pytest.mark.parametrize("n", [1, 255, 256, 257, 600])
    @pytest.mark.parametrize("kind", ["ndarray", "list", "csr", "csc", "coo"])
    def test_lists_and_operator_match_a_reference(self, kind, n):
        if kind in ("csr", "csc", "coo") and scipy is None:
            pytest.skip("sparse input needs scipy")
        dense, triplets = _weighted_graph(n)
        graph = _as_input(kind, dense, triplets)
        before = _snapshot(graph)
        pr = IncrementalPageRank(graph, k=4, strategy="REEVAL",
                                 backend="sparse" if scipy else "dense")
        expected = [np.flatnonzero(dense[:, j]) for j in range(n)]
        assert len(pr._targets) == n
        for got, want in zip(pr._targets, expected):
            assert got.dtype == np.intp
            np.testing.assert_array_equal(got, want)
        # Slices of one sorted array, not one array per source.
        assert len({id(targets.base) for targets in pr._targets}) == 1
        np.testing.assert_array_equal(pr.adjacency, dense != 0)
        for was, now in zip(before, _snapshot(graph), strict=True):
            np.testing.assert_array_equal(now, was)
        if scipy is not None:
            from scipy import sparse

            operator = sparse.csr_array(pr._general.a)
            for got, want in zip(
                    (operator.indptr, operator.indices, operator.data),
                    _reference_operator(dense)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.skipif(scipy is None, reason="needs scipy.sparse input")
    def test_repeated_coo_entries_are_one_edge(self, rng):
        """Duplicates sum and cancelled entries vanish: the COO graph and
        its ``toarray()`` are the same graph, bitwise, through edits."""
        from scipy import sparse

        n = 80
        adjacency = random_adjacency(rng, n, avg_out_degree=4)
        adjacency[1, 0] = 1.0
        adjacency[:, 2] = 0.0
        rows, cols = np.nonzero(adjacency)
        coo = sparse.coo_array(
            (np.concatenate([np.ones(rows.size), [1.0, 1.0, -1.0, 1.0, -1.0]]),
             (np.concatenate([rows, [1, 3, 3, 5, 5]]),
              np.concatenate([cols, [0, 0, 0, 2, 2]]))), shape=(n, n))
        assert adjacency[3, 0] == 0.0 and adjacency[5, 2] == 0.0
        stream = _toggle_stream(rng, adjacency, length=40)
        results = []
        for graph in (coo, coo.toarray()):
            pr = IncrementalPageRank(graph, k=16, strategy="REEVAL",
                                     backend="sparse")
            np.testing.assert_array_equal(pr.adjacency, adjacency)
            for source, target in stream:
                if pr.adjacency[target, source]:
                    pr.remove_edge(source, target)
                else:
                    pr.add_edge(source, target)
            results.append((pr.ranks.copy(), pr.adjacency))
        np.testing.assert_array_equal(results[0][0], results[1][0])
        np.testing.assert_array_equal(results[0][1], results[1][1])

    @pytest.mark.skipif(scipy is None, reason="the sparse backend needs scipy")
    def test_open_peak_above_the_input(self):
        """``sparse_pagerank``'s graph (2048 nodes, dense input): the open
        allocates at most 3.2 MB at its peak (2.7 MB measured, the
        session build included) and keeps 1.6 MB."""
        import tracemalloc

        adjacency = random_adjacency(np.random.default_rng(0), 2048, 20.0)
        IncrementalPageRank(adjacency[:300, :300].copy(), k=16,
                            strategy="REEVAL", backend="sparse")  # imports
        tracemalloc.start()
        try:
            pr = IncrementalPageRank(adjacency, k=16, strategy="REEVAL",
                                     backend="sparse")
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.2e6, f"peak {peak / 1e6:.2f} MB traced"
        assert kept < 2.0e6, f"kept {kept / 1e6:.2f} MB traced"
        assert len(pr._targets) == 2048
