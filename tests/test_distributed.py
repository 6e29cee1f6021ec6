"""The BSP simulator: data model, backend kernels and their ledger, and the
``repro.iterative`` maintainers run on it — one differential grid against
the same factory call on the dense backend."""

import numpy as np
import pytest

from repro.backends import SparseBackend, available_backends
from repro.distributed import (
    BlockMatrix,
    Cluster,
    ClusterConfig,
    CommLog,
    GridPartitioner,
    SimulatedBackend,
    hybrid_extra_bytes,
)
from repro.iterative import (
    Model,
    make_general,
    make_powers,
    make_sums,
    parse_model,
)
from repro.workloads import spectral_normalized


def simulated(grid=3, tiles=None):
    """A fresh laptop-scale cluster and the backend charging it."""
    cluster = Cluster(config=ClusterConfig.laptop_scale(grid))
    return SimulatedBackend(cluster, tiles=tiles), cluster


def row_update(rng, n, scale=0.05):
    u = np.zeros((n, 1))
    u[rng.integers(n), 0] = 1.0
    return u, scale * rng.standard_normal((n, 1))


class TestPartitioner:
    def test_balanced_bounds(self):
        part = GridPartitioner(10, 10, 3)
        sizes = [b - a for a, b in part.row_bounds]
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1

    def test_split_assemble_roundtrip(self, rng):
        dense = rng.normal(size=(11, 7))
        part = GridPartitioner(11, 7, 3)
        np.testing.assert_array_equal(part.assemble(part.split(dense)), dense)

    def test_too_small_matrix_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            GridPartitioner(2, 10, 3)

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridPartitioner(10, 10, 0)

    def test_hybrid_extra_bytes_is_one_copy(self):
        assert hybrid_extra_bytes(100, 50) == 100 * 50 * 8


class TestBlockMatrix:
    def test_from_dense_to_dense(self, rng):
        dense = rng.normal(size=(9, 9))
        np.testing.assert_array_equal(
            BlockMatrix.from_dense(dense, 3).to_dense(), dense
        )

    def test_shape_and_grid(self, rng):
        bm = BlockMatrix.from_dense(rng.normal(size=(8, 6)), 2)
        assert bm.shape == (8, 6) and bm.grid == 2

    def test_copy_is_deep(self, rng):
        bm = BlockMatrix.from_dense(rng.normal(size=(6, 6)), 2)
        clone = bm.copy()
        clone.tiles[(0, 0)][0, 0] = 99.0
        assert bm.tiles[(0, 0)][0, 0] != 99.0

    def test_nbytes(self, rng):
        bm = BlockMatrix.from_dense(rng.normal(size=(10, 10)), 2)
        assert bm.nbytes() == 100 * 8

    def test_wrong_tiles_rejected(self, rng):
        part = GridPartitioner(6, 6, 2)
        with pytest.raises(ValueError):
            BlockMatrix(part, {(0, 0): np.ones((3, 3))})

    def test_transpose_is_a_lazy_view(self, rng):
        bm = BlockMatrix.from_dense(rng.normal(size=(8, 6)), 2)
        assert bm.T.shape == (6, 8) and bm.T.base is bm


class TestSparseConstruction:
    """BlockMatrix.from_sparse: graph inputs never materialize densely."""

    def test_from_sparse_round_trips(self, rng):
        sparse = pytest.importorskip("scipy.sparse")
        n = 120
        dense = (rng.random((n, n)) < 0.03) * rng.normal(size=(n, n))
        bm = BlockMatrix.from_sparse(sparse.csr_array(dense), grid=3)
        assert bm.shape == (n, n)
        np.testing.assert_array_equal(bm.to_dense(), dense)

    def test_from_sparse_keeps_tiles_compressed(self, rng):
        sparse = pytest.importorskip("scipy.sparse")
        n = 256
        dense = (rng.random((n, n)) < 0.01) * rng.normal(size=(n, n))
        bm = BlockMatrix.from_sparse(sparse.csr_array(dense), grid=2)
        assert bm.nbytes() < dense.nbytes / 4

    def test_from_dense_accepts_sparse_source(self, rng):
        sparse = pytest.importorskip("scipy.sparse")
        n = 90
        dense = (rng.random((n, n)) < 0.05) * rng.normal(size=(n, n))
        bm = BlockMatrix.from_dense(sparse.csr_array(dense), grid=3)
        np.testing.assert_array_equal(bm.to_dense(), dense)

    def test_from_sparse_rejects_dense_input(self, rng):
        pytest.importorskip("scipy.sparse")
        with pytest.raises(TypeError, match="scipy.sparse"):
            BlockMatrix.from_sparse(rng.normal(size=(8, 8)), grid=2)

    def test_from_sparse_with_dense_backend_materializes_tiles(self, rng):
        sparse = pytest.importorskip("scipy.sparse")
        n = 64
        dense = (rng.random((n, n)) < 0.1) * rng.normal(size=(n, n))
        bm = BlockMatrix.from_sparse(sparse.csr_array(dense), grid=2,
                                     backend="dense")
        assert all(isinstance(t, np.ndarray) for t in bm.tiles.values())
        np.testing.assert_array_equal(bm.to_dense(), dense)


class TestCommLog:
    def test_classified_totals(self):
        log = CommLog()
        log.record("shuffle", "matmul", 100, messages=4)
        log.record("broadcast", "lowrank_update", 30, messages=9)
        log.record("gather", "mat_lowrank", 10)
        assert log.shuffled_bytes == 100
        assert log.broadcast_bytes == 30
        assert log.gathered_bytes == 10
        assert log.total_bytes == 140
        assert log.total_messages == 14

    def test_by_label(self):
        log = CommLog()
        log.record("broadcast", "x", 5)
        log.record("broadcast", "x", 7)
        log.record("shuffle", "y", 1)
        assert log.bytes_by_label() == {"x": 12, "y": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            CommLog().record("carrier-pigeon", "x", 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CommLog().record("shuffle", "x", -1)

    def test_reset(self):
        log = CommLog()
        log.record("shuffle", "x", 5)
        log.reset()
        assert log.total_bytes == 0


class TestBackendKernels:
    """Each kernel of the Backend surface, by operand kind."""

    def test_not_a_registered_backend(self):
        assert available_backends() == ["dense", "sparse"]

    def test_asarray_partitions_and_never_aliases(self, rng):
        backend, cluster = simulated(grid=3)
        dense = rng.normal(size=(9, 9))
        original = dense.copy()
        bm = backend.asarray(dense, copy=True)
        assert isinstance(bm, BlockMatrix) and bm.grid == cluster.config.grid
        backend.add_outer_inplace(bm, np.ones((9, 1)), np.ones((9, 1)))
        np.testing.assert_array_equal(dense, original)  # caller's array intact
        np.testing.assert_allclose(backend.materialize(bm), original + 1.0)
        assert backend.asarray(bm) is bm
        assert backend.asarray(bm, copy=True) is not bm
        np.testing.assert_array_equal(backend.eye(9).to_dense(), np.eye(9))
        assert backend.is_native(bm) and backend.is_native(dense)
        assert backend.nbytes(bm) == 81 * 8

    def test_tiles_times_tiles_is_summa(self, rng):
        backend, cluster = simulated(grid=3)
        a = rng.normal(size=(12, 9))
        b = rng.normal(size=(9, 15))
        result = backend.matmul(
            BlockMatrix.from_dense(a, 3), BlockMatrix.from_dense(b, 3)
        )
        np.testing.assert_allclose(result.to_dense(), a @ b, atol=1e-10)
        assert [s.label for s in cluster.steps] == ["matmul"]

    def test_matmul_shape_mismatch(self, rng):
        backend, _ = simulated(grid=3)
        a = BlockMatrix.from_dense(rng.normal(size=(6, 6)), 3)
        b = BlockMatrix.from_dense(rng.normal(size=(7, 7)), 3)
        with pytest.raises(ValueError, match="shape mismatch"):
            backend.matmul(a, b)

    def test_add_is_tile_local(self, rng):
        backend, cluster = simulated(grid=3)
        a = rng.normal(size=(9, 9))
        b = rng.normal(size=(9, 9))
        bm_a = BlockMatrix.from_dense(a, 3)
        bm_b = BlockMatrix.from_dense(b, 3)
        np.testing.assert_allclose(backend.add(bm_a, bm_b).to_dense(), a + b)
        assert [(s.label, s.max_bytes_in, s.rounds)
                for s in cluster.steps] == [("add", 0, 0)]
        assert cluster.comm.total_bytes == 0  # element-wise ops ship nothing
        with pytest.raises(ValueError, match="share shape"):
            backend.add(bm_a, BlockMatrix.from_dense(np.eye(12), 3))
        with pytest.raises(TypeError, match="block matrices"):
            backend.add(bm_a, b)

    def test_add_outer_accumulates_into_the_tiles(self, rng):
        backend, _ = simulated(grid=3)
        a = rng.normal(size=(9, 9))
        bm = BlockMatrix.from_dense(a, 3)
        before = dict(bm.tiles)
        u = rng.normal(size=(9, 2))
        v = rng.normal(size=(9, 2))
        assert backend.add_outer_inplace(bm, u, v) is bm
        np.testing.assert_allclose(bm.to_dense(), a + u @ v.T, atol=1e-12)
        # PR 12's rule: the stored tiles are updated, not replaced.
        assert all(bm.tiles[key] is tile for key, tile in before.items())

    def test_tiles_times_thin_both_orientations(self, rng):
        backend, cluster = simulated(grid=3)
        a = rng.normal(size=(9, 12))
        bm = BlockMatrix.from_dense(a, 3)
        u = rng.normal(size=(12, 3))
        v = rng.normal(size=(9, 2))
        np.testing.assert_allclose(backend.matmul(bm, u), a @ u, atol=1e-10)
        np.testing.assert_allclose(backend.matmul(bm.T, v), a.T @ v,
                                   atol=1e-10)
        assert [s.label for s in cluster.steps] == ["mat_lowrank"] * 2
        kinds = cluster.comm.bytes_by_kind()
        assert kinds["shuffle"] == 0
        assert kinds["broadcast"] == (u.nbytes + v.nbytes) * 9
        assert kinds["gather"] == (9 * 3 + 12 * 2) * 8

    def test_anything_else_on_a_transposed_view_is_a_type_error(self, rng):
        backend, _ = simulated(grid=2)
        bm = BlockMatrix.from_dense(rng.normal(size=(8, 8)), 2)
        thin = rng.normal(size=(8, 2))
        for a, b in ((bm.T, bm), (bm, bm.T), (thin.T, bm)):
            with pytest.raises(TypeError, match="no kernel"):
                backend.matmul(a, b)
        with pytest.raises(TypeError, match="block matrices"):
            backend.add(bm.T, bm)

    def test_thin_products_are_charged_by_the_one_master_rule(self, rng):
        backend, cluster = simulated(grid=2)
        x = rng.normal(size=(8, 3))
        y = rng.normal(size=(3, 5))
        out = np.empty((8, 5))
        assert backend.matmul_into(x, y, out) is out
        np.testing.assert_allclose(out, x @ y)
        t = rng.normal(size=(8, 2))
        expect = t + x @ x[:2].T
        backend.add_outer_inplace(t, x, x[:2])
        np.testing.assert_allclose(t, expect)
        backend.add(x, x)  # thin element-wise work is not charged
        assert [(s.label, s.max_flops, s.max_bytes_in, s.rounds)
                for s in cluster.steps] == [
            ("master_small", 2 * 8 * 3 * 5, 0, 0),
            ("master_small", 2 * 8 * 3 * 2, 0, 0),
        ]
        assert cluster.comm.total_bytes == 0

    def test_tile_representation_must_match_the_tile_backend(self, rng):
        pytest.importorskip("scipy.sparse")
        dense = (rng.random((64, 64)) < 0.05) * rng.normal(size=(64, 64))
        csr = BlockMatrix.from_dense(
            dense, 2, backend=SparseBackend(min_sparse_dim=16)
        )
        backend, _ = simulated(grid=2)
        with pytest.raises(ValueError, match="tile backend"):
            backend.matmul(csr, csr)


class TestCostAccounting:
    def test_matmul_shuffles_quadratic_bytes(self, rng):
        n, g = 30, 3
        backend, cluster = simulated(grid=g)
        a = backend.asarray(rng.normal(size=(n, n)))
        backend.matmul(a, a)
        step = cluster.steps[-1]
        tile = (n // g) ** 2 * 8
        assert step.max_bytes_in == 2 * (g - 1) * tile

    def test_lowrank_broadcast_is_linear_bytes(self, rng):
        n, g, k = 30, 3, 2
        backend, cluster = simulated(grid=g)
        a = backend.asarray(rng.normal(size=(n, n)))
        backend.add_outer_inplace(a, rng.normal(size=(n, k)),
                                  rng.normal(size=(n, k)))
        step = cluster.steps[-1]
        assert step.max_bytes_in == 2 * n * k * 8

    def test_shuffle_comes_only_from_matmul(self, rng):
        n = 12
        backend, cluster = simulated(grid=2)
        a = backend.asarray(rng.normal(size=(n, n)))
        thin = rng.normal(size=(n, 2))
        backend.add(a, a)
        backend.add_outer_inplace(a, thin, thin)
        backend.matmul(a, thin)
        backend.matmul(a.T, thin)
        assert cluster.comm.shuffled_bytes == 0
        backend.matmul(a, a)
        assert cluster.comm.shuffled_bytes > 0
        assert {e.label for e in cluster.comm.events
                if e.kind == "shuffle"} == {"matmul"}

    def test_elapsed_accumulates_and_reset_clears_clock_not_state(self, rng):
        backend, cluster = simulated(grid=2)
        a = backend.asarray(rng.normal(size=(8, 8)))
        assert cluster.elapsed == 0.0
        backend.matmul(a, a)
        first = cluster.elapsed
        backend.matmul(a, a)
        assert cluster.elapsed > first
        kept = a.to_dense()
        cluster.reset()
        assert cluster.elapsed == 0.0 and not cluster.steps
        np.testing.assert_array_equal(a.to_dense(), kept)

    def test_breakdown_by_label(self, rng):
        backend, cluster = simulated(grid=2)
        a = backend.asarray(rng.normal(size=(8, 8)))
        backend.matmul(a, a)
        backend.add(a, a)
        assert set(cluster.breakdown()) == {"matmul", "add"}


# -- the maintainers on the simulated backend ------------------------------

N, P, K = 24, 3, 8


def _build(kind, strategy, model, a, b, t0, backend):
    """One ``repro.iterative`` factory call — the same for every backend."""
    if kind == "powers":
        return make_powers(strategy, a, K, model, backend=backend)
    if kind == "sums":
        return make_sums(strategy, a, K, model, backend=backend)
    return make_general(strategy, a, b, t0, K, model, backend=backend)


def _grid_cells():
    for model in ("LIN", "EXP", "SKIP-4"):
        for strategy in ("REEVAL", "INCR"):
            yield "powers", strategy, model, False
            yield "sums", strategy, model, False
        for strategy in ("REEVAL", "INCR", "HYBRID"):
            for with_b in (False, True):
                yield "general", strategy, model, with_b


def _differential(kind, strategy, model, with_b, rng, a, backend, cluster):
    """Run one cell on ``backend`` and on dense over a shared stream.

    Returns the per-refresh step labels the cluster recorded.
    """
    model = parse_model(model)
    n = a.shape[0]
    t0 = rng.normal(size=(n, P))
    b = rng.normal(size=(n, P)) if with_b else None
    dist = _build(kind, strategy, model, a, b, t0, backend)
    local = _build(kind, strategy, model, a, b, t0, None)
    np.testing.assert_allclose(
        backend.materialize(dist.result()), local.result(), atol=1e-9
    )
    labels = []
    for _ in range(3):
        u, v = row_update(rng, n)
        cluster.reset()
        dist.refresh(u, v)
        local.refresh(u, v)
        labels.append({step.label for step in cluster.steps})
        np.testing.assert_allclose(
            backend.materialize(dist.result()), local.result(), atol=1e-9
        )
    return labels


@pytest.mark.parametrize(
    "kind,strategy,model,with_b", list(_grid_cells()),
    ids=lambda value: {True: "B", False: "noB"}.get(value, value),
)
def test_simulated_matches_dense(kind, strategy, model, with_b, rng):
    """Every cell equals the dense backend, and the ledger shows the
    paper's claim: no n x n product under incremental maintenance."""
    backend, cluster = simulated(grid=3)
    a = 0.1 * rng.normal(size=(N, N))
    for labels in _differential(kind, strategy, model, with_b, rng, a,
                                backend, cluster):
        if strategy != "REEVAL":
            assert "matmul" not in labels
            assert cluster.comm.shuffled_bytes == 0
            assert cluster.comm.broadcast_bytes > 0
        elif kind != "general":
            assert "matmul" in labels
        elif model == "LIN":
            # Thin iterates: even REEVAL only broadcasts and gathers.
            assert "matmul" not in labels
        assert "lowrank_update" in labels


@pytest.mark.parametrize("kind,strategy", [("powers", "INCR"),
                                           ("general", "HYBRID")])
def test_csr_tiles_match_dense(kind, strategy, rng):
    """The CSR tile kernel, which no maintainer could reach before."""
    pytest.importorskip("scipy.sparse")
    n = 64
    a = (rng.random((n, n)) < 0.04) * rng.normal(size=(n, n)) * 0.2
    backend, cluster = simulated(
        grid=2, tiles=SparseBackend(min_sparse_dim=16)
    )
    assert not isinstance(backend.asarray(a).tiles[(0, 0)], np.ndarray)
    _differential(kind, strategy, "EXP", False, rng, a, backend, cluster)


class TestMaintainersOnTheCluster:
    def test_reeval_sums_keeps_one_copy_of_a(self, rng):
        """One REEVAL-EXP sums refresh broadcasts one low-rank update."""
        backend, cluster = simulated(grid=2)
        view = make_sums("REEVAL", 0.1 * rng.normal(size=(N, N)), K,
                         Model.exponential(), backend=backend)
        assert view.a is view._powers.a
        cluster.reset()
        view.refresh(*row_update(rng, N))
        updates = [e for e in cluster.comm.events
                   if e.label == "lowrank_update"]
        assert len(updates) == 1 and updates[0].kind == "broadcast"
        assert view.a is view._powers.a

    def test_incr_ships_fewer_bytes(self, rng):
        # Needs k << n (the paper's regime): factor broadcasts are O(nk)
        # against O(n^2/g) shuffled tiles per product.
        n, k, g = 200, 8, 4
        a = spectral_normalized(rng, n)
        reeval_cluster = Cluster(ClusterConfig(grid=g))
        incr_cluster = Cluster(ClusterConfig(grid=g))
        reeval = make_powers("REEVAL", a, k, Model.exponential(),
                             backend=SimulatedBackend(reeval_cluster))
        incr = make_powers("INCR", a, k, Model.exponential(),
                           backend=SimulatedBackend(incr_cluster))
        reeval_cluster.reset()
        incr_cluster.reset()
        u = np.zeros((n, 1))
        u[0, 0] = 1.0
        v = 0.01 * np.ones((n, 1))
        reeval.refresh(u, v)
        incr.refresh(u, v)
        assert incr_cluster.total_bytes < reeval_cluster.total_bytes
        assert (reeval_cluster.comm.shuffled_bytes
                > reeval_cluster.comm.broadcast_bytes)

    def test_fig3f_trend(self, rng):
        """REEVAL speeds up with workers; INCR stays comparatively flat."""
        n, k = 120, 16
        a = spectral_normalized(rng, n, 0.9)
        reeval_times, incr_times = [], []
        for g in (2, 4, 8):
            times = {}
            for strategy in ("REEVAL", "INCR"):
                backend, cluster = simulated(grid=g)
                view = make_powers(strategy, a, k, Model.exponential(),
                                   backend=backend)
                cluster.reset()
                u = np.zeros((n, 1))
                u[0, 0] = 1.0
                view.refresh(u, 0.01 * np.ones((n, 1)))
                times[strategy] = cluster.elapsed
            reeval_times.append(times["REEVAL"])
            incr_times.append(times["INCR"])
        assert reeval_times[0] > reeval_times[-1] * 2  # strong scaling
        incr_spread = max(incr_times) / min(incr_times)
        reeval_spread = reeval_times[0] / reeval_times[-1]
        assert incr_spread < reeval_spread  # INCR far less node-sensitive
        assert all(i < r for i, r in zip(incr_times, reeval_times))

    def test_incr_sums_simulated_time_beats_reeval(self, rng):
        a = 0.1 * rng.normal(size=(30, 30))
        u, v = row_update(rng, 30)
        elapsed = {}
        for strategy in ("REEVAL", "INCR"):
            backend, cluster = simulated()
            view = make_sums(strategy, a, 8, Model.exponential(),
                             backend=backend)
            cluster.reset()
            view.refresh(u, v)
            elapsed[strategy] = cluster.elapsed
        assert elapsed["INCR"] < elapsed["REEVAL"]

    def test_hybrid_cheaper_than_incr_at_p1(self, rng):
        # Fig. 3g's p = 1 finding on the simulated clock.
        n, k = 40, 8
        a = 0.1 * rng.normal(size=(n, n))
        t0 = rng.normal(size=(n, 1))
        elapsed = {}
        for strategy in ("INCR", "HYBRID"):
            backend, cluster = simulated()
            view = make_general(strategy, a, None, t0, k, Model.linear(),
                                backend=backend)
            cluster.reset()
            for seed in range(3):
                view.refresh(*row_update(np.random.default_rng(seed), n))
            elapsed[strategy] = cluster.elapsed
        assert elapsed["HYBRID"] <= elapsed["INCR"]

    def test_factory_errors_are_the_iterative_ones(self):
        backend, _ = simulated(grid=2)
        with pytest.raises(ValueError, match="unknown strategy"):
            make_general("MAGIC", np.eye(4), None, np.ones((4, 1)), 2,
                         Model.linear(), backend=backend)
        with pytest.raises(ValueError, match="no 'HYBRID' strategy"):
            make_powers("HYBRID", np.eye(4), 2, Model.linear(),
                        backend=backend)
        with pytest.raises(ValueError, match="shape mismatch"):
            make_general("REEVAL", np.eye(4), None, np.ones((5, 1)), 2,
                         Model.linear(), backend=backend)
        with pytest.raises(ValueError, match="must match"):
            make_general("REEVAL", np.eye(4), np.ones((4, 2)),
                         np.ones((4, 1)), 2, Model.linear(), backend=backend)

    def test_vector_t0_reshaped(self, rng):
        backend, _ = simulated(grid=2)
        view = make_general("HYBRID", 0.1 * rng.normal(size=(8, 8)), None,
                            np.ones(8), 4, Model.linear(), backend=backend)
        assert view.result().shape == (8, 1)
