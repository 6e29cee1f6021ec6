"""Execution backends: registry, representation policy, dense/sparse parity.

The headline property test drives identical random factored-update
streams through maintainers built on :class:`DenseBackend` and
:class:`SparseBackend` and asserts the maintained view states agree to
float64 working precision — the backend abstraction must never change
*what* is computed, only *how*.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

try:
    from scipy import sparse as sp
except ImportError:  # the no-scipy CI leg: dense tests still run
    sp = None

needs_scipy = pytest.mark.skipif(sp is None, reason="scipy not installed")

from repro.backends import (
    DENSE,
    Backend,
    DenseBackend,
    SparseBackend,
    available_backends,
    get_backend,
)
from repro.compiler.program import Program, Statement
from repro.expr import MatrixSymbol, NamedDim, matmul
from repro.iterative.models import Model
from repro.iterative.strategies import make_general, make_sums
from repro.runtime.executor import evaluate
from repro.runtime.session import IVMSession, ReevalSession
from repro.runtime.updates import cell_update

SETTINGS = dict(max_examples=20, deadline=None)


def sparse_matrix(rng, n, density=0.03, scale=0.3):
    """A spectrally tame random matrix with ~density nonzeros."""
    return ((rng.random((n, n)) < density) * rng.normal(size=(n, n))) * scale


class TestRegistry:
    def test_names(self):
        assert available_backends() == ["dense", "sparse"]

    def test_none_resolves_to_shared_dense(self):
        assert get_backend(None) is DENSE

    @needs_scipy
    def test_instance_passthrough(self):
        be = SparseBackend()
        assert get_backend(be) is be

    def test_name_lookup(self):
        assert isinstance(get_backend("dense"), DenseBackend)
        if sp is not None:
            assert isinstance(get_backend("sparse"), SparseBackend)

    @pytest.mark.skipif(sp is not None, reason="needs scipy to be absent")
    def test_sparse_without_scipy_raises_cleanly(self):
        # The import gate the planner relies on: construction fails with
        # a RuntimeError (caught by the backend grids), never a crash.
        with pytest.raises(RuntimeError, match="requires scipy"):
            get_backend("sparse")

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("gpu")

    def test_backend_is_abstract(self):
        with pytest.raises(TypeError):
            Backend()


class TestDenseBackend:
    def test_asarray_normalizes_columns(self):
        col = DENSE.asarray(np.arange(3.0))
        assert col.shape == (3, 1)

    def test_asarray_copy_detaches(self):
        src = np.zeros((2, 2))
        out = DENSE.asarray(src, copy=True)
        out[0, 0] = 5.0
        assert src[0, 0] == 0.0

    def test_add_outer_matches_explicit_form(self, rng):
        a = rng.normal(size=(6, 6))
        u = rng.normal(size=(6, 2))
        v = rng.normal(size=(6, 2))
        expected = a + u @ v.T
        out = DENSE.add_outer(a.copy(), u, v)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_density_and_nbytes(self):
        a = np.zeros((4, 4))
        assert DENSE.density(a) == 1.0
        assert DENSE.nbytes(a) == a.nbytes

    def test_flop_hooks_match_dense_formulas(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 5))
        assert DENSE.matmul_flops(a, b) == 2 * 3 * 4 * 5
        assert DENSE.add_flops(a) == 12
        assert DENSE.inverse_flops(np.eye(4)) == 2 * 64


@needs_scipy
class TestSparseBackendPolicy:
    def test_large_low_density_input_becomes_csr(self, rng):
        be = SparseBackend()
        out = be.asarray(sparse_matrix(rng, 100, density=0.02))
        assert sp.issparse(out)

    def test_small_or_thin_inputs_stay_dense(self, rng):
        be = SparseBackend()
        assert isinstance(be.asarray(np.zeros((8, 8))), np.ndarray)
        assert isinstance(be.asarray(np.zeros((200, 3))), np.ndarray)

    def test_dense_input_above_threshold_stays_dense(self, rng):
        be = SparseBackend()
        out = be.asarray(rng.normal(size=(100, 100)))
        assert isinstance(out, np.ndarray)

    def test_results_densify_past_fill_in(self, rng):
        be = SparseBackend()
        a = be.asarray(sparse_matrix(rng, 100, density=0.02))
        dense_u = rng.normal(size=(100, 1))
        dense_v = rng.normal(size=(100, 1))
        out = be.add_outer(a, dense_u, dense_v)  # rank-1 but fully dense
        assert isinstance(out, np.ndarray)

    def test_sparse_add_outer_stays_sparse_for_sparse_factors(self, rng):
        be = SparseBackend()
        a = be.asarray(sparse_matrix(rng, 100, density=0.02))
        u = np.zeros((100, 1))
        u[3, 0] = 1.0
        v = np.zeros((100, 1))
        v[9, 0] = 2.0
        out = be.add_outer(a, u, v)
        assert sp.issparse(out)
        np.testing.assert_allclose(
            be.materialize(out), be.materialize(a) + u @ v.T, atol=1e-12
        )

    @staticmethod
    def _sparse_factors(rng, n, rank, support=4):
        """Thin factors whose columns touch ``support`` rows each."""
        u, v = np.zeros((n, rank)), np.zeros((n, rank))
        for k in range(rank):
            u[rng.choice(n, support, replace=False), k] = rng.normal(size=support)
            v[rng.choice(n, support, replace=False), k] = rng.normal(size=support)
        return u, v

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("kernel", ["add_outer", "add_outer_inplace"])
    def test_add_outer_on_csr_matches_explicit_form(self, kernel, rank, rng):
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.03)
        for _ in range(5):
            a = be.asarray(dense, copy=True)
            u, v = self._sparse_factors(rng, n, rank)
            out = getattr(be, kernel)(a, u, v)
            assert sp.issparse(out)
            assert out.has_canonical_format
            np.testing.assert_allclose(
                be.materialize(out), dense + u @ v.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel", ["add_outer", "add_outer_inplace"])
    def test_add_outer_overlapping_columns_sum(self, kernel, rng):
        """Rank-3 factors whose columns hit the same cells accumulate."""
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.03)
        u, v = np.zeros((n, 3)), np.zeros((n, 3))
        u[[5, 9], :] = rng.normal(size=(2, 3))
        v[[7, 11], :] = rng.normal(size=(2, 3))
        out = getattr(be, kernel)(be.asarray(dense, copy=True), u, v)
        np.testing.assert_allclose(
            be.materialize(out), dense + u @ v.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel", ["add_outer", "add_outer_inplace"])
    def test_add_outer_cancelling_an_entry_drops_it(self, kernel, rng):
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.03)
        row, col = (int(i[0]) for i in np.nonzero(dense))
        a = be.asarray(dense, copy=True)
        u, v = np.zeros((n, 1)), np.zeros((n, 1))
        u[row, 0], v[col, 0] = -dense[row, col], 1.0
        out = getattr(be, kernel)(a, u, v)
        assert sp.issparse(out)
        assert out.nnz == np.count_nonzero(dense) - 1
        expected = dense.copy()
        expected[row, col] = 0.0
        np.testing.assert_array_equal(be.materialize(out), expected)

    def test_add_outer_inplace_on_pattern_reuses_buffers(self, rng):
        """A rank-3 delta wholly on the stored pattern moves only ``data``."""
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.05)
        a = be.asarray(dense, copy=True)
        rows = rng.choice(n, 3, replace=False)
        u, v = np.zeros((n, 3)), np.zeros((n, 3))
        for k, row in enumerate(rows):
            u[row, k] = 1.0
            v[a[[row]].indices, k] = rng.normal(size=a[[row]].nnz)
        data, indices, indptr = a.data, a.indices, a.indptr
        out = be.add_outer_inplace(a, u, v)
        assert out is a
        assert out.data is data and out.indices is indices
        assert out.indptr is indptr
        np.testing.assert_allclose(
            be.materialize(out), dense + u @ v.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel", ["add_outer", "add_outer_inplace"])
    def test_add_outer_past_densify_threshold_goes_dense(self, kernel, rng):
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.03)
        u, v = np.zeros((n, 2)), np.zeros((n, 2))
        u[:70, 0] = rng.normal(size=70)   # 70 x 60 = 42% of the cells
        v[:60, 0] = rng.normal(size=60)
        u[3, 1], v[4, 1] = 1.0, 1.0
        out = getattr(be, kernel)(be.asarray(dense, copy=True), u, v)
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, dense + u @ v.T, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kernel", ["add_outer", "add_outer_inplace"])
    def test_add_outer_of_nothing_is_identity(self, kernel, rng):
        """Width-0 factors (a batch that compacted away) and zero factors."""
        be = SparseBackend()
        n = 100
        dense = sparse_matrix(rng, n, density=0.03)
        for width in (0, 2):
            a = be.asarray(dense, copy=True)
            out = getattr(be, kernel)(a, np.zeros((n, width)),
                                      np.zeros((n, width)))
            np.testing.assert_array_equal(be.materialize(out), dense)

    def test_asarray_to_csr_takes_no_dense_copy(self, rng):
        """``copy=True`` copies what stays dense, not what becomes CSR."""
        import tracemalloc

        be = SparseBackend()
        n = 1500
        dense = sparse_matrix(rng, n, density=0.002)
        tracemalloc.start()
        out = be.asarray(dense, copy=True)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert sp.issparse(out)
        assert peak < dense.nbytes / 4
        for part in (out.data, out.indices, out.indptr):
            assert not np.shares_memory(part, dense)
        before = out.toarray()
        dense[:] = 7.0
        np.testing.assert_array_equal(out.toarray(), before)

    def test_asarray_copy_of_dense_result_never_aliases(self, rng):
        be = SparseBackend()
        full = rng.normal(size=(100, 100))
        assert be.asarray(full) is full
        copied = be.asarray(full, copy=True)
        assert isinstance(copied, np.ndarray)
        assert not np.shares_memory(copied, full)
        column = np.arange(5.0)
        assert not np.shares_memory(be.asarray(column, copy=True), column)

    def test_from_columns_matches_dense_scatter(self, rng):
        n = 100
        dense = (rng.random((n, n)) < 0.04) * rng.normal(size=(n, n))
        csc = sp.csc_array(dense)
        args = ((n, n), csc.indptr, csc.indices, csc.data)
        np.testing.assert_array_equal(DENSE.from_columns(*args), dense)
        out = SparseBackend().from_columns(*args)
        assert sp.issparse(out) and out.format == "csr"
        assert out.has_sorted_indices
        np.testing.assert_array_equal(out.toarray(), dense)
        assert not np.shares_memory(out.data, csc.data)
        # The entry rule is asarray's: too dense or too small stays dense.
        full = sp.csc_array(rng.normal(size=(n, n)))
        assert isinstance(SparseBackend().from_columns(
            (n, n), full.indptr, full.indices, full.data), np.ndarray)
        assert isinstance(SparseBackend(min_sparse_dim=n + 1).from_columns(
            *args), np.ndarray)

    def test_hysteresis_validation(self):
        with pytest.raises(ValueError, match="hysteresis"):
            SparseBackend(sparsify_below=0.4, densify_above=0.3)

    def test_eye_and_zeros_representation(self):
        be = SparseBackend(min_sparse_dim=16)
        assert sp.issparse(be.eye(32))
        assert isinstance(be.eye(8), np.ndarray)
        assert sp.issparse(be.zeros(32, 32))

    def test_norm_and_max_abs_match_dense(self, rng):
        be = SparseBackend()
        dense = sparse_matrix(rng, 80, density=0.05)
        a = be.asarray(dense)
        assert sp.issparse(a)
        assert be.norm(a) == pytest.approx(np.linalg.norm(dense))
        assert be.max_abs(a) == pytest.approx(np.max(np.abs(dense)))
        assert be.max_abs(be.zeros(80, 80)) == 0.0

    def test_nbytes_counts_csr_structures(self, rng):
        be = SparseBackend()
        a = be.asarray(sparse_matrix(rng, 100, density=0.01))
        assert 0 < be.nbytes(a) < 100 * 100 * 8

    def test_matmul_flops_scale_with_nnz(self, rng):
        be = SparseBackend()
        a = be.asarray(sparse_matrix(rng, 100, density=0.01))
        x = rng.normal(size=(100, 1))
        assert be.matmul_flops(a, x) < DENSE.matmul_flops(np.zeros((100, 100)), x)

    def test_solve_matches_dense(self, rng):
        be = SparseBackend()
        dense = np.eye(100) + sparse_matrix(rng, 100, density=0.02)
        rhs = rng.normal(size=(100, 1))
        a = be.asarray(dense)
        np.testing.assert_allclose(
            be.solve(a, rhs), np.linalg.solve(dense, rhs), atol=1e-9
        )

    def test_compact_accepts_sparse_factors(self, rng):
        be = SparseBackend()
        u = rng.normal(size=(30, 2))
        v = rng.normal(size=(30, 2))
        left, right = be.compact(sp.csr_array(u), sp.csr_array(v), 1e-12)
        np.testing.assert_allclose(left @ right.T, u @ v.T, atol=1e-10)


@needs_scipy
class TestExecutorBackend:
    def test_evaluate_dispatches_sparse(self, rng):
        n = NamedDim("n")
        a_sym = MatrixSymbol("A", n, n)
        expr = matmul(a_sym, a_sym)
        a = sparse_matrix(rng, 100, density=0.02)
        be = get_backend("sparse")
        dense_out = evaluate(expr, {"A": a})
        sparse_out = evaluate(expr, {"A": be.asarray(a)}, backend=be)
        assert sp.issparse(sparse_out)
        np.testing.assert_allclose(be.materialize(sparse_out), dense_out,
                                   atol=1e-10)

    def test_evaluate_honors_native_dense_leaves(self, rng):
        # Native float64 ndarrays pass through untouched (no per-leaf
        # re-normalization into the representation policy) — the
        # product then runs dense and must still match.
        n = NamedDim("n")
        a_sym = MatrixSymbol("A", n, n)
        expr = matmul(a_sym, a_sym)
        a = sparse_matrix(rng, 100, density=0.02)
        out = evaluate(expr, {"A": a}, backend="sparse")
        assert isinstance(out, np.ndarray)
        np.testing.assert_allclose(out, evaluate(expr, {"A": a}), atol=1e-10)


def _apply_stream(maintainer, events, n):
    for row, col, value in events:
        u = np.zeros((n, 1))
        v = np.zeros((n, 1))
        u[row, 0] = value
        v[col, 0] = 1.0
        maintainer.refresh(u, v)


@needs_scipy
class TestDenseSparseParity:
    """The satellite property test: equal view states, any update stream."""

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(64, 110),
        k=st.sampled_from([4, 8]),
        strategy=st.sampled_from(["REEVAL", "INCR", "HYBRID"]),
        events=st.lists(
            st.tuples(
                st.integers(0, 63),
                st.integers(0, 63),
                st.floats(-0.05, 0.05, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    def test_general_form_states_agree(self, seed, n, k, strategy, events):
        rng = np.random.default_rng(seed)
        a = sparse_matrix(rng, n, density=0.03, scale=0.2)
        b = np.full((n, 1), 0.01)
        t0 = np.full((n, 1), 1.0 / n)
        dense = make_general(strategy, a, b, t0, k, Model.linear())
        sparse_m = make_general(strategy, a, b, t0, k, Model.linear(),
                                backend="sparse")
        _apply_stream(dense, events, n)
        _apply_stream(sparse_m, events, n)
        be = sparse_m.ops.backend
        np.testing.assert_allclose(
            be.materialize(sparse_m.result()), dense.result(), atol=1e-9
        )
        np.testing.assert_allclose(
            be.materialize(sparse_m.a), dense.a, atol=1e-9
        )

    @settings(**SETTINGS)
    @given(
        seed=st.integers(0, 2**32 - 1),
        strategy=st.sampled_from(["REEVAL", "INCR"]),
        events=st.lists(
            st.tuples(
                st.integers(0, 63),
                st.integers(0, 63),
                st.floats(-0.05, 0.05, allow_nan=False),
            ),
            min_size=1,
            max_size=5,
        ),
    )
    def test_power_sums_states_agree(self, seed, strategy, events):
        n, k = 72, 8
        rng = np.random.default_rng(seed)
        a = sparse_matrix(rng, n, density=0.03, scale=0.2)
        dense = make_sums(strategy, a, k, Model.exponential())
        sparse_m = make_sums(strategy, a, k, Model.exponential(),
                             backend="sparse")
        _apply_stream(dense, events, n)
        _apply_stream(sparse_m, events, n)
        be = sparse_m.ops.backend
        np.testing.assert_allclose(
            be.materialize(sparse_m.result()), dense.result(), atol=1e-9
        )


@needs_scipy
class TestSessionBackendParity:
    @pytest.fixture()
    def program(self):
        n = NamedDim("n")
        a = MatrixSymbol("A", n, n)
        b = MatrixSymbol("B", n, n)
        c = MatrixSymbol("C", n, n)
        return Program([a], [Statement(b, matmul(a, a)),
                             Statement(c, matmul(b, a))])

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_ivm_sessions_agree(self, program, rng, mode):
        n = 90
        a = sparse_matrix(rng, n, density=0.03)
        dense = IVMSession(program, {"A": a}, dims={"n": n}, mode=mode)
        sparse_s = IVMSession(program, {"A": a}, dims={"n": n}, mode=mode,
                              backend="sparse")
        for _ in range(4):
            upd = cell_update("A", n, n, int(rng.integers(n)),
                              int(rng.integers(n)), 0.1)
            dense.apply_update(upd)
            sparse_s.apply_update(upd)
        np.testing.assert_allclose(sparse_s.output(), dense.output(),
                                   atol=1e-9)
        assert sp.issparse(sparse_s.views.get("A"))

    def test_reeval_session_agrees(self, program, rng):
        n = 90
        a = sparse_matrix(rng, n, density=0.03)
        dense = ReevalSession(program, {"A": a}, dims={"n": n})
        sparse_s = ReevalSession(program, {"A": a}, dims={"n": n},
                                 backend="sparse")
        for _ in range(3):
            upd = cell_update("A", n, n, int(rng.integers(n)),
                              int(rng.integers(n)), 0.1)
            dense.apply_update(upd)
            sparse_s.apply_update(upd)
        np.testing.assert_allclose(sparse_s.output(), dense.output(),
                                   atol=1e-9)

    def test_codegen_runs_the_sessions_backend_kernels(self, program, rng):
        """The printed form names kernels, not NumPy operators; binding
        resolves every one of them to the session's backend."""
        from repro.compiler.codegen.fused import generate_python_trigger

        session = IVMSession(program, {"A": sparse_matrix(rng, 90, 0.03)},
                             dims={"n": 90}, mode="codegen",
                             backend="sparse")
        fn = session._executors["A"]
        assert fn.__source__ == generate_python_trigger(session.triggers["A"])
        assert "_matmul(" in fn.__source__ and "@" not in fn.__source__
        # Updates accumulate into store-owned arrays: no copy-on-write.
        assert "_outer(" in fn.__source__ and ".copy()" not in fn.__source__
        for kernel in ("_matmul", "_add", "_outer"):
            assert fn.__globals__[kernel].__self__ is session.backend


@needs_scipy
class TestAnalyticsBackend:
    def test_pagerank_sparse_matches_dense(self, rng):
        from repro.analytics.pagerank import IncrementalPageRank

        n = 150
        adjacency = (rng.random((n, n)) < 0.05).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        dense = IncrementalPageRank(adjacency.copy(), k=8)
        sparse_p = IncrementalPageRank(adjacency.copy(), k=8,
                                       backend="sparse")
        for _ in range(5):
            src, dst = int(rng.integers(n)), int(rng.integers(n))
            if src == dst:
                continue
            if adjacency[dst, src]:
                dense.remove_edge(src, dst)
                sparse_p.remove_edge(src, dst)
                adjacency[dst, src] = 0.0
            else:
                dense.add_edge(src, dst)
                sparse_p.add_edge(src, dst)
                adjacency[dst, src] = 1.0
        np.testing.assert_allclose(sparse_p.ranks, dense.ranks, atol=1e-10)
        assert sparse_p.revalidate() < 1e-8

    def test_reachability_sparse_matches_dense(self, rng):
        from repro.analytics.reachability import ReachabilityIndex

        n = 80
        adjacency = (rng.random((n, n)) < 0.02).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        dense = ReachabilityIndex(adjacency.copy(), k=4)
        sparse_r = ReachabilityIndex(adjacency.copy(), k=4, backend="sparse")
        added = 0
        for src in range(n):
            dst = (src * 7 + 3) % n
            if src != dst and adjacency[dst, src] == 0.0:
                dense.add_edge(src, dst)
                sparse_r.add_edge(src, dst)
                adjacency[dst, src] = 1.0
                added += 1
            if added >= 6:
                break
        np.testing.assert_allclose(sparse_r.walk_counts(),
                                   dense.walk_counts(), atol=1e-9)
        assert sparse_r.reachable_pairs().sum() == dense.reachable_pairs().sum()
