"""Numeric executor: per-node evaluation, FLOP counting, error paths."""

import numpy as np
import pytest

from repro.backends import DENSE
from repro.cost import Counter
from repro.cost.counters import counted
from repro.expr import (
    Identity,
    MatrixSymbol,
    NamedDim,
    ZeroMatrix,
    add,
    hstack,
    inverse,
    matmul,
    scalar_mul,
    sub,
    transpose,
    vstack,
)
from repro.runtime import EvaluationError, evaluate, resolve_dim
from repro.expr.shapes import dim_add

n = NamedDim("n")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
u = MatrixSymbol("u", n, 1)
v = MatrixSymbol("v", n, 1)


@pytest.fixture
def env(rng):
    return {
        "A": rng.normal(size=(6, 6)),
        "B": rng.normal(size=(6, 6)),
        "u": rng.normal(size=(6, 1)),
        "v": rng.normal(size=(6, 1)),
    }


class TestEvaluation:
    def test_symbol(self, env):
        np.testing.assert_array_equal(evaluate(A, env), env["A"])

    def test_add_sub(self, env):
        np.testing.assert_allclose(
            evaluate(sub(add(A, B), B), env), env["A"], atol=1e-12
        )

    def test_matmul_chain_association(self, env):
        expr = matmul(A, B, A)
        expected = env["A"] @ env["B"] @ env["A"]
        np.testing.assert_allclose(evaluate(expr, env), expected)

    def test_scalar_mul(self, env):
        np.testing.assert_allclose(
            evaluate(scalar_mul(2.5, A), env), 2.5 * env["A"]
        )

    def test_transpose(self, env):
        np.testing.assert_array_equal(evaluate(transpose(A), env), env["A"].T)

    def test_inverse(self, env):
        well = env["A"] @ env["A"].T + 10 * np.eye(6)
        got = evaluate(inverse(A), {"A": well})
        np.testing.assert_allclose(got @ well, np.eye(6), atol=1e-9)

    def test_identity_needs_dims(self):
        with pytest.raises(EvaluationError):
            evaluate(Identity(n), {})

    def test_identity_with_dims(self):
        np.testing.assert_array_equal(
            evaluate(Identity(n), {}, dims={"n": 4}), np.eye(4)
        )

    def test_zero(self):
        got = evaluate(ZeroMatrix(n, 2), {}, dims={"n": 3})
        np.testing.assert_array_equal(got, np.zeros((3, 2)))

    def test_hstack_vstack(self, env):
        got = evaluate(hstack([u, v]), env)
        np.testing.assert_array_equal(got, np.hstack([env["u"], env["v"]]))
        got = evaluate(vstack([transpose(u), transpose(v)]), env)
        np.testing.assert_array_equal(
            got, np.vstack([env["u"].T, env["v"].T])
        )

    def test_dim_sum_resolution(self):
        total = resolve_dim(dim_add(n, 2), {"n": 5})
        assert total == 7

    def test_env_arrays_never_mutated(self, env):
        snapshot = env["A"].copy()
        evaluate(add(A, B), env)
        np.testing.assert_array_equal(env["A"], snapshot)


class TestErrors:
    def test_unbound_matrix(self):
        with pytest.raises(EvaluationError, match="unbound matrix"):
            evaluate(A, {})

    def test_unbound_dimension(self):
        with pytest.raises(EvaluationError, match="unbound dimension"):
            evaluate(Identity(n), {"A": np.eye(3)})

    def test_non_2d_input(self):
        with pytest.raises(EvaluationError, match="2-D"):
            evaluate(A, {"A": np.ones(3)})

    def test_runtime_shape_mismatch(self, env):
        bad = dict(env)
        bad["B"] = np.ones((4, 4))
        with pytest.raises(
                EvaluationError,
                match=r"runtime shape mismatch in product: \(6, 6\) @ \(4, 4\)"):
            evaluate(matmul(A, B), bad)

    def test_singular_inverse(self):
        with pytest.raises(EvaluationError, match="singular matrix in inverse"):
            evaluate(inverse(A), {"A": np.zeros((3, 3))})

    def test_unknown_node_type(self, env):
        from repro.expr.ast import Expr

        class Mystery(Expr):
            __slots__ = ()

            def __init__(self, child):
                self._init(child.shape, (child,), ("mystery",))

        with pytest.raises(EvaluationError,
                           match="cannot evaluate node type Mystery"):
            evaluate(Mystery(A), env)
        # ... also when it sits below a node the table does know.
        with pytest.raises(EvaluationError, match="Mystery"):
            evaluate(matmul(A, transpose(Mystery(A))), env)

    def test_node_subclass_evaluates_like_its_base(self, env):
        from repro.expr.ast import MatrixSymbol, Transpose

        class Tagged(MatrixSymbol):
            __slots__ = ()

        class Flipped(Transpose):
            __slots__ = ()

        tagged = Tagged("A", A.shape.rows, A.shape.cols)
        assert evaluate(tagged, env) is env["A"]
        np.testing.assert_array_equal(evaluate(Flipped(tagged), env),
                                      env["A"].T)


class TestCounting:
    def test_matmul_flops_exact(self, env):
        counter = Counter()
        evaluate(matmul(A, B), env, backend=counted(DENSE, counter))
        assert counter.flops("matmul_into") == 2 * 6 * 6 * 6

    def test_matvec_cheaper_than_matmat(self, env):
        matmat, matvec = Counter(), Counter()
        evaluate(matmul(A, B), env, backend=counted(DENSE, matmat))
        evaluate(matmul(A, u), env, backend=counted(DENSE, matvec))
        assert matvec.total_flops * 5 < matmat.total_flops

    def test_association_order_changes_cost(self, env):
        # (A u) then (v' ...) vs forcing the matrix-matrix product first.
        from repro.expr import MatMul

        cheap = matmul(transpose(v), matmul(A, u))
        costly = MatMul([MatMul([transpose(v), A]), u])
        c1, c2 = Counter(), Counter()
        evaluate(cheap, env, backend=counted(DENSE, c1))
        evaluate(costly, env, backend=counted(DENSE, c2))
        np.testing.assert_allclose(
            evaluate(cheap, env), evaluate(costly, env), atol=1e-10
        )
        # both are n^2-ish here
        assert c1.flops("matmul_into") == c2.flops("matmul_into")

    def test_add_counts_elements(self, env):
        counter = Counter()
        evaluate(add(A, B), env, backend=counted(DENSE, counter))
        assert counter.flops("add_into") == 36

    def test_inverse_counts_cubic(self, env):
        counter = Counter()
        well = env["A"] @ env["A"].T + 10 * np.eye(6)
        evaluate(inverse(A), {"A": well}, backend=counted(DENSE, counter))
        assert counter.flops("inv") == 2 * 6**3

    def test_counter_merge_and_reset(self):
        a, b = Counter(), Counter()
        a.record("matmul", 10)
        b.record("matmul", 5)
        b.record("add", 2)
        a.merge(b)
        assert a.flops("matmul") == 15 and a.flops("add") == 2
        assert a.total_flops == 17
        a.reset()
        assert a.total_flops == 0

    def test_null_counter_ignores(self):
        from repro.cost import NULL_COUNTER

        NULL_COUNTER.record("matmul", 10**9)
        assert NULL_COUNTER.total_flops == 0


class TestNativeLeafPassThrough:
    """MatrixSymbol leaves native to the backend must not be copied.

    Regression: the evaluator used to round-trip float64 ndarrays
    through ``be.asarray`` whenever the backend was not dense — a full
    scan (and, under the sparse representation policy, a possible CSR
    conversion) per leaf per evaluation.
    """

    def test_dense_ndarray_returned_as_is(self, rng):
        arr = rng.normal(size=(6, 6))
        assert evaluate(A, {"A": arr}) is arr

    def test_leaves_reach_the_kernels_by_identity(self, rng, monkeypatch):
        """The dispatch-table executor hands native leaves to kernels
        uncopied, wherever they sit in the tree."""
        from repro.backends import DenseBackend

        arr = rng.normal(size=(6, 6))
        seen = []
        original = DenseBackend.matmul_into

        def recording_matmul(self, a, b, out=None):
            seen.extend([a, b])
            return original(self, a, b, out)

        monkeypatch.setattr(DenseBackend, "matmul_into", recording_matmul)
        evaluate(add(matmul(A, A), scalar_mul(2.0, A)), {"A": arr})
        assert seen[0] is arr and seen[1] is arr

    def test_sparse_backend_skips_renormalizing_ndarray(self, rng, monkeypatch):
        scipy = pytest.importorskip("scipy")  # noqa: F841
        from repro.backends import SparseBackend

        be = SparseBackend()
        arr = rng.normal(size=(80, 80))  # dense: above sparsify threshold
        calls = []
        original = SparseBackend.asarray

        def counting_asarray(self, value, copy=False):
            calls.append(value)
            return original(self, value, copy)

        monkeypatch.setattr(SparseBackend, "asarray", counting_asarray)
        result = evaluate(matmul(A, A), {"A": arr}, backend=be)
        assert calls == [], "native float64 ndarray was re-normalized"
        np.testing.assert_allclose(result, arr @ arr)

    def test_sparse_backend_keeps_csr_leaves(self, rng):
        sp = pytest.importorskip("scipy.sparse")
        csr = sp.random_array((80, 80), density=0.05, format="csr",
                              random_state=np.random.default_rng(0))
        csr = sp.csr_array(csr, dtype=np.float64)
        assert evaluate(A, {"A": csr}, backend="sparse") is csr

    def test_non_float64_ndarray_still_normalized(self):
        arr = np.arange(36, dtype=np.int64).reshape(6, 6)
        result = evaluate(A, {"A": arr})
        assert result.dtype == np.float64
        np.testing.assert_allclose(result, arr)
