"""Multi-update deltas: the Section 4.4 sequential rule vs simultaneous."""

import numpy as np
import pytest

from repro.delta import FactoredDelta, compute_delta
from repro.expr import MatrixSymbol, NamedDim, add, matmul, transpose
from repro.runtime import evaluate
from sequential_delta import compute_delta_sequential

n = NamedDim("n")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
uA = MatrixSymbol("uA", n, 1)
vA = MatrixSymbol("vA", n, 1)
uB = MatrixSymbol("uB", n, 1)
vB = MatrixSymbol("vB", n, 1)

DA = FactoredDelta.rank_one(uA, vA)
DB = FactoredDelta.rank_one(uB, vB)


def _env(rng, size=6):
    return {
        name: rng.normal(size=(size, size)) for name in ("A", "B")
    } | {
        name: rng.normal(size=(size, 1)) for name in ("uA", "vA", "uB", "vB")
    }


def _numeric(expr, env, size):
    before = evaluate(expr, env, dims={"n": size})
    bumped = dict(env)
    bumped["A"] = env["A"] + env["uA"] @ env["vA"].T
    bumped["B"] = env["B"] + env["uB"] @ env["vB"].T
    return evaluate(expr, bumped, dims={"n": size}) - before


EXPRESSIONS = [
    matmul(A, B),
    add(A, B),
    matmul(A, B, A),
    matmul(transpose(A), B),
    add(matmul(A, B), matmul(B, A)),
]


@pytest.mark.parametrize("expr", EXPRESSIONS, ids=[repr(e) for e in EXPRESSIONS])
class TestSimultaneousRule:
    def test_matches_numeric(self, expr, rng):
        size = 6
        env = _env(rng, size)
        delta = compute_delta(expr, {"A": DA, "B": DB})
        got = evaluate(delta.to_expr(), env, dims={"n": size})
        np.testing.assert_allclose(got, _numeric(expr, env, size), rtol=1e-8)

    def test_sequential_matches_numeric(self, expr, rng):
        size = 6
        env = _env(rng, size)
        delta = compute_delta_sequential(expr, {"A": DA, "B": DB})
        got = evaluate(delta.to_expr(), env, dims={"n": size})
        np.testing.assert_allclose(got, _numeric(expr, env, size), rtol=1e-8)

    def test_order_irrelevance(self, expr, rng):
        """The paper: "The order of applying the matrix updates is
        irrelevant."""
        size = 6
        env = _env(rng, size)
        d_ab = compute_delta_sequential(expr, {"A": DA, "B": DB}, order=["A", "B"])
        d_ba = compute_delta_sequential(expr, {"A": DA, "B": DB}, order=["B", "A"])
        np.testing.assert_allclose(
            evaluate(d_ab.to_expr(), env, dims={"n": size}),
            evaluate(d_ba.to_expr(), env, dims={"n": size}),
            rtol=1e-8,
        )


class TestExample45:
    def test_product_expansion(self, rng):
        """d_{A,B}(AB) = dA B + A dB + dA dB (Example 4.5)."""
        size = 5
        env = _env(rng, size)
        delta = compute_delta(matmul(A, B), {"A": DA, "B": DB})
        da = env["uA"] @ env["vA"].T
        db = env["uB"] @ env["vB"].T
        expected = da @ env["B"] + env["A"] @ db + da @ db
        got = evaluate(delta.to_expr(), env, dims={"n": size})
        np.testing.assert_allclose(got, expected, rtol=1e-8)

    def test_simultaneous_width_not_wider_than_sequential(self):
        simultaneous = compute_delta(matmul(A, B), {"A": DA, "B": DB})
        sequential = compute_delta_sequential(matmul(A, B), {"A": DA, "B": DB})
        assert simultaneous.width <= sequential.width


class TestValidation:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            compute_delta_sequential(matmul(A, B), {"A": DA}, order=["A", "B"])

    def test_empty_updates_give_zero(self):
        assert compute_delta(matmul(A, B), {}).is_zero
        assert compute_delta_sequential(matmul(A, B), {}).is_zero

    def test_partial_updates(self, rng):
        size = 5
        env = _env(rng, size)
        delta = compute_delta(matmul(A, B), {"B": DB})
        before = evaluate(matmul(A, B), env, dims={"n": size})
        bumped = dict(env)
        bumped["B"] = env["B"] + env["uB"] @ env["vB"].T
        expected = evaluate(matmul(A, B), bumped, dims={"n": size}) - before
        got = evaluate(delta.to_expr(), env, dims={"n": size})
        np.testing.assert_allclose(got, expected, rtol=1e-8)
