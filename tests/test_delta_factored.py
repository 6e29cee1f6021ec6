"""FactoredDelta representation: widths, algebra, materialization."""

import numpy as np
import pytest

from repro.delta import FactoredDelta
from repro.expr import MatrixSymbol, NamedDim, Shape, ZeroMatrix

n = NamedDim("n")
A = MatrixSymbol("A", n, n)
u = MatrixSymbol("u", n, 1)
v = MatrixSymbol("v", n, 1)
U2 = MatrixSymbol("U2", n, 2)
V2 = MatrixSymbol("V2", n, 2)


class TestConstruction:
    def test_zero_delta(self):
        d = FactoredDelta.zero(Shape(n, n))
        assert d.is_zero
        assert d.width == 0

    def test_rank_one(self):
        d = FactoredDelta.rank_one(u, v)
        assert not d.is_zero
        assert d.width == 1
        assert d.shape == Shape(n, n)

    def test_rank_one_rectangular(self):
        w = MatrixSymbol("w", 3, 1)
        d = FactoredDelta.rank_one(u, w)
        assert d.shape == Shape(n, 3)

    def test_block_widths_add(self):
        d = FactoredDelta(Shape(n, n), [(u, v), (U2, V2)])
        assert d.width == 3

    def test_zero_factor_terms_dropped(self):
        d = FactoredDelta(Shape(n, n), [(ZeroMatrix(n, 1), v), (u, v)])
        assert d.width == 1

    def test_mismatched_factor_widths_rejected(self):
        with pytest.raises(ValueError):
            FactoredDelta(Shape(n, n), [(u, V2)])

    def test_mismatched_rows_rejected(self):
        w = MatrixSymbol("w", 3, 1)
        with pytest.raises(ValueError):
            FactoredDelta(Shape(n, n), [(w, v)])

    def test_immutable(self):
        d = FactoredDelta.rank_one(u, v)
        with pytest.raises(AttributeError):
            d.terms = ()  # type: ignore[misc]


class TestExpressions:
    def test_single_term_expr(self):
        d = FactoredDelta.rank_one(u, v)
        assert repr(d.to_expr()) == "u * v'"

    def test_multi_term_stacks(self):
        d = FactoredDelta(Shape(n, n), [(u, v), (U2, V2)])
        assert repr(d.u_expr) == "[u, U2]"
        assert repr(d.v_expr) == "[v, V2]"
        assert repr(d.to_expr()) == "[u, U2] * [v, V2]'"

    def test_zero_expr(self):
        d = FactoredDelta.zero(Shape(n, 2))
        assert d.to_expr().is_zero

    def test_zero_has_no_factors(self):
        d = FactoredDelta.zero(Shape(n, n))
        with pytest.raises(ValueError):
            _ = d.u_expr


class TestAlgebra:
    def test_plus_concatenates(self):
        """Distinct right factors concatenate; one equal to an earlier
        term's folds into it, ``L1 R' + L2 R' = (L1 + L2) R'``."""
        w = MatrixSymbol("w", n, 1)
        d = FactoredDelta.rank_one(u, v).plus(FactoredDelta.rank_one(u, w))
        assert d.width == 2
        assert len(d.terms) == 2
        folded = d.plus(FactoredDelta.rank_one(w, v))
        assert folded.width == 2
        assert folded.terms == ((u + w, v), (u, w))
        same = FactoredDelta.rank_one(u, v).plus(FactoredDelta.rank_one(u, v))
        assert same.terms == ((u + u, v),)

    def test_folded_plus_is_the_sum(self, rng):
        w = MatrixSymbol("w", n, 1)
        d1 = FactoredDelta(Shape(n, n), [(u, v), (U2, V2)])
        d2 = FactoredDelta(Shape(n, n), [(w, v), (U2, V2)])
        env = {name: rng.normal(size=(5, cols)) for name, cols in
               (("u", 1), ("v", 1), ("w", 1), ("U2", 2), ("V2", 2))}
        total = d1.plus(d2)
        assert total.width == 3
        np.testing.assert_allclose(
            total.to_dense(env, dims={"n": 5}),
            d1.to_dense(env, dims={"n": 5}) + d2.to_dense(env, dims={"n": 5}))

    def test_plus_zero_is_noop(self):
        d = FactoredDelta.rank_one(u, v)
        assert d.plus(FactoredDelta.zero(d.shape)).terms == d.terms

    def test_plus_shape_mismatch(self):
        d1 = FactoredDelta.rank_one(u, v)
        d2 = FactoredDelta.rank_one(u, MatrixSymbol("w", 3, 1))
        with pytest.raises(ValueError):
            d1.plus(d2)

    def test_scale(self):
        d = FactoredDelta.rank_one(u, v).scale(2.0)
        assert repr(d.to_expr()) == "2 * (u * v')"

    def test_scale_by_zero_is_zero(self):
        assert FactoredDelta.rank_one(u, v).scale(0.0).is_zero

    def test_negate_then_negate(self, rng):
        d = FactoredDelta.rank_one(u, v)
        env = {"u": rng.normal(size=(5, 1)), "v": rng.normal(size=(5, 1))}
        orig = d.to_dense(env, dims={"n": 5})
        back = d.negate().negate().to_dense(env, dims={"n": 5})
        np.testing.assert_allclose(back, orig)

    def test_transposed_swaps_factors(self, rng):
        d = FactoredDelta(Shape(n, n), [(u, v), (U2, V2)])
        env = {
            "u": rng.normal(size=(5, 1)),
            "v": rng.normal(size=(5, 1)),
            "U2": rng.normal(size=(5, 2)),
            "V2": rng.normal(size=(5, 2)),
        }
        dense = d.to_dense(env, dims={"n": 5})
        dense_t = d.transposed().to_dense(env, dims={"n": 5})
        np.testing.assert_allclose(dense_t, dense.T)

    def test_left_mul(self, rng):
        d = FactoredDelta.rank_one(u, v).left_mul(A)
        env = {
            "A": rng.normal(size=(5, 5)),
            "u": rng.normal(size=(5, 1)),
            "v": rng.normal(size=(5, 1)),
        }
        expected = env["A"] @ (env["u"] @ env["v"].T)
        np.testing.assert_allclose(d.to_dense(env, dims={"n": 5}), expected)

    def test_right_mul(self, rng):
        d = FactoredDelta.rank_one(u, v).right_mul(A)
        env = {
            "A": rng.normal(size=(5, 5)),
            "u": rng.normal(size=(5, 1)),
            "v": rng.normal(size=(5, 1)),
        }
        expected = (env["u"] @ env["v"].T) @ env["A"]
        np.testing.assert_allclose(d.to_dense(env, dims={"n": 5}), expected)

    def test_dense_equals_sum_of_outer_products(self, rng):
        d = FactoredDelta(Shape(n, n), [(u, v), (U2, V2)])
        env = {
            "u": rng.normal(size=(4, 1)),
            "v": rng.normal(size=(4, 1)),
            "U2": rng.normal(size=(4, 2)),
            "V2": rng.normal(size=(4, 2)),
        }
        expected = env["u"] @ env["v"].T + env["U2"] @ env["V2"].T
        np.testing.assert_allclose(d.to_dense(env, dims={"n": 4}), expected)
