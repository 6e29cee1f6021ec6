"""Symbolic cross-validation of the delta calculus against sympy.

The numeric tests check the Section 4 delta rules on random matrices;
this module re-verifies them as *polynomial identities*: every matrix
entry is an independent ``sympy`` symbol, our factored deltas are
evaluated symbolically, and ``E(A + dA) - E(A) - delta`` must expand to
the literal zero matrix.  A polynomial identity over symbolic entries
cannot pass by numerical coincidence, so this is an independent oracle
for the derivation machinery (and, at 2x2 with rational functions, for
the Sherman–Morrison inverse rule).
"""

import numpy as np
import pytest
import sympy as sp

from repro.compiler import Program, Statement, compile_program
from repro.delta import FactoredDelta, compute_delta
from repro.expr import (
    Add,
    Expr,
    HStack,
    Identity,
    Inverse,
    MatMul,
    MatrixSymbol,
    ScalarMul,
    Transpose,
    VStack,
    ZeroMatrix,
    matmul,
    transpose,
)
from sequential_delta import compute_delta_sequential

pytestmark = pytest.mark.slow

N = 3  # symbolic matrix order for the polynomial-identity checks


def sym_matrix(name: str, rows: int, cols: int) -> sp.Matrix:
    """A matrix of independent scalar symbols."""
    return sp.Matrix(rows, cols,
                     lambda i, j: sp.Symbol(f"{name}_{i}{j}"))


def sym_eval(expr: Expr, env: dict[str, sp.Matrix]) -> sp.Matrix:
    """Evaluate one of our expression trees over sympy matrices."""
    if isinstance(expr, MatrixSymbol):
        return env[expr.name]
    if isinstance(expr, Identity):
        order = expr.shape.rows if isinstance(expr.shape.rows, int) else N
        return sp.eye(order)
    if isinstance(expr, ZeroMatrix):
        rows = expr.shape.rows if isinstance(expr.shape.rows, int) else N
        cols = expr.shape.cols if isinstance(expr.shape.cols, int) else N
        return sp.zeros(rows, cols)
    if isinstance(expr, Add):
        acc = sym_eval(expr.children[0], env)
        for child in expr.children[1:]:
            acc = acc + sym_eval(child, env)
        return acc
    if isinstance(expr, MatMul):
        acc = sym_eval(expr.children[0], env)
        for child in expr.children[1:]:
            acc = acc * sym_eval(child, env)
        return acc
    if isinstance(expr, ScalarMul):
        return sp.Rational(expr.coeff) * sym_eval(expr.child, env)
    if isinstance(expr, Transpose):
        return sym_eval(expr.child, env).T
    if isinstance(expr, Inverse):
        return sym_eval(expr.child, env).inv()
    if isinstance(expr, HStack):
        return sp.Matrix.hstack(*[sym_eval(b, env) for b in expr.children])
    if isinstance(expr, VStack):
        return sp.Matrix.vstack(*[sym_eval(b, env) for b in expr.children])
    raise TypeError(f"cannot symbolically evaluate {type(expr).__name__}")


def delta_matrix(delta: FactoredDelta, env: dict[str, sp.Matrix]) -> sp.Matrix:
    """Symbolic value of a factored delta (sum of its monomials)."""
    rows = delta.shape.rows if isinstance(delta.shape.rows, int) else N
    cols = delta.shape.cols if isinstance(delta.shape.cols, int) else N
    acc = sp.zeros(rows, cols)
    for left, right in delta.terms:
        acc = acc + sym_eval(left, env) * sym_eval(right, env).T
    return acc


def assert_zero(matrix: sp.Matrix) -> None:
    expanded = sp.expand(matrix)
    assert expanded == sp.zeros(*matrix.shape), expanded


@pytest.fixture(scope="module")
def symbols():
    a = MatrixSymbol("A", N, N)
    b = MatrixSymbol("B", N, N)
    u = MatrixSymbol("u", N, 1)
    v = MatrixSymbol("v", N, 1)
    return a, b, u, v


@pytest.fixture(scope="module")
def env():
    env = {name: sym_matrix(name, N, N) for name in ("A", "B")}
    env["u"] = sym_matrix("u", N, 1)
    env["v"] = sym_matrix("v", N, 1)
    return env


def rank1(u, v):
    return FactoredDelta.rank_one(u, v)


def check_rule(expr: Expr, updates: dict[str, FactoredDelta], env) -> None:
    """Core identity: E(X + dX) - E(X) == delta(E), symbolically."""
    delta = compute_delta(expr, updates)
    old = sym_eval(expr, env)
    new_env = dict(env)
    for name, d in updates.items():
        new_env[name] = env[name] + delta_matrix(d, env)
    new = sym_eval(expr, new_env)
    assert_zero(new - old - delta_matrix(delta, env))


class TestDeltaRulesSymbolically:
    def test_product_rule(self, symbols, env):
        a, b, u, v = symbols
        check_rule(matmul(a, b), {"A": rank1(u, v)}, env)

    def test_product_rule_right_operand(self, symbols, env):
        a, b, u, v = symbols
        check_rule(matmul(a, b), {"B": rank1(u, v)}, env)

    def test_square_rule(self, symbols, env):
        a, _, u, v = symbols
        check_rule(matmul(a, a), {"A": rank1(u, v)}, env)

    def test_sum_rule(self, symbols, env):
        a, b, u, v = symbols
        check_rule(a + b, {"A": rank1(u, v)}, env)

    def test_scalar_rule(self, symbols, env):
        a, _, u, v = symbols
        check_rule(ScalarMul(3.0, a), {"A": rank1(u, v)}, env)

    def test_transpose_rule(self, symbols, env):
        a, _, u, v = symbols
        check_rule(transpose(a), {"A": rank1(u, v)}, env)

    def test_gram_rule(self, symbols, env):
        # dZ for Z = A'A — the OLS Example 4.2 derivation.
        a, _, u, v = symbols
        check_rule(matmul(transpose(a), a), {"A": rank1(u, v)}, env)

    def test_unrelated_matrix_has_zero_delta(self, symbols, env):
        a, b, u, v = symbols
        delta = compute_delta(b, {"A": rank1(u, v)})
        assert delta.is_zero

    def test_three_factor_chain(self, symbols, env):
        a, b, u, v = symbols
        check_rule(matmul(matmul(a, b), a), {"A": rank1(u, v)}, env)

    def test_polynomial_expression(self, symbols, env):
        # E = A B + 2 A' - B
        a, b, u, v = symbols
        expr = matmul(a, b) + ScalarMul(2.0, transpose(a)) + ScalarMul(-1.0, b)
        check_rule(expr, {"A": rank1(u, v)}, env)


class TestMultiUpdateSymbolically:
    def test_example_4_5_simultaneous(self, symbols, env):
        # dE for E = A B with both A and B updated (Example 4.5).
        a, b, u, v = symbols
        updates = {"A": rank1(u, v), "B": rank1(v, u)}
        check_rule(matmul(a, b), updates, env)

    def test_sequential_rule_matches(self, symbols, env):
        a, b, u, v = symbols
        updates = {"A": rank1(u, v), "B": rank1(v, u)}
        expr = matmul(a, b)
        simultaneous = compute_delta(expr, updates)
        sequential = compute_delta_sequential(expr, updates)
        assert_zero(delta_matrix(simultaneous, env)
                    - delta_matrix(sequential, env))

    def test_sequential_order_irrelevant(self, symbols, env):
        # "The order of applying the matrix updates is irrelevant."
        a, b, u, v = symbols
        updates = {"A": rank1(u, v), "B": rank1(v, u)}
        expr = matmul(a, b)
        ab = compute_delta_sequential(expr, updates, order=["A", "B"])
        ba = compute_delta_sequential(expr, updates, order=["B", "A"])
        assert_zero(delta_matrix(ab, env) - delta_matrix(ba, env))


class TestCompiledTriggerSymbolically:
    def test_a4_program_deltas(self, env):
        # The Example 1.1 / 4.6 program: B := A A; C := B B.
        a = MatrixSymbol("A", N, N)
        b = MatrixSymbol("B", N, N)
        c = MatrixSymbol("C", N, N)
        program = Program([a], [Statement(b, matmul(a, a)),
                                Statement(c, matmul(b, b))])
        trigger = compile_program(program)["A"]

        # Evaluate trigger statements symbolically over old state.
        sym_env = {
            "A": env["A"],
            "u_A": env["u"],
            "v_A": env["v"],
        }
        sym_env["B"] = sym_env["A"] * sym_env["A"]
        sym_env["C"] = sym_env["B"] * sym_env["B"]
        for assign in trigger.assigns:
            sym_env[assign.target.name] = sym_eval(assign.expr, sym_env)

        updated = dict(sym_env)
        for update in trigger.updates:
            updated[update.view.name] = (
                sym_env[update.view.name] + sym_eval(update.expr, sym_env)
            )

        new_a = updated["A"]
        assert_zero(sp.expand(updated["B"] - new_a * new_a))
        new_b = sp.expand(new_a * new_a)
        assert_zero(sp.expand(updated["C"] - new_b * new_b))


class TestInverseRuleSymbolically:
    def test_sherman_morrison_identity_2x2(self):
        # d(E^-1) = -(E^-1 u v' E^-1) / (1 + v' E^-1 u), rationally at 2x2.
        e = sym_matrix("e", 2, 2)
        u = sym_matrix("u", 2, 1)
        v = sym_matrix("v", 2, 1)
        w = e.inv()
        denominator = 1 + (v.T * w * u)[0, 0]
        sm_delta = -(w * u * v.T * w) / denominator
        exact = (e + u * v.T).inv() - w
        residual = sp.simplify(exact - sm_delta)
        assert residual == sp.zeros(2, 2), residual

    def test_compute_delta_inverse_references_expression(self):
        # The Section 4.1 inverse rule: d(E^-1) = (E + dE)^-1 - E^-1.
        a = MatrixSymbol("A", 2, 2)
        u = MatrixSymbol("u", 2, 1)
        v = MatrixSymbol("v", 2, 1)
        env2 = {"A": sym_matrix("A", 2, 2), "u": sym_matrix("u", 2, 1),
                "v": sym_matrix("v", 2, 1)}
        delta = compute_delta(Inverse(a), {"A": rank1(u, v)})
        exact = (env2["A"] + env2["u"] * env2["v"].T).inv() - env2["A"].inv()
        got = delta_matrix(delta, env2)
        residual = sp.simplify(exact - got)
        assert residual == sp.zeros(2, 2), residual


class TestSymbolicNumericAgreement:
    def test_symbolic_executor_matches_numpy(self, rng):
        # Guard the oracle itself: sym_eval and the numpy executor agree.
        from repro.runtime import evaluate

        a = MatrixSymbol("A", N, N)
        u = MatrixSymbol("u", N, 1)
        v = MatrixSymbol("v", N, 1)
        expr = matmul(a + matmul(u, transpose(v)), transpose(a))
        np_env = {"A": rng.normal(size=(N, N)),
                  "u": rng.normal(size=(N, 1)),
                  "v": rng.normal(size=(N, 1))}
        sym_env = {"A": sym_matrix("A", N, N), "u": sym_matrix("u", N, 1),
                   "v": sym_matrix("v", N, 1)}
        symbolic = sym_eval(expr, sym_env)
        substitutions = {}
        for name, mat in sym_env.items():
            for i in range(mat.rows):
                for j in range(mat.cols):
                    substitutions[mat[i, j]] = np_env[name][i, j]
        numeric_from_symbolic = np.array(
            symbolic.subs(substitutions).evalf(), dtype=np.float64
        )
        np.testing.assert_allclose(
            numeric_from_symbolic, evaluate(expr, np_env), atol=1e-9
        )
