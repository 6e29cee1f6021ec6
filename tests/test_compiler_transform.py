"""Program rewrites: inverse materialization (Example 4.2 restructuring)."""

import numpy as np

from repro.compiler import Program, Statement, compile_program
from repro.compiler.transform import materialize_inversions
from repro.expr import (
    Inverse,
    MatrixSymbol,
    NamedDim,
    add,
    inverse,
    matmul,
    transpose,
    walk,
)
from repro.runtime import FactoredUpdate, IVMSession, ReevalSession

n = NamedDim("n")
m = NamedDim("m")
A = MatrixSymbol("A", n, n)
X = MatrixSymbol("X", m, n)
Y = MatrixSymbol("Y", m, 1)


def one_shot_ols():
    """beta := inv(X'X) (X'Y) as a single statement."""
    beta = MatrixSymbol("beta", n, 1)
    expr = matmul(inverse(matmul(transpose(X), X)),
                  matmul(transpose(X), Y))
    return Program([X, Y], [Statement(beta, expr)])


class TestMaterializeInversions:
    def test_hoists_nested_inverse(self):
        rewritten = materialize_inversions(one_shot_ols())
        kinds = [type(s.expr).__name__ for s in rewritten.statements]
        assert "Inverse" in kinds
        # No statement keeps a *nested* inverse.
        for stmt in rewritten.statements:
            nested = [
                node for node in walk(stmt.expr)
                if isinstance(node, Inverse) and node is not stmt.expr
            ]
            assert not nested, stmt

    def test_compound_operand_also_hoisted(self):
        rewritten = materialize_inversions(one_shot_ols())
        inverse_stmt = next(
            s for s in rewritten.statements if isinstance(s.expr, Inverse)
        )
        assert isinstance(inverse_stmt.expr.child, MatrixSymbol)

    def test_outputs_preserved(self):
        program = one_shot_ols()
        assert materialize_inversions(program).outputs == program.outputs

    def test_root_inverse_untouched(self):
        w = MatrixSymbol("W", n, n)
        program = Program([A], [Statement(w, inverse(A))])
        rewritten = materialize_inversions(program)
        assert len(rewritten.statements) == 1

    def test_no_inverse_is_identity_transform(self):
        b = MatrixSymbol("B", n, n)
        program = Program([A], [Statement(b, matmul(A, A))])
        rewritten = materialize_inversions(program)
        assert [repr(s) for s in rewritten.statements] == [
            repr(s) for s in program.statements
        ]

    def test_nested_inverses_hoist_inside_out(self):
        b = MatrixSymbol("B", n, n)
        expr = matmul(inverse(add(A, inverse(A))), A)
        program = Program([A], [Statement(b, expr)])
        rewritten = materialize_inversions(program)
        for stmt in rewritten.statements:
            nested = [
                node for node in walk(stmt.expr)
                if isinstance(node, Inverse) and node is not stmt.expr
            ]
            assert not nested

    def test_value_equivalence(self, rng):
        program = one_shot_ols()
        rewritten = materialize_inversions(program)
        sizes = {"m": 15, "n": 5}
        design = rng.normal(size=(15, 5))
        design[:5] += np.eye(5)
        inputs = {"X": design, "Y": rng.normal(size=(15, 1))}
        plain = ReevalSession(program, inputs, dims=sizes)
        hoisted = ReevalSession(rewritten, inputs, dims=sizes)
        np.testing.assert_allclose(plain["beta"], hoisted["beta"], rtol=1e-9)

    def test_rewritten_triggers_avoid_large_inversions(self, rng):
        rewritten = materialize_inversions(one_shot_ols())
        trigger = compile_program(rewritten)["X"]
        for assign in trigger.assigns:
            for node in walk(assign.expr):
                if isinstance(node, Inverse):
                    # only k x k capacitance matrices (k <= 2 here)
                    assert node.child.shape.rows in (1, 2)

    def test_incremental_stream_on_rewritten_program(self, rng):
        rewritten = materialize_inversions(one_shot_ols())
        sizes = {"m": 16, "n": 6}
        design = rng.normal(size=(16, 6))
        design[:6] += np.eye(6)
        inputs = {"X": design, "Y": rng.normal(size=(16, 1))}
        incr = IVMSession(rewritten, inputs, dims=sizes)
        reeval = ReevalSession(rewritten, inputs, dims=sizes)
        for _ in range(5):
            update = FactoredUpdate("X", 0.05 * rng.normal(size=(16, 1)),
                                    0.05 * rng.normal(size=(6, 1)))
            incr.apply_update(update)
            reeval.apply_update(update)
        np.testing.assert_allclose(incr["beta"], reeval["beta"],
                                   rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(
            incr["beta"],
            np.linalg.lstsq(incr["X"], incr["Y"], rcond=None)[0],
            atol=1e-7,
        )
