"""Algorithm 1: trigger structure and end-to-end maintenance equivalence."""

import numpy as np
import pytest

from repro.compiler import Program, Statement, compile_program
from repro.expr import (
    MatrixSymbol,
    NamedDim,
    add,
    inverse,
    matmul,
    scalar_mul,
    transpose,
)
from repro.runtime import FactoredUpdate, IVMSession, ReevalSession

n = NamedDim("n")
m = NamedDim("m")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
C = MatrixSymbol("C", n, n)
D = MatrixSymbol("D", n, n)


def a4_program():
    return Program([A], [Statement(B, matmul(A, A)), Statement(C, matmul(B, B))])


class TestTriggerStructure:
    def test_example_46_text(self):
        """The compiled A^4 trigger matches Example 4.6 statement for
        statement."""
        trigger = compile_program(a4_program())["A"]
        lines = repr(trigger).splitlines()
        assert lines[0] == "ON UPDATE A BY (u_A, v_A):"
        assert lines[1] == "  U_B := [u_A, A * u_A + u_A * (v_A' * u_A)];"
        assert lines[2] == "  V_B := [A' * v_A, v_A];"
        assert lines[3] == "  U_C := [U_B, B * U_B + U_B * (V_B' * U_B)];"
        assert lines[4] == "  V_C := [B' * V_B, V_B];"
        assert lines[5] == "  A += u_A * v_A';"
        assert lines[6] == "  B += U_B * V_B';"
        assert lines[7] == "  C += U_C * V_C';"

    def test_factor_widths_follow_section_43(self):
        program = Program(
            [A],
            [
                Statement(B, matmul(A, A)),
                Statement(C, matmul(B, B)),
                Statement(D, matmul(C, C)),
            ],
        )
        trigger = compile_program(program)["A"]
        widths = {a.target.name: a.target.shape.cols for a in trigger.assigns}
        assert widths["U_B"] == 2 and widths["U_C"] == 4 and widths["U_D"] == 8

    def test_unaffected_statements_skipped(self):
        x = MatrixSymbol("X", n, n)
        program = Program(
            [A, x],
            [Statement(B, matmul(A, A)), Statement(C, matmul(x, x))],
        )
        trigger = compile_program(program)["A"]
        assert "C" not in trigger.updated_views
        assert trigger.updated_views == ("A", "B")

    def test_one_trigger_per_dynamic_input(self):
        x = MatrixSymbol("X", n, n)
        program = Program([A, x], [Statement(B, matmul(A, x))])
        triggers = compile_program(program)
        assert set(triggers) == {"A", "X"}

    def test_unknown_input_rejected(self):
        with pytest.raises(KeyError):
            compile_program(a4_program())["Q"]

    def test_rank_k_parameters(self):
        trigger = compile_program(a4_program(), rank=4)["A"]
        u_param, v_param = trigger.params
        assert u_param.shape.cols == 4 and v_param.shape.cols == 4
        widths = {a.target.name: a.target.shape.cols for a in trigger.assigns}
        assert widths["U_B"] == 8  # 2 blocks of rank 4

    def test_inverse_statement_references_view(self):
        z = MatrixSymbol("Z", n, n)
        w = MatrixSymbol("W", n, n)
        program = Program(
            [A],
            [Statement(z, matmul(transpose(A), A)), Statement(w, inverse(z))],
        )
        trigger = compile_program(program)["A"]
        u_w = next(a for a in trigger.assigns if a.target.name == "U_W")
        from repro.expr import references

        assert references(u_w.expr, "W")
        assert not any(
            node.child.shape == w.shape
            for node in _inversions(u_w.expr)
        ), "must not re-invert the full n x n operand"


def _inversions(expr):
    from repro.expr import Inverse, walk

    return [node for node in walk(expr) if isinstance(node, Inverse)]


class TestMaintenanceEquivalence:
    """Triggers == re-evaluation, always (docs/invariants.md, exactness)."""

    def _run_stream(self, program, inputs, dims, updates):
        incr = IVMSession(program, inputs, dims=dims)
        reeval = ReevalSession(program, inputs, dims=dims)
        for update in updates:
            incr.apply_update(update)
            reeval.apply_update(update)
        return incr, reeval

    def _assert_views_match(self, incr, reeval, atol=1e-8):
        for name in incr.program.view_names:
            np.testing.assert_allclose(
                incr[name], reeval[name], rtol=1e-6, atol=atol,
                err_msg=f"view {name} diverged",
            )

    def test_a4_stream(self, rng):
        size = 8
        updates = [
            FactoredUpdate("A", rng.normal(size=(size, 1)),
                           rng.normal(size=(size, 1)))
            for _ in range(6)
        ]
        incr, reeval = self._run_stream(
            a4_program(), {"A": rng.normal(size=(size, size))}, {"n": size}, updates
        )
        self._assert_views_match(incr, reeval)

    def test_mixed_operations_program(self, rng):
        size = 7
        program = Program(
            [A],
            [
                Statement(B, add(matmul(A, transpose(A)), scalar_mul(2.0, A))),
                Statement(C, sub_expr()),
            ],
        )
        updates = [
            FactoredUpdate("A", rng.normal(size=(size, 1)),
                           rng.normal(size=(size, 1)))
            for _ in range(5)
        ]
        incr, reeval = self._run_stream(
            program, {"A": rng.normal(size=(size, size))}, {"n": size}, updates
        )
        self._assert_views_match(incr, reeval)

    def test_multi_input_program(self, rng):
        size = 6
        x = MatrixSymbol("X", n, n)
        program = Program(
            [A, x],
            [Statement(B, matmul(A, x)), Statement(C, matmul(B, transpose(A)))],
        )
        inputs = {
            "A": rng.normal(size=(size, size)),
            "X": rng.normal(size=(size, size)),
        }
        updates = []
        for i in range(6):
            target = "A" if i % 2 == 0 else "X"
            updates.append(
                FactoredUpdate(target, rng.normal(size=(size, 1)),
                               rng.normal(size=(size, 1)))
            )
        incr, reeval = self._run_stream(program, inputs, {"n": size}, updates)
        self._assert_views_match(incr, reeval)

    def test_ols_program_with_inverse(self, rng):
        size_m, size_n = 14, 6
        x = MatrixSymbol("X", m, n)
        y = MatrixSymbol("Y", m, 1)
        z = MatrixSymbol("Z", n, n)
        w = MatrixSymbol("W", n, n)
        c = MatrixSymbol("Cv", n, 1)
        beta = MatrixSymbol("beta", n, 1)
        program = Program(
            [x, y],
            [
                Statement(z, matmul(transpose(x), x)),
                Statement(w, inverse(z)),
                Statement(c, matmul(transpose(x), y)),
                Statement(beta, matmul(w, c)),
            ],
        )
        design = rng.normal(size=(size_m, size_n))
        design[:size_n] += np.eye(size_n)
        inputs = {"X": design, "Y": rng.normal(size=(size_m, 1))}
        updates = [
            FactoredUpdate("X", 0.1 * rng.normal(size=(size_m, 1)),
                           0.1 * rng.normal(size=(size_n, 1)))
            for _ in range(5)
        ]
        incr, reeval = self._run_stream(
            program, inputs, {"m": size_m, "n": size_n}, updates
        )
        self._assert_views_match(incr, reeval, atol=1e-7)
        np.testing.assert_allclose(
            incr["beta"],
            np.linalg.lstsq(incr["X"], incr["Y"], rcond=None)[0],
            atol=1e-7,
        )

    def test_rank_k_batch_updates(self, rng):
        size, rank = 8, 3
        updates = [
            FactoredUpdate("A", rng.normal(size=(size, rank)),
                           rng.normal(size=(size, rank)))
            for _ in range(4)
        ]
        incr, reeval = self._run_stream(
            a4_program(), {"A": rng.normal(size=(size, size))}, {"n": size}, updates
        )
        self._assert_views_match(incr, reeval)


def sub_expr():
    """C := B' * B  (uses the previous view)."""
    return matmul(transpose(B), B)
