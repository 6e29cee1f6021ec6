"""Code generation: the printed lowered form and the Octave backend."""

import numpy as np
import pytest

from repro.compiler import (
    Program,
    Statement,
    compile_program,
    compile_trigger_function,
    generate_octave_trigger,
    generate_python_trigger,
)
from repro.compiler.codegen import compile_fused_trigger
from repro.compiler.codegen.octave_gen import emit_octave
from repro.expr import (
    Identity,
    MatrixSymbol,
    NamedDim,
    hstack,
    inverse,
    matmul,
    transpose,
    vstack,
)

n = NamedDim("n")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
C = MatrixSymbol("C", n, n)
u = MatrixSymbol("u", n, 1)
v = MatrixSymbol("v", n, 1)


def a4_program():
    return Program([A], [Statement(B, matmul(A, A)), Statement(C, matmul(B, B))])


class TestPythonTrigger:
    """The Python target is the printed lowered form (the one thing a
    session executes), not a dialect of its own."""

    def test_source_shape(self):
        trigger = compile_program(a4_program())["A"]
        source = generate_python_trigger(trigger)
        assert "\ndef on_update_A(views, u_A, v_A):\n" in source
        assert "views['A'] = _outer(A, u_A, v_A)" in source
        # U_B = [u_A, A*u_A + u_A*(v_A'*u_A)], one kernel per line, the
        # association order of the trigger preserved:
        assert "_t1 = _matmul(A, u_A, _b0)" in source
        assert "_t2 = _matmul(_T_v_A, u_A, _b1)" in source
        assert "_t3 = _matmul(u_A, _t2, _b2)" in source
        assert "_t4 = _add(_t1, _t3, _t1)" in source
        assert "U_B = _hstack(u_A, _t4, _b3)" in source
        # Shapes stay symbolic until the form is bound:
        assert "#   _b3: (n x 2)" in source

    @pytest.mark.parametrize(
        "build", [compile_trigger_function, compile_fused_trigger])
    def test_compiled_function_matches_reevaluation(self, rng, build):
        size = 8
        trigger = compile_program(a4_program())["A"]
        fn = build(trigger, {"n": size})
        a0 = rng.normal(size=(size, size))
        views = {"A": a0.copy(), "B": a0 @ a0, "C": (a0 @ a0) @ (a0 @ a0)}
        uu = rng.normal(size=(size, 1))
        vv = rng.normal(size=(size, 1))
        fn(views, uu, vv)
        a_new = a0 + uu @ vv.T
        np.testing.assert_allclose(views["A"], a_new, rtol=1e-10)
        np.testing.assert_allclose(views["B"], a_new @ a_new, rtol=1e-8)
        np.testing.assert_allclose(
            views["C"], np.linalg.matrix_power(a_new, 4), rtol=1e-7
        )

    def test_source_attached_to_function(self):
        trigger = compile_program(a4_program())["A"]
        fn = compile_fused_trigger(trigger, {"n": 4})
        assert fn.__source__ == generate_python_trigger(trigger)

    def test_custom_function_name(self):
        trigger = compile_program(a4_program())["A"]
        source = generate_python_trigger(trigger, function_name="maintain")
        assert "\ndef maintain(" in source


class TestOctaveEmission:
    def test_product_and_transpose(self):
        assert emit_octave(matmul(A, B)) == "A*B"
        assert emit_octave(transpose(A)) == "A'"

    def test_inverse_and_eye(self):
        assert emit_octave(inverse(A)) == "inv(A)"
        assert emit_octave(Identity(n)) == "eye(n)"

    def test_stacks(self):
        assert emit_octave(hstack([u, v])) == "[u, v]"
        assert emit_octave(vstack([transpose(u), transpose(v)])) == "[u'; v']"

    def test_example_46_trigger_text(self):
        """Generated Octave matches the paper's published trigger."""
        trigger = compile_program(a4_program())["A"]
        source = generate_octave_trigger(trigger)
        assert "function on_update_A(u_A, v_A)" in source
        assert "U_B = [u_A, A*u_A + u_A*(v_A'*u_A)];" in source
        assert "V_B = [A'*v_A, v_A];" in source
        assert "U_C = [U_B, B*U_B + U_B*(V_B'*U_B)];" in source
        assert "V_C = [B'*V_B, V_B];" in source
        assert "A += u_A*v_A';" in source
        assert "B += U_B*V_B';" in source
        assert "C += U_C*V_C';" in source
        assert source.rstrip().endswith("end")

    def test_global_declaration_lists_views(self):
        trigger = compile_program(a4_program())["A"]
        source = generate_octave_trigger(trigger)
        assert "global A B C;" in source
