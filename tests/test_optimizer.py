"""Trigger optimizer: CSE, copy propagation, dead code elimination."""

import numpy as np

from repro.compiler import (
    Assign,
    Program,
    Statement,
    Trigger,
    Update,
    compile_program,
    eliminate_common_subexpressions,
    eliminate_dead_code,
    optimize_trigger,
    propagate_copies,
)
from repro.compiler.codegen.fused import (
    compile_trigger_function,
    lower_trigger,
)
from repro.cost import Counter
from repro.expr import MatrixSymbol, NamedDim, add, inverse, matmul, transpose
from repro.runtime import FactoredUpdate, IVMSession, ReevalSession

n = NamedDim("n")
m = NamedDim("m")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
u = MatrixSymbol("u", n, 1)
v = MatrixSymbol("v", n, 1)


def _make_trigger(assigns, updates):
    return Trigger("A", (u, v), assigns, updates)


class TestCSE:
    def test_hoists_repeated_subexpression(self):
        t1 = MatrixSymbol("T_a", n, 1)
        t2 = MatrixSymbol("T_b", n, 1)
        common = matmul(A, u)
        trigger = _make_trigger(
            [Assign(t1, add(common, u)), Assign(t2, add(common, v))],
            [Update(A, matmul(t1, transpose(t2)))],
        )
        optimized = eliminate_common_subexpressions(trigger)
        bodies = [a.expr for a in optimized.assigns]
        assert common in bodies  # hoisted once
        assert sum(1 for e in bodies if _contains(e, common)) == 1

    def test_repeats_within_one_statement_hoisted(self):
        t1 = MatrixSymbol("T_a", n, 1)
        common = matmul(A, u)
        trigger = _make_trigger(
            [Assign(t1, add(common, common))],
            [Update(A, matmul(t1, transpose(v)))],
        )
        optimized = eliminate_common_subexpressions(trigger)
        assert len(optimized.assigns) == 2

    def test_no_repeats_no_change(self):
        t1 = MatrixSymbol("T_a", n, 1)
        trigger = _make_trigger(
            [Assign(t1, matmul(A, u))],
            [Update(A, matmul(t1, transpose(v)))],
        )
        optimized = eliminate_common_subexpressions(trigger)
        assert [a.expr for a in optimized.assigns] == [a.expr for a in trigger.assigns]


class TestCopyPropagation:
    def test_alias_removed_and_uses_rewritten(self):
        t1 = MatrixSymbol("T_a", n, n)
        trigger = _make_trigger(
            [Assign(t1, A)],
            [Update(A, matmul(t1, t1))],
        )
        optimized = propagate_copies(trigger)
        assert not optimized.assigns
        assert optimized.updates[0].expr == matmul(A, A)

    def test_chained_aliases(self):
        t1 = MatrixSymbol("T_a", n, n)
        t2 = MatrixSymbol("T_b", n, n)
        trigger = _make_trigger(
            [Assign(t1, A), Assign(t2, t1)],
            [Update(A, matmul(t2, t2))],
        )
        optimized = propagate_copies(trigger)
        assert not optimized.assigns
        assert optimized.updates[0].expr == matmul(A, A)


class TestDeadCode:
    def test_unused_assign_removed(self):
        live = MatrixSymbol("T_live", n, 1)
        dead = MatrixSymbol("T_dead", n, 1)
        trigger = _make_trigger(
            [Assign(live, matmul(A, u)), Assign(dead, matmul(A, v))],
            [Update(A, matmul(live, transpose(v)))],
        )
        optimized = eliminate_dead_code(trigger)
        assert [a.target.name for a in optimized.assigns] == ["T_live"]

    def test_transitively_live_kept(self):
        t1 = MatrixSymbol("T_a", n, 1)
        t2 = MatrixSymbol("T_b", n, 1)
        trigger = _make_trigger(
            [Assign(t1, matmul(A, u)), Assign(t2, matmul(A, t1))],
            [Update(A, matmul(t2, transpose(v)))],
        )
        optimized = eliminate_dead_code(trigger)
        assert len(optimized.assigns) == 2


class TestPipeline:
    def _ols_program(self):
        x = MatrixSymbol("X", m, n)
        z = MatrixSymbol("Z", n, n)
        w = MatrixSymbol("W", n, n)
        return Program(
            [x],
            [Statement(z, matmul(transpose(x), x)), Statement(w, inverse(z))],
        )

    def test_cse_reduces_flops_on_ols_trigger(self, rng):
        """X'u appears twice in dZ.  A default session merges the two
        identical lowered records, so an update costs fewer FLOPs than
        the 2468 it cost with every record run."""
        program = self._ols_program()
        sizes = {"m": 20, "n": 8}
        design = rng.normal(size=(20, 8))
        design[:8] += np.eye(8)

        counter = Counter()
        session = IVMSession(program, {"X": design}, dims=sizes,
                             counter=counter)
        counter.reset()
        session.apply_update(FactoredUpdate(
            "X", 0.1 * rng.normal(size=(20, 1)),
            0.1 * rng.normal(size=(8, 1))))
        assert counter.total_flops < 2468

    def test_optimized_trigger_streams_match_reeval(self, rng):
        """What ``repro compile --optimize`` emits, bound and fired on
        its own views, tracks re-evaluation."""
        program = self._ols_program()
        sizes = {"m": 16, "n": 6}
        design = rng.normal(size=(16, 6))
        design[:6] += np.eye(6)
        reeval = ReevalSession(program, {"X": design}, dims=sizes)
        views = {name: np.array(reeval[name]) for name in ("X", "Z", "W")}
        fire = compile_trigger_function(lower_trigger(
            optimize_trigger(compile_program(program)["X"])), sizes)
        for _ in range(5):
            u_x = 0.05 * rng.normal(size=(16, 1))
            v_x = 0.05 * rng.normal(size=(6, 1))
            fire(views, u_x, v_x)
            reeval.apply_update(FactoredUpdate("X", u_x, v_x))
        np.testing.assert_allclose(views["W"], reeval["W"], rtol=1e-6,
                                   atol=1e-8)

    def test_pipeline_idempotent(self):
        program = self._ols_program()
        trigger = compile_program(program)["X"]
        once = optimize_trigger(trigger)
        twice = optimize_trigger(once)
        assert repr(once) == repr(twice)


def _contains(expr, target):
    from repro.expr import walk

    return any(node == target for node in walk(expr))
