"""The two executors of the lowered trigger form against each other.

``mode="interpret"`` loops over a trigger's lowered form
(:mod:`repro.compiler.codegen.fused`) and ``mode="codegen"`` prints and
``exec``-utes the same list, so they must agree **bit for bit** — on the
dense backend and, since both call the same kernel callables on the
same operands, on the sparse one.  The independent oracle is
re-evaluation through :func:`repro.runtime.executor.evaluate` (an AST
walk that shares no code with the lowering), met to tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import ExprPool, shaped_expr
from repro.compiler import Program, Statement, compile_program
from repro.compiler.codegen.fused import (
    compile_fused_trigger,
    compile_trigger_function,
    generate_python_trigger,
    lower_trigger,
)
from repro.expr import (
    MatrixSymbol,
    NamedDim,
    add,
    inverse,
    matmul,
    to_string,
    transpose,
)
from repro.runtime import EvaluationError, FactoredUpdate, evaluate
from repro.runtime.session import IVMSession
from repro.runtime.workspace import Workspace

SETTINGS = dict(max_examples=40, deadline=None)


def _sessions(program, inputs, dims=None, backend=None, rank=1):
    """(interpret, codegen) session pair over copied inputs."""
    make = lambda **kw: IVMSession(  # noqa: E731
        program, {k: np.array(v) for k, v in inputs.items()},
        dims=dims, backend=backend, rank=rank, **kw,
    )
    return make(mode="interpret"), make(mode="codegen")


def _drive_both(interp, fused, updates):
    for update in updates:
        interp.apply_update(update)
        fused.apply_update(update)


def _reevaluated(program, inputs, updates):
    """Every view recomputed from the updated inputs by the AST walk."""
    env = {name: np.array(value) for name, value in inputs.items()}
    for update in updates:
        env[update.target] = (
            env[update.target] + update.u_block @ update.v_block.T)
    for stmt in program.statements:
        env[stmt.target.name] = np.array(evaluate(stmt.expr, env))
    return env


def _rank_one_updates(rng, sym, n, count):
    return [FactoredUpdate(sym.name, rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 1)))
            for _ in range(count)]


def _mismatches(program, inputs, updates):
    """Names on which the modes differ in any bit, after checking both
    against re-evaluation to tolerance."""
    interp, fused = _sessions(program, inputs)
    _drive_both(interp, fused, updates)
    expected = _reevaluated(program, inputs, updates)
    bad = []
    for name, want in expected.items():
        np.testing.assert_allclose(interp[name], want, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(fused[name], want, rtol=1e-9, atol=1e-9)
        if not np.array_equal(interp[name], fused[name]):
            bad.append(name)
    return bad


class TestCounterExample:
    """``V := (A' + B') * A``: the program on which the parent's two
    lowerings disagreed in the last bits (11/50 seeds at n=2, 50/50 at
    n=64) — the sum of two transposed views kept its F layout in one
    and was copied into a C buffer in the other."""

    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_bitwise_after_one_update(self, n):
        a_sym, b_sym = MatrixSymbol("A", n, n), MatrixSymbol("B", n, n)
        program = Program([a_sym, b_sym], [Statement(
            MatrixSymbol("V", n, n),
            matmul(add(transpose(a_sym), transpose(b_sym)), a_sym))])
        differing = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            inputs = {"A": rng.normal(size=(n, n)),
                      "B": rng.normal(size=(n, n))}
            if _mismatches(program, inputs,
                           _rank_one_updates(rng, a_sym, n, 1)):
                differing.append(seed)
        assert not differing, f"modes differ on seeds {differing}"


def _trees_to_depth_two(leaves):
    """Every tree of depth <= 2 over {symbol, transpose, add, matmul}."""
    level = list(leaves)
    for _ in range(2):
        grown = list(leaves) + [transpose(x) for x in level]
        for left, right in itertools.product(level, repeat=2):
            grown += [add(left, right), matmul(left, right)]
        level = list({to_string(expr): expr for expr in grown}.values())
    return level


def _as_factors(trees, leaves):
    """Each tree as either factor of one more product with a symbol."""
    grown = []
    for tree, leaf in itertools.product(trees, leaves):
        grown += [matmul(tree, leaf), matmul(leaf, tree)]
    known = {to_string(expr) for expr in trees}
    return [expr for text, expr in
            {to_string(expr): expr for expr in grown}.items()
            if text not in known]


class TestBoundedExhaustiveEnumeration:
    """No tree small enough to enumerate may split the modes, whichever
    input the update lands on."""

    def _differing(self, n, grow):
        leaves = [MatrixSymbol("A", n, n), MatrixSymbol("B", n, n)]
        rng = np.random.default_rng(n)
        inputs = {sym.name: rng.normal(size=(n, n)) / np.sqrt(n)
                  for sym in leaves}
        # Both inputs' triggers fire, twice each, on one session pair.
        updates = [update for _ in range(2) for sym in leaves
                   for update in _rank_one_updates(rng, sym, n, 1)]
        trees = grow(leaves)
        differing = [
            to_string(expr) for expr in trees
            if _mismatches(Program(
                leaves, [Statement(MatrixSymbol("V", n, n), expr)]),
                inputs, updates)
        ]
        return len(trees), differing

    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_every_tree_to_depth_two(self, n):
        count, differing = self._differing(n, _trees_to_depth_two)
        assert count > 200
        assert not differing, (
            f"modes differ on {len(differing)} cases: {differing[:10]}")

    @pytest.mark.parametrize("n", [
        pytest.param(2, marks=pytest.mark.slow), 4,
        pytest.param(64, marks=pytest.mark.slow)])
    def test_each_as_a_factor_of_one_more_product(self, n):
        """The level that bites: layouts can only split two lowerings
        once a computed temporary (a sum of two transposed views, say)
        is an operand of a product, and no tree of depth 2 is big
        enough for that — the counter-example has depth 3."""
        count, differing = self._differing(
            n, lambda leaves: _as_factors(_trees_to_depth_two(leaves),
                                          leaves))
        assert count > 800
        assert not differing, (
            f"modes differ on {len(differing)} cases: {differing[:10]}")


def _sampled_program(data, depth):
    pool = ExprPool()
    n = data.draw(st.sampled_from([2, 3, 4]))
    expr = data.draw(shaped_expr(pool, n, n, depth))
    inputs_syms = sorted(pool.symbols.values(), key=lambda s: s.name)
    if not inputs_syms:  # expr was pure Identity
        return None
    program = Program(inputs_syms,
                      [Statement(MatrixSymbol("V_out", n, n), expr)])
    return program, pool, inputs_syms[0]


class TestGeneratedProgramParity:
    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_dense_bit_for_bit(self, data, seed):
        sampled = _sampled_program(data, data.draw(st.integers(3, 4)))
        if sampled is None:
            return
        program, pool, upd_sym = sampled
        env = pool.env(seed)
        rng = np.random.default_rng(seed + 1)
        updates = [
            FactoredUpdate(
                upd_sym.name,
                rng.normal(size=(upd_sym.shape.rows, 1)),
                rng.normal(size=(upd_sym.shape.cols, 1)),
            )
            for _ in range(4)
        ]
        interp, fused = _sessions(program, env)
        _drive_both(interp, fused, updates)
        for name in list(env) + ["V_out"]:
            assert np.array_equal(interp[name], fused[name]), name

    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_sparse_backend_bit_for_bit(self, data, seed):
        pytest.importorskip("scipy")
        sampled = _sampled_program(data, data.draw(st.integers(1, 2)))
        if sampled is None:
            return
        program, pool, upd_sym = sampled
        env = pool.env(seed)
        rng = np.random.default_rng(seed + 1)
        updates = [
            FactoredUpdate(
                upd_sym.name,
                rng.normal(size=(upd_sym.shape.rows, 1)),
                rng.normal(size=(upd_sym.shape.cols, 1)),
            )
            for _ in range(3)
        ]
        interp, fused = _sessions(program, env, backend="sparse")
        _drive_both(interp, fused, updates)
        expected = _reevaluated(program, env, updates)
        for name in list(env) + ["V_out"]:
            assert np.array_equal(interp[name], fused[name]), name
            np.testing.assert_allclose(
                fused[name], expected[name], rtol=1e-8, atol=1e-10)


class TestChainParitySparseState:
    """Large CSR-backed chain: the sparse fallback legs stay correct."""

    def test_sparse_chain(self, rng):
        pytest.importorskip("scipy")
        n = 100
        a_sym = MatrixSymbol("A", n, n)
        b_sym = MatrixSymbol("B", n, n)
        program = Program([a_sym], [Statement(b_sym, matmul(a_sym, a_sym))])
        a0 = (rng.random((n, n)) < 0.02) * rng.normal(size=(n, n))
        updates = []
        for i in range(20):
            u = np.zeros((n, 1))
            u[i % n, 0] = 1.0
            v = 0.02 * rng.normal(size=(n, 1)) * (rng.random((n, 1)) < 0.05)
            updates.append(FactoredUpdate("A", u, v))
        interp, fused = _sessions(program, {"A": a0}, backend="sparse")
        _drive_both(interp, fused, updates)
        assert np.array_equal(interp["B"], fused["B"])
        expected = _reevaluated(program, {"A": a0}, updates)
        np.testing.assert_allclose(fused["B"], expected["B"], rtol=1e-9,
                                   atol=1e-12)


def _a4(n=8):
    a_sym = MatrixSymbol("A", n, n)
    b_sym = MatrixSymbol("B", n, n)
    c_sym = MatrixSymbol("C", n, n)
    return Program(
        [a_sym],
        [Statement(b_sym, matmul(a_sym, a_sym)),
         Statement(c_sym, matmul(b_sym, b_sym))],
    )


class TestOneListEveryFiring:
    """Off-width updates and ``Inverse`` run the same list with
    allocating destinations — there is no second lowering to fall to."""

    def test_off_rank_updates_stay_bitwise_and_correct(self, rng):
        n = 8
        program = _a4(n)
        inputs = {"A": rng.normal(size=(n, n))}
        updates = [
            FactoredUpdate("A", rng.normal(size=(n, width)),
                           rng.normal(size=(n, width)))
            for width in (2, 1, 3)
        ]
        assert _mismatches(program, inputs, updates) == []

    def test_inverse_lowers_without_a_buffer(self):
        from repro.compiler.trigger import Assign, Trigger, Update

        n = 4
        a_sym = MatrixSymbol("A", n, n)
        u_sym = MatrixSymbol("u_A", n, 1)
        v_sym = MatrixSymbol("v_A", n, 1)
        trigger = Trigger(
            "A",
            (u_sym, v_sym),
            [Assign(MatrixSymbol("T0", n, n), inverse(a_sym))],
            [Update(a_sym, matmul(u_sym, transpose(v_sym)))],
        )
        lowered = lower_trigger(trigger)
        [inv] = [op for op in lowered.ops if op.kernel == "inv"]
        assert inv.dst == "T0" and inv.srcs == ("A",)
        assert not lowered.buffers

    @pytest.mark.parametrize(
        "build", [compile_trigger_function, compile_fused_trigger])
    def test_unbound_dimension_is_a_typed_error_at_bind(self, build):
        n = NamedDim("n")
        a_sym = MatrixSymbol("A", n, n)
        program = Program(
            [a_sym], [Statement(MatrixSymbol("B", n, n),
                                matmul(a_sym, a_sym))])
        trigger = compile_program(program)["A"]
        assert "_b0: (n x 1)" in generate_python_trigger(trigger)
        with pytest.raises(EvaluationError, match="unbound dimension"):
            build(trigger, {})  # no binding for n

    def test_inverse_program_bitwise_and_correct(self, rng):
        n = 6
        a_sym = MatrixSymbol("A", n, n)
        program = Program(
            [a_sym], [Statement(MatrixSymbol("W", n, n), inverse(a_sym))])
        inputs = {"A": rng.normal(size=(n, n)) + 10.0 * np.eye(n)}
        updates = [
            FactoredUpdate("A", 0.01 * rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 1)))
            for _ in range(3)
        ]
        interp, fused = _sessions(program, inputs)
        _drive_both(interp, fused, updates)
        assert np.array_equal(interp["W"], fused["W"])
        expected = _reevaluated(program, inputs, updates)
        np.testing.assert_allclose(fused["W"], expected["W"], rtol=1e-8)


class TestPrintedForm:
    def test_source_is_the_lowered_list(self):
        trigger = compile_program(_a4(8))["A"]
        lowered = lower_trigger(trigger)
        source = generate_python_trigger(trigger)
        assert "def on_update_A(views, u_A, v_A):" in source
        # One printed line per record, in the list's order:
        body = [line.strip() for line in source.splitlines()]
        calls = [line for line in body if " = _" in line]
        assert len(calls) == len(lowered.ops) + len(lowered.applies)
        # In-place application, no copy-on-write:
        assert "views['A'] = _outer(A, u_A, v_A)" in source
        assert ".copy()" not in source
        # Hoisted transposes bound once at function top:
        assert source.count("_T_A = _transpose(A)") == 1
        # Every temporary has a preplanned buffer, shaped symbolically:
        assert lowered.buffers
        assert all(f"#   {name}: {shape}" in source
                   for name, shape in lowered.buffers.items())
        # Applies come after every evaluation:
        first_apply = min(i for i, line in enumerate(body)
                          if line.startswith("views["))
        assert all(line.startswith("views[") for line in body[first_apply:]
                   if line)

    def test_buffers_shared_across_triggers_by_shape(self):
        trigger = compile_program(_a4(8))["A"]
        ws = Workspace()
        fn = compile_fused_trigger(trigger, {}, workspace=ws)
        buffers_after_first = ws.buffer_count()
        fn2 = compile_trigger_function(trigger, {}, workspace=ws)
        assert ws.buffer_count() == buffers_after_first, (
            "re-binding the same trigger should reuse the arena's buffers"
        )
        assert fn2.__name__ == fn.__name__ == "on_update_A"
