"""The two executors of the lowered lists against each other.

``mode="interpret"`` loops over a lowered list
(:mod:`repro.compiler.codegen.fused`) and ``mode="codegen"`` prints and
``exec``-utes the same list, so they must agree **bit for bit** — on the
dense backend and, since both call the same kernel callables on the
same operands, on the sparse one — for INCR's trigger lists and
REEVAL's lists alike.  The independent oracle is re-evaluation by
``stream_helpers.numpy_views`` (a NumPy tree walk that shares no code
with the lowering or the backends), met to tolerance.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import ExprPool, shaped_expr
from repro.compiler import Program, Statement, compile_program
from repro.compiler.codegen import fused
from repro.compiler.codegen.fused import (
    compile_fused_trigger,
    compile_trigger_function,
    generate_python_trigger,
    lower_trigger,
    merge_duplicates,
)
from repro.compiler.trigger import Assign, Trigger, Update
from repro.expr import (
    MatrixSymbol,
    NamedDim,
    add,
    inverse,
    matmul,
    to_string,
    transpose,
)
from repro.frontend import parse_program
from repro.runtime import EvaluationError, FactoredUpdate
from repro.runtime.session import IVMSession, ReevalSession
from repro.runtime.workspace import Workspace
from stream_helpers import numpy_views

SETTINGS = dict(max_examples=40, deadline=None)

#: The strategies whose lists both modes run.
STRATEGIES = ("INCR", "REEVAL")


def _sessions(program, inputs, dims=None, backend=None, rank=1,
              strategy="INCR"):
    """(interpret, codegen) session pair over copied inputs."""
    def make(mode):
        copied = {k: np.array(v) for k, v in inputs.items()}
        if strategy == "REEVAL":
            return ReevalSession(program, copied, dims=dims,
                                 backend=backend, mode=mode)
        return IVMSession(program, copied, dims=dims, backend=backend,
                          rank=rank, mode=mode)

    return make("interpret"), make("codegen")


def _drive_both(interp, fused, updates):
    for update in updates:
        interp.apply_update(update)
        fused.apply_update(update)


def _unmerged(trigger):
    """``trigger``'s list as the lowering emits it, before the merge."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fused, "merge_duplicates", lambda lowered: lowered)
        return lower_trigger(trigger)


def _merged_records(program) -> int:
    """Records the merge pass removes from ``program``'s triggers."""
    return sum(len(_unmerged(trigger).ops) - len(lower_trigger(trigger).ops)
               for trigger in compile_program(program).values())


def _rank_one_updates(rng, sym, n, count):
    return [FactoredUpdate(sym.name, rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 1)))
            for _ in range(count)]


def _mismatches(program, inputs, updates, strategy="INCR"):
    """Names on which the modes differ in any bit, after checking both
    against re-evaluation to tolerance."""
    interp, fused = _sessions(program, inputs, strategy=strategy)
    _drive_both(interp, fused, updates)
    expected = numpy_views(program, inputs, updates)
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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [2, 4, 8, 64])
    def test_bitwise_after_one_update(self, n, strategy):
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
                           _rank_one_updates(rng, a_sym, n, 1), strategy):
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

    def _differing(self, n, grow, strategy="INCR"):
        leaves = [MatrixSymbol("A", n, n), MatrixSymbol("B", n, n)]
        rng = np.random.default_rng(n)
        inputs = {sym.name: rng.normal(size=(n, n)) / np.sqrt(n)
                  for sym in leaves}
        # Both inputs' triggers fire, twice each, on one session pair.
        updates = [update for _ in range(2) for sym in leaves
                   for update in _rank_one_updates(rng, sym, n, 1)]
        programs = {
            to_string(expr): Program(
                leaves, [Statement(MatrixSymbol("V", n, n), expr)])
            for expr in grow(leaves)}
        differing = [text for text, program in programs.items()
                     if _mismatches(program, inputs, updates, strategy)]
        # The sessions run merged lists; the tier must give the pass work.
        merging = sum(map(_merged_records, programs.values()))
        return len(programs), differing, merging

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("n", [2, 4, 64])
    def test_every_tree_to_depth_two(self, n, strategy):
        count, differing, merging = self._differing(
            n, _trees_to_depth_two, strategy)
        assert count > 200 and merging > 0
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
        count, differing, merging = self._differing(
            n, lambda leaves: _as_factors(_trees_to_depth_two(leaves),
                                          leaves))
        assert count > 800 and merging > 0
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
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_dense_bit_for_bit(self, data, seed, strategy):
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
        interp, fused = _sessions(program, env, strategy=strategy)
        _drive_both(interp, fused, updates)
        for name in list(env) + ["V_out"]:
            assert np.array_equal(interp[name], fused[name]), name

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @settings(**SETTINGS)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_sparse_backend_bit_for_bit(self, data, seed, strategy):
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
        interp, fused = _sessions(program, env, backend="sparse",
                                  strategy=strategy)
        _drive_both(interp, fused, updates)
        expected = numpy_views(program, env, updates)
        for name in list(env) + ["V_out"]:
            assert np.array_equal(interp[name], fused[name]), name
            np.testing.assert_allclose(
                fused[name], expected[name], rtol=1e-8, atol=1e-10)


class TestChainParitySparseState:
    """Large CSR-backed chain: the sparse fallback legs stay correct."""

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_sparse_chain(self, rng, strategy):
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
        interp, fused = _sessions(program, {"A": a0}, backend="sparse",
                                  strategy=strategy)
        _drive_both(interp, fused, updates)
        assert np.array_equal(interp["B"], fused["B"])
        expected = numpy_views(program, {"A": a0}, updates)
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

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_off_rank_updates_stay_bitwise_and_correct(self, rng, strategy):
        n = 8
        program = _a4(n)
        inputs = {"A": rng.normal(size=(n, n))}
        updates = [
            FactoredUpdate("A", rng.normal(size=(n, width)),
                           rng.normal(size=(n, width)))
            for width in (2, 1, 3)
        ]
        assert _mismatches(program, inputs, updates, strategy) == []

    def test_inverse_lowers_without_a_buffer(self):
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
        lowered = lower_trigger(compile_program(program)["A"])
        assert "_b0: (n x 1)" in generate_python_trigger(lowered)
        with pytest.raises(EvaluationError, match="unbound dimension"):
            build(lowered, {})  # no binding for n

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_inverse_program_bitwise_and_correct(self, rng, strategy):
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
        interp, fused = _sessions(program, inputs, strategy=strategy)
        _drive_both(interp, fused, updates)
        assert np.array_equal(interp["W"], fused["W"])
        expected = numpy_views(program, inputs, updates)
        np.testing.assert_allclose(fused["W"], expected["W"], rtol=1e-8)


class TestPrintedForm:
    def test_source_is_the_lowered_list(self):
        lowered = lower_trigger(compile_program(_a4(8))["A"])
        source = generate_python_trigger(lowered)
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
        lowered = lower_trigger(compile_program(_a4(8))["A"])
        ws = Workspace()
        fn = compile_fused_trigger(lowered, {}, workspace=ws)
        buffers_after_first = ws.buffer_count()
        fn2 = compile_trigger_function(lowered, {}, workspace=ws)
        assert ws.buffer_count() == buffers_after_first, (
            "re-binding the same trigger should reuse the arena's buffers"
        )
        assert fn2.__name__ == fn.__name__ == "on_update_A"


def _ols(m=20, n=8):
    x, z, w = (MatrixSymbol("X", m, n), MatrixSymbol("Z", n, n),
               MatrixSymbol("W", n, n))
    return Program([x], [Statement(z, matmul(transpose(x), x)),
                         Statement(w, inverse(z))])


def _tenants(count=8):
    """``catalog_tenants``' shared chain with ``count`` private views,
    each stacking the same ``[V_C, v_A]``."""
    return parse_program("input A(n, n); B := A * A; C := B * B; " + "".join(
        f"P{i} := {i + 2} * C + A; " for i in range(count)))


def _final_views(program, inputs, updates, mode, merge=True):
    """Every stored array after ``updates``, on merged or raw lists.

    The session runs a fresh copy of ``program``, so it lowers its own
    lists rather than reusing another session's compiled ones."""
    with pytest.MonkeyPatch.context() as patch:
        if not merge:
            patch.setattr(fused, "merge_duplicates", lambda lowered: lowered)
        session = IVMSession(
            Program(program.inputs, program.statements),
            {k: np.array(v) for k, v in inputs.items()},
            dims={"n": 8}, mode=mode)
        for update in updates:
            session.apply_update(update)
        return {name: np.array(session[name])
                for name in (*program.input_names, *program.view_names)}


class TestMergedRecords:
    """Identical pure records merge on the lowered list, which both
    modes run: interpret == codegen stays bitwise, and so does the list
    the lowering emitted before the merge."""

    # OLS frees one buffer and leases one: its merged product is
    # summed in place before its last read.
    @pytest.mark.parametrize("program, inputs, input_name, merged, freed", [
        (_ols(), {"X": np.eye(20, 8) + 0.1}, "X", 1, 0),
        (_tenants(), {"A": 0.2 * np.eye(8) + 0.01}, "A", 7, 7),
    ], ids=["ols", "tenants"])
    def test_merged_list_runs_bitwise_like_the_emitted_one(
            self, rng, program, inputs, input_name, merged, freed):
        trigger = compile_program(program)[input_name]
        raw, lowered = _unmerged(trigger), lower_trigger(trigger)
        assert len(raw.ops) - len(lowered.ops) == merged
        assert len(raw.buffers) - len(lowered.buffers) == freed
        assert merge_duplicates(lowered) is lowered  # idempotent
        # Applies are never merged; only the names they read move.
        assert ([(op.kernel, op.dst) for op in lowered.applies]
                == [(op.kernel, op.dst) for op in raw.applies])

        rows, cols = inputs[input_name].shape
        updates = [FactoredUpdate(input_name,
                                  0.05 * rng.normal(size=(rows, 1)),
                                  0.05 * rng.normal(size=(cols, 1)))
                   for _ in range(4)]
        want = _final_views(program, inputs, updates, "interpret",
                            merge=False)
        expected = numpy_views(program, inputs, updates)
        for mode in ("interpret", "codegen"):
            got = _final_views(program, inputs, updates, mode)
            for name, value in want.items():
                assert np.array_equal(got[name], value), (mode, name)
                np.testing.assert_allclose(value, expected[name],
                                           rtol=1e-8, atol=1e-10)

    def test_tenants_stack_their_shared_factor_once(self):
        """Eight private views stack the same ``[V_C, v_A]``: one record
        does, and every private view's apply reads it."""
        lowered = lower_trigger(compile_program(_tenants())["A"])
        stacks = [op.srcs[:-1] for op in lowered.ops if op.kernel == "hstack"]
        assert len(stacks) == len(set(stacks))
        private = [op for op in lowered.applies if op.dst.startswith("P")]
        assert len(private) == 8 and len({op.srcs[2] for op in private}) == 1

    def test_a_sum_spares_a_survivor_read_later(self):
        """OLS: ``_t1 = X' u_X`` is summed in place into ``U_Z``'s
        block, and ``V_Z`` reads the same product again.  Merged, the
        sum writes into a fresh buffer instead of over ``_t1``."""
        lowered = lower_trigger(compile_program(_ols())["X"])
        [product] = [op for op in lowered.ops
                     if op.kernel == "matmul" and op.srcs[:2] == ("_T_X", "u_X")]
        [total] = [op for op in lowered.ops
                   if op.kernel == "add" and op.srcs[0] == product.dst]
        assert total.srcs[2] in lowered.buffers
        assert total.srcs[2] != product.srcs[2]
        assert any(op.kernel == "hstack" and product.dst in op.srcs
                   for op in lowered.ops if op.dst == "V_Z")

    def _trigger(self, *builds):
        """One assign per ``build(A, B, u)``, each applied to its own view
        (``A``, ``B``, ``C`` in turn)."""
        n = 4
        views = [MatrixSymbol(name, n, n) for name in "ABC"]
        u, v = MatrixSymbol("u_A", n, 1), MatrixSymbol("v_A", n, 1)
        targets = [MatrixSymbol(f"T{i}", n, 1) for i in range(len(builds))]
        return Trigger("A", (u, v), [
            Assign(target, build(*views[:2], u))
            for target, build in zip(targets, builds)
        ], [Update(view, matmul(target, transpose(v)))
            for view, target in zip(views, targets)])

    def _assert_fires_like_the_emitted_list(self, trigger, rng):
        """Merged interpret and codegen == the unmerged list, bitwise."""
        views = {name: rng.normal(size=(4, 4)) for name in "ABC"}
        u, v = rng.normal(size=(4, 1)), rng.normal(size=(4, 1))
        results = []
        for build, merge in ((compile_trigger_function, False),
                             (compile_trigger_function, True),
                             (compile_fused_trigger, True)):
            state = {name: value.copy() for name, value in views.items()}
            with pytest.MonkeyPatch.context() as patch:
                if not merge:
                    patch.setattr(fused, "merge_duplicates",
                                  lambda lowered: lowered)
                fn = build(lower_trigger(trigger), {})
                for _ in range(2):  # the second firing reuses buffers
                    fn(state, u, v)
            results.append(state)
        for state in results[1:]:
            for name in views:
                assert np.array_equal(state[name], results[0][name]), name

    def test_a_sum_whose_operands_are_both_read_again(self, rng):
        build = lambda a, b, u: add(matmul(a, u), matmul(b, u))  # noqa: E731
        trigger = self._trigger(build, build)
        lowered = lower_trigger(trigger)
        assert len(lowered.ops) == len(_unmerged(trigger).ops) - 2
        first = next(op for op in lowered.ops if op.kernel == "add")
        assert first.srcs[2] in lowered.buffers
        assert merge_duplicates(lowered) is lowered
        self._assert_fires_like_the_emitted_list(trigger, rng)

    def test_a_sum_spares_a_survivor_read_through_a_transpose(self, rng):
        """``(A u)'`` is taken before the sum over ``A u`` and, merged,
        read again after it: the transposed alias keeps ``A u`` live."""
        trigger = self._trigger(
            lambda a, b, u: transpose(matmul(transpose(matmul(a, u)), b)),
            lambda a, b, u: add(matmul(a, u), matmul(b, u)),
            lambda a, b, u: transpose(matmul(transpose(matmul(a, u)), a)))
        lowered = lower_trigger(trigger)
        [total] = [op for op in lowered.ops if op.kernel == "add"]
        assert total.srcs[2] in lowered.buffers
        self._assert_fires_like_the_emitted_list(trigger, rng)

    def test_inverses_are_not_merged(self):
        """``inv`` allocates its result, so a sum may accumulate into
        it: two identical inverses stay two records."""
        build = lambda a, b, u: matmul(add(inverse(a), b), u)  # noqa: E731
        trigger = self._trigger(build, build)
        lowered = lower_trigger(trigger)
        assert lowered == _unmerged(trigger)
        assert sum(op.kernel == "inv" for op in lowered.ops) == 2
