"""One compiled artifact per program.

Algorithm 1 and the lowering run once per program, at the symbolic
update width :data:`~repro.compiler.compile.UPDATE_WIDTH`: the
planner's pricing and shardability question, a sharded session's
refusal check, both execution modes and every rebuild of a session, at
any rank, read the same :class:`~repro.compiler.compile.CompiledProgram`.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro.compiler.compile as compile_mod
import repro.runtime.session as session_mod
from repro.catalog import ViewCatalog
from repro.compiler import (
    UPDATE_WIDTH,
    CompiledProgram,
    compile_program,
    compiled_program,
)
from repro.compiler.codegen import fused
from repro.distributed import (
    LocalShardEngine,
    RowShardPartitioner,
    ShardBackend,
    unshardable,
)
from repro.frontend import parse_program
from repro.planner import MaintenancePlan, WorkloadStats, rank_program
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    ReevalSession,
    ShardedSession,
    open_session,
)
from repro.runtime.session import build_session

CHAIN_SRC = "input A(n, n); B := A * A; C := B * B;"
TWO_INPUTS_SRC = "input A(n, n); input D(n, n); B := A * D; C := B * A;"
INVERSE_SRC = "input A(n, n); W := inv(A);"
N = 24


@pytest.fixture
def counted(monkeypatch):
    """Algorithm 1 runs (one per input compiled) and trigger lowerings,
    counted from now on."""
    counts = {"compile": 0, "lower": 0}
    real_compile, real_lower = compile_mod._compile_for_input, fused.lower_trigger

    def compile_(*args, **kwargs):
        counts["compile"] += 1
        return real_compile(*args, **kwargs)

    def lower(trigger):
        counts["lower"] += 1
        return real_lower(trigger)

    monkeypatch.setattr(compile_mod, "_compile_for_input", compile_)
    monkeypatch.setattr(fused, "lower_trigger", lower)
    return counts


def _inputs(program, rng):
    return {name: rng.standard_normal((N, N)) / N
            for name in program.input_names}


def _updates(rng, count, target="A", width=1):
    return [FactoredUpdate(target, 0.1 * rng.standard_normal((N, width)),
                           rng.standard_normal((N, width)))
            for _ in range(count)]


class TestArtifact:
    def test_memoized_per_program_at_the_symbolic_width(self):
        program = parse_program(CHAIN_SRC)
        one = compiled_program(program)
        assert isinstance(one, CompiledProgram)
        assert compiled_program(program) is one
        assert one.triggers["A"].params[0].shape.cols == UPDATE_WIDTH
        assert one.lowered("A").rank == UPDATE_WIDTH
        assert list(program._compiled) == [UPDATE_WIDTH]
        # A concrete width (``repro compile --rank``) is its own entry.
        two = compiled_program(program, 2)
        assert two is not one and two.lowered("A").rank == 2
        # Memoized on the program object, not on its text.
        assert compiled_program(parse_program(CHAIN_SRC)) is not one

    def test_no_declared_dimension_is_the_width(self):
        # Identifiers may start with ``_``; the width's name cannot lex.
        from repro.frontend.errors import LexError

        with pytest.raises(LexError):
            parse_program(f"input A({UPDATE_WIDTH.name}, n); B := A * A;")

    def test_equals_a_fresh_compile_and_lowering(self):
        program = parse_program(TWO_INPUTS_SRC)
        artifact = compiled_program(program, 3)
        fresh = compile_program(program, rank=3)
        assert list(artifact.triggers) == list(fresh) == ["A", "D"]
        for name, trigger in fresh.items():
            assert str(artifact.triggers[name]) == str(trigger)
            assert artifact.lowered(name) == fused.lower_trigger(trigger)

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_rejected_and_not_memoized(self, rank):
        program = parse_program(CHAIN_SRC)
        with pytest.raises(ValueError, match="at least 1"):
            compiled_program(program, rank)
        assert not program._compiled

    def test_symbolic_rank_accepted(self):
        from repro.expr import NamedDim

        artifact = compiled_program(parse_program(CHAIN_SRC), NamedDim("k"))
        assert str(artifact.lowered("A").rank) == "k"

    def test_read_only(self):
        artifact = compiled_program(parse_program(CHAIN_SRC))
        with pytest.raises(dataclasses.FrozenInstanceError):
            artifact.triggers = {}
        with pytest.raises(TypeError):
            artifact.triggers["A"] = None

    def test_does_not_keep_its_program_alive(self):
        program = parse_program(CHAIN_SRC)
        compiled_program(program)
        alive = weakref.ref(program)
        del program
        gc.collect()
        assert alive() is None

    def test_the_traced_name_stays_bound_on_the_session_module(self):
        # benchmarks/e2e/trace.py swaps these attributes for timers.
        for name in ("compile_program", "compile_trigger_function",
                     "compile_fused_trigger"):
            assert name in vars(session_mod)


class TestCompiledOnce:
    def test_planner_check_and_sharded_session_compile_once(self, counted,
                                                            rng):
        """The planner prices a sharded cell, the builder refuses or
        accepts the program, the session binds its executors: one
        Algorithm 1 run and one lowering per trigger between them."""
        program = parse_program(CHAIN_SRC)
        inputs = _inputs(program, rng)
        cells = rank_program(program, inputs, nodes=(1, 2))
        assert any(cell.nodes == 2 for cell in cells)
        sharded = build_session(
            program, inputs, MaintenancePlan("INCR", nodes=2),
            backend=ShardBackend(LocalShardEngine(RowShardPartitioner(N, 2))))
        assert isinstance(sharded, ShardedSession)
        for update in _updates(rng, 3):
            sharded.apply_update(update)
        assert counted == {"compile": 1, "lower": 1}
        assert sharded.compiled is compiled_program(program)

    def test_the_process_engine_compiles_once(self, counted, rng):
        # ``nodes=(2,)`` forces the 2-node cell after asking whether the
        # program shards.
        program = parse_program(CHAIN_SRC)
        with open_session(program, _inputs(program, rng), plan="incr",
                          nodes=(2,), batch="off") as session:
            assert isinstance(session, ShardedSession)
            for update in _updates(rng, 2):
                session.apply_update(update)
        assert counted == {"compile": 1, "lower": 1}

    def test_both_modes_and_every_rebuild_share_the_artifact(self, counted,
                                                             rng):
        program = parse_program(TWO_INPUTS_SRC)
        inputs = _inputs(program, rng)
        interp = IVMSession(program, inputs, mode="interpret")
        codegen = IVMSession(program, inputs, mode="codegen")
        assert interp.compiled is codegen.compiled
        for update in (*_updates(rng, 2), *_updates(rng, 2, target="D")):
            interp.apply_update(update)
            codegen.apply_update(update)
        for name in ("A", "D", "B", "C"):
            assert np.array_equal(interp[name], codegen[name]), name

        # A strategy switch out and back: nothing new.
        reeval = interp.with_plan(MaintenancePlan("REEVAL"))
        assert isinstance(reeval, ReevalSession)
        back = reeval.with_plan(MaintenancePlan("INCR", mode="codegen"))
        assert back.compiled is codegen.compiled
        # Algorithm 1 once per input (A and D), each list lowered once.
        assert counted == {"compile": 2, "lower": 2}

        # A new update width binds the same lists at another width.
        wide = back.with_plan(MaintenancePlan("INCR", rank=2))
        wide.apply_update(_updates(rng, 1, width=2)[0])
        assert wide.compiled is compiled_program(program)
        assert counted == {"compile": 2, "lower": 2}

    def test_an_interpret_session_lowers_on_its_first_update(self, counted,
                                                             rng):
        # A session superseded before any update (the catalog's, at each
        # tenant registration) compiles and lowers nothing; an update
        # runs Algorithm 1 for its own input only.
        program = parse_program(TWO_INPUTS_SRC)
        session = IVMSession(program, _inputs(program, rng))
        assert counted == {"compile": 0, "lower": 0}
        session.apply_update(_updates(rng, 1, target="D")[0])
        assert counted == {"compile": 1, "lower": 1}
        assert list(session.compiled.triggers._compiled) == ["D"]

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_reeval_and_demand_pricing_run_no_algorithm_1(self, counted,
                                                          mode, rng):
        """REEVAL's list and the evaluation list read no trigger: a
        REEVAL open and its updates and a catalog's demand price compile
        nothing."""
        program = parse_program(TWO_INPUTS_SRC)
        session = build_session(program, _inputs(program, rng),
                                MaintenancePlan("REEVAL", mode=mode))
        for update in (*_updates(rng, 2), *_updates(rng, 1, target="D")):
            session.apply_update(update)
        chain = parse_program(CHAIN_SRC)
        catalog = ViewCatalog(memory_budget=0)
        catalog.open(chain, _inputs(chain, rng), dims={"n": N})
        top = catalog.nodes[catalog._order[-1]]
        assert not top.admitted
        assert catalog._demand_price(top) == 2 * N ** 3
        assert counted == {"compile": 0, "lower": 0}

    def test_unshardable_asks_the_artifact(self, counted):
        chain, inverse = parse_program(CHAIN_SRC), parse_program(INVERSE_SRC)
        for _ in range(2):
            assert unshardable(chain) is None
            assert "on a stored view" in unshardable(inverse)
        assert counted == {"compile": 2, "lower": 2}


class TestOneArtifact:
    """Whatever asks for a program's lists, at whatever update width,
    the program holds one artifact and Algorithm 1 ran once."""

    @staticmethod
    def _one(program, counted):
        assert len(program._compiled) == 1
        assert counted["compile"] == 1

    def test_sessions_at_rank_1_and_3(self, counted, rng):
        program = parse_program(CHAIN_SRC)
        inputs = _inputs(program, rng)
        narrow = IVMSession(program, inputs, rank=1)
        wide = IVMSession(program, inputs, rank=3, mode="codegen")
        for session, width in ((narrow, 1), (wide, 3)):
            for update in _updates(rng, 2, width=width):
                session.apply_update(update)
        assert narrow.compiled is wide.compiled
        self._one(program, counted)

    def test_pricing_the_batch_width_grid(self, counted, rng):
        program = parse_program(CHAIN_SRC)
        cells = rank_program(program, _inputs(program, rng),
                             stats=WorkloadStats(n=N, update_rank=2))
        assert {cell.strategy for cell in cells} == {"INCR", "REEVAL"}
        self._one(program, counted)

    def test_unshardable(self, counted):
        program = parse_program(CHAIN_SRC)
        assert unshardable(program) is None
        self._one(program, counted)

    def test_with_plan_to_another_rank(self, counted, rng):
        program = parse_program(CHAIN_SRC)
        session = IVMSession(program, _inputs(program, rng))
        session.apply_update(_updates(rng, 1)[0])
        wide = session.with_plan(MaintenancePlan("INCR", rank=3))
        wide.apply_update(_updates(rng, 1, width=3)[0])
        self._one(program, counted)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_width_shaped_constants_follow_the_update(self, rng, mode):
        # The Woodbury core ``inv(eye(width) + ...)`` of ``inv(A)``'s
        # trigger holds a width-shaped constant: an update of another
        # width than the bound one rebuilds it at that width.
        program = parse_program(INVERSE_SRC)
        a0 = np.eye(N) + _inputs(program, rng)["A"]
        session = IVMSession(program, {"A": a0}, rank=2, mode=mode)
        for width in (2, 1, 3, 2):
            session.apply_update(_updates(rng, 1, width=width)[0])
        np.testing.assert_allclose(session["W"], np.linalg.inv(session["A"]),
                                   atol=1e-10)

    def test_checkpoint_restore(self, counted, rng, tmp_path):
        program = parse_program(CHAIN_SRC)
        session = open_session(program, _inputs(program, rng), plan="incr",
                               rank=2, batch="off",
                               checkpoint={"directory": tmp_path,
                                           "every": 1})
        session.apply_update(_updates(rng, 1, width=2)[0])
        restored = session.restore()
        restored.apply_update(_updates(rng, 1, width=2)[0])
        assert restored.compiled is session.compiled
        self._one(program, counted)
