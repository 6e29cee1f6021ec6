"""One compiled artifact per (program, rank).

Algorithm 1 and the lowering run once per program and update width:
the planner's shardability question, a sharded session's refusal
check, both execution modes and every rebuild of a session read the
same :class:`~repro.compiler.compile.CompiledProgram`.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import numpy as np
import pytest

import repro.compiler.compile as compile_mod
import repro.runtime.session as session_mod
from repro.compiler import CompiledProgram, compile_program, compiled_program
from repro.compiler.codegen import fused
from repro.distributed import (
    LocalShardEngine,
    RowShardPartitioner,
    ShardBackend,
    unshardable,
)
from repro.frontend import parse_program
from repro.planner import MaintenancePlan, rank_program
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
    """Algorithm 1 runs and trigger lowerings, counted from now on."""
    counts = {"compile": 0, "lower": 0}
    real_compile, real_lower = compile_mod.compile_program, fused.lower_trigger

    def compile_(*args, **kwargs):
        counts["compile"] += 1
        return real_compile(*args, **kwargs)

    def lower(trigger):
        counts["lower"] += 1
        return real_lower(trigger)

    monkeypatch.setattr(compile_mod, "compile_program", compile_)
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
    def test_memoized_per_program_and_rank(self):
        program = parse_program(CHAIN_SRC)
        one = compiled_program(program)
        assert isinstance(one, CompiledProgram)
        assert compiled_program(program, 1) is one
        two = compiled_program(program, 2)
        assert two is not one
        assert two.triggers["A"].params[0].shape.cols == 2
        assert two.lowered("A").rank == 2
        # Memoized on the program object, not on its text.
        assert compiled_program(parse_program(CHAIN_SRC)) is not one

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

    def test_the_process_engine_compiles_once(self, counted, rng,
                                              monkeypatch):
        # The planner picks the 2-worker cell (priced at nothing, to
        # keep n small) after asking whether the program shards.
        import repro.planner.planner as planner

        monkeypatch.setattr(planner, "sharded_refresh_cost",
                            lambda *args, **kwargs: 0.0)
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

        # A strategy switch out and back, at the same rank: nothing new.
        reeval = interp.with_plan(MaintenancePlan("REEVAL"))
        assert isinstance(reeval, ReevalSession)
        back = reeval.with_plan(MaintenancePlan("INCR", mode="codegen"))
        assert back.compiled is codegen.compiled
        assert counted == {"compile": 1, "lower": 2}

        # A new update width is a new artifact, compiled once; in
        # interpret mode only the trigger that fired is lowered.
        wide = back.with_plan(MaintenancePlan("INCR", rank=2))
        wide.apply_update(_updates(rng, 1, width=2)[0])
        assert wide.compiled is compiled_program(program, 2)
        assert counted == {"compile": 2, "lower": 3}

    def test_an_interpret_session_lowers_on_its_first_update(self, counted,
                                                             rng):
        # A session superseded before any update (the catalog's, at each
        # tenant registration) compiles its program but lowers nothing.
        program = parse_program(TWO_INPUTS_SRC)
        session = IVMSession(program, _inputs(program, rng))
        assert counted == {"compile": 1, "lower": 0}
        session.apply_update(_updates(rng, 1, target="D")[0])
        assert counted == {"compile": 1, "lower": 1}

    def test_unshardable_asks_the_artifact(self, counted):
        chain, inverse = parse_program(CHAIN_SRC), parse_program(INVERSE_SRC)
        for _ in range(2):
            assert unshardable(chain, 1) is None
            assert "on a stored view" in unshardable(inverse, 1)
        assert counted == {"compile": 2, "lower": 2}
