"""Sharded set-up: overlapped worker boot, its cleanup, and lifetime.

``ShardedChainSession`` spawns its workers *before* it evaluates the
views, so the evaluation runs while the workers boot; whatever goes
wrong between the spawn and the first ``attach`` roundtrip must leave
no worker process and no shared-memory name behind.  Process-spawning
tests keep ``n`` small; spawn dominates their cost.
"""

from __future__ import annotations

import errno
import glob
import multiprocessing
import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest

from repro.distributed import ProcessCluster, RowShardPartitioner
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    Session,
    ShardedChainSession,
    open_session,
)
from repro.testing import faults

CHAIN_SRC = "input A(n, n); B := A * A; C := A * B; output C;"
SHARDED = MaintenancePlan("INCR", backend="dense", mode="interpret", nodes=2)


def _operator(n: int, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)


def _update(n: int, seed: int = 5) -> FactoredUpdate:
    rng = np.random.default_rng(seed)
    return FactoredUpdate("A", 0.01 * rng.standard_normal((n, 1)),
                          rng.standard_normal((n, 1)))


def _shard_workers() -> list:
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("repro-shard-")]


@pytest.fixture
def no_leak():
    """Fail the test if it leaves a shard worker or a shm name behind."""
    workers = {child.pid for child in _shard_workers()}
    segments = set(glob.glob("/dev/shm/psm_*"))
    yield
    assert {child.pid for child in _shard_workers()} <= workers
    assert set(glob.glob("/dev/shm/psm_*")) <= segments


class TestOverlappedBoot:
    def test_workers_are_spawned_before_the_views_are_evaluated(
            self, monkeypatch, no_leak):
        alive_during_evaluation = []
        materialize = Session._materialize_all

        def spy(self):
            alive_during_evaluation.append(len(_shard_workers()))
            materialize(self)

        monkeypatch.setattr(Session, "_materialize_all", spy)
        program = parse_program(CHAIN_SRC)
        a = _operator(32)
        with open_session(program, {"A": a.copy()}, plan=SHARDED,
                          batch="off") as session:
            assert isinstance(session, ShardedChainSession)
            assert alive_during_evaluation == [2]
            # The fence held: every worker attached every view.
            update = _update(32)
            session.apply_update(update)
            want = a + update.u_block @ update.v_block.T
            np.testing.assert_allclose(session["C"], want @ want @ want,
                                       rtol=1e-9, atol=1e-12)

    def test_failure_after_the_spawn_stops_the_workers(self, monkeypatch,
                                                       no_leak):
        spawned = []

        def boom(self):
            spawned.append(len(_shard_workers()))
            raise RuntimeError("evaluation failed")

        monkeypatch.setattr(Session, "_materialize_all", boom)
        program = parse_program(CHAIN_SRC)
        with pytest.raises(RuntimeError, match="evaluation failed"):
            ShardedChainSession(program, {"A": _operator(32)}, nodes=2)
        assert spawned == [2]
        assert _shard_workers() == []

    def test_unconvertible_input_stops_the_workers(self, no_leak):
        # Square by shape, so it passes the pre-spawn check and fails
        # in the store's float64 conversion, after the spawn.
        program = parse_program(CHAIN_SRC)
        with pytest.raises(ValueError):
            ShardedChainSession(program, {"A": np.full((8, 8), "x")},
                                nodes=2)
        assert _shard_workers() == []

    @pytest.mark.parametrize("inputs, message", [
        ({"A": np.ones((16, 8))}, "square input"),
        ({"A": np.ones(16)}, "square input"),
        ({}, "missing initial values"),
    ])
    def test_bad_input_leaves_nothing_behind(self, inputs, message, no_leak):
        program = parse_program(CHAIN_SRC)
        with pytest.raises(ValueError, match=message):
            ShardedChainSession(program, inputs, nodes=2)
        assert _shard_workers() == []

    def test_shm_exhaustion_still_lands_on_the_fallback(self, no_leak):
        program = parse_program(CHAIN_SRC)
        with faults.inject_faults() as injector:
            injector.inject("shm.create", faults.shm_budget_exhausted(),
                            times=10 ** 6)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                session = open_session(program, {"A": _operator(32)},
                                       plan=SHARDED, batch="off")
        assert isinstance(session, IVMSession)
        assert session.plan.nodes == 1
        assert any(issubclass(w.category, RuntimeWarning)
                   and "shared-memory budget" in str(w.message)
                   for w in caught)
        assert _shard_workers() == []


class TestSpawnFailure:
    def test_failed_spawn_does_not_leak_earlier_workers(self, monkeypatch,
                                                        no_leak):
        spawn = ProcessCluster._spawn_worker
        calls = []

        def flaky(self, worker):
            calls.append(worker)
            if len(calls) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            spawn(self, worker)

        monkeypatch.setattr(ProcessCluster, "_spawn_worker", flaky)
        with pytest.raises(OSError, match="temporarily unavailable"):
            ProcessCluster(RowShardPartitioner(16, 3, tile_rows=4))
        assert calls == [0, 1]
        assert _shard_workers() == []


UNGUARDED_SCRIPT = textwrap.dedent("""
    import numpy as np
    from repro.frontend import parse_program
    from repro.planner import MaintenancePlan
    from repro.runtime import open_session

    program = parse_program("input A(n, n); B := A * A; output B;")
    plan = MaintenancePlan("INCR", backend="dense", mode="interpret", nodes=2)
    session = open_session(program, {"A": np.eye(16)}, plan=plan, batch="off")
    session.close()
""")


class TestUnguardedScript:
    def test_error_names_the_main_guard(self, tmp_path):
        """Spawn re-imports the script; the error must say so."""
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"),
                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, str(script)],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode != 0
        failure = [line for line in proc.stderr.splitlines()
                   if "WorkerFailedError" in line][-1]
        assert "exited with code 1 before its first reply" in failure
        assert '`if __name__ == "__main__":` guard' in failure


class TestSessionLifetime:
    """``nodes=N`` is a budget: whatever comes back closes the same way."""

    def test_single_process_session_closes_and_stays_usable(self):
        program = parse_program(CHAIN_SRC)
        a = _operator(16)
        with open_session(program, {"A": a.copy()}, nodes=2) as session:
            assert not isinstance(session, ShardedChainSession)
        session.close()
        session.apply_update(_update(16))
        assert session.update_count == 1

    @pytest.mark.parametrize("wrap", [{"drift": True}, {"replan": True}])
    def test_monitors_forward_the_context_manager(self, wrap, no_leak):
        program = parse_program(CHAIN_SRC)
        with open_session(program, {"A": _operator(32)}, plan=SHARDED,
                          batch="off", **wrap) as monitor:
            assert isinstance(monitor.session, ShardedChainSession)
            assert len(_shard_workers()) == 2
        assert _shard_workers() == []
        monitor.close()
