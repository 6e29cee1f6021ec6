"""Sharded set-up: overlapped worker boot, its cleanup, and lifetime.

``ShardedSession`` spawns its workers *before* it fills the segments —
each input copied in, each view evaluated into its own — so that work
runs while the workers boot; whatever goes wrong between the spawn and
the one ``attach`` roundtrip must leave no worker process and no
shared-memory name behind.  Process-spawning tests keep ``n`` small;
spawn dominates their cost.
"""

from __future__ import annotations

import errno
import glob
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.distributed import (
    ProcessCluster,
    RowShardPartitioner,
    WorkerFailedError,
)
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    Session,
    ShardedSession,
    open_session,
)
from repro.testing import faults

CHAIN_SRC = "input A(n, n); B := A * A; C := A * B; output C;"
SHARDED = MaintenancePlan("INCR", backend="dense", mode="codegen", nodes=2)


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
            assert isinstance(session, ShardedSession)
            # Two nodes: the coordinator and one spawned worker.
            assert alive_during_evaluation == [1]
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
            ShardedSession(program, {"A": _operator(32)}, nodes=2)
        assert spawned == [1]
        assert _shard_workers() == []

    def test_unconvertible_input_stops_the_workers(self, no_leak):
        # Square by shape, so it passes the pre-spawn check and fails
        # in the store's float64 conversion, after the spawn.
        program = parse_program(CHAIN_SRC)
        with pytest.raises(ValueError):
            ShardedSession(program, {"A": np.full((8, 8), "x")},
                                nodes=2)
        assert _shard_workers() == []

    @pytest.mark.parametrize("inputs, message", [
        ({"A": np.ones((16, 8))}, "square inputs"),
        ({"A": np.ones(16)}, "square inputs"),
        ({}, "missing initial values"),
    ])
    def test_bad_input_leaves_nothing_behind(self, inputs, message, no_leak):
        program = parse_program(CHAIN_SRC)
        with pytest.raises(ValueError, match=message):
            ShardedSession(program, inputs, nodes=2)
        assert _shard_workers() == []

    def test_non_finite_input_raises_before_any_spawn(self, monkeypatch,
                                                      no_leak):
        from repro.runtime import InvalidUpdateError

        spawned = []
        monkeypatch.setattr(ProcessCluster, "_spawn_worker",
                            lambda self, worker: spawned.append(worker))
        a = _operator(32)
        a[3, 5] = np.inf
        with pytest.raises(InvalidUpdateError, match="initial value of 'A'"):
            open_session(parse_program(CHAIN_SRC), {"A": a}, plan=SHARDED,
                         batch="off")
        assert spawned == []
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


class TestLeanOpen:
    """The open does each job once: one scan of the inputs, one copy of
    each into its segment, each view computed in its own."""

    def test_inputs_are_scanned_once_before_the_spawn(self, monkeypatch,
                                                      no_leak):
        import repro.runtime.session as session_module
        import repro.runtime.sharded_session as sharded_module

        scans = []
        scan = session_module.validate_finite_inputs

        def counted(inputs, names):
            scans.append(len(_shard_workers()))
            scan(inputs, names)

        # The sharded constructor scans; the session it builds on must not.
        for module in (session_module, sharded_module):
            monkeypatch.setattr(module, "validate_finite_inputs", counted)
        a = _operator(32)
        with open_session(parse_program(CHAIN_SRC), {"A": a}, plan=SHARDED,
                          batch="off") as session:
            assert isinstance(session, ShardedSession)
            assert np.array_equal(session["A"], a)
        assert scans == [0]

    def test_open_allocates_no_private_view(self, no_leak):
        """At n = 256 one view is 524,288 bytes: the inputs land in their
        segments and the views are computed in theirs, so nothing
        traced comes near one (the untraced segments hold them all)."""
        program = parse_program("input A(n, n); B := A * A; C := B * B; "
                                "output C;")
        options = {"plan": "incr", "nodes": (2,), "batch": "off",
                   "partition": "uniform"}
        # Imports and compiled lists first: what is measured is the open.
        open_session(program, {"A": _operator(64)}, **options).close()
        n = 256
        a = _operator(n)
        tracemalloc.start()
        try:
            session = open_session(program, {"A": a}, **options)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with session:
            assert isinstance(session, ShardedSession)
            assert peak < n * n * 8
            for name in ("A", "B", "C"):
                assert session[name] is session.engine.get(name)
            assert np.array_equal(session["C"], (a @ a) @ (a @ a))


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
        assert calls == [1, 2]   # node 0 is the coordinator, never spawned
        assert _shard_workers() == []


def _run_script(path, *args) -> subprocess.CompletedProcess:
    """Run ``path`` as a program of its own, this tree's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(os.path.dirname(__file__), os.pardir,
                                   "src"),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(path), *map(str, args)],
                          capture_output=True, text=True, env=env,
                          timeout=120)


UNGUARDED_SCRIPT = textwrap.dedent("""
    import sys

    with open(sys.argv[1], "a") as marker:
        marker.write("top level ran\\n")

    import numpy as np
    from repro.frontend import parse_program
    from repro.planner import MaintenancePlan
    from repro.runtime import FactoredUpdate, open_session

    program = parse_program("input A(n, n); B := A * A; output B;")
    plan = MaintenancePlan("INCR", backend="dense", mode="interpret", nodes=2)
    a = np.eye(16)
    u, v = np.zeros((16, 1)), np.ones((16, 1))
    u[2] = 0.5
    session = open_session(program, {"A": a.copy()}, plan=plan, batch="off",
                           supervise=True)
    session.apply_update(FactoredUpdate("A", u, v))
    session.engine.cluster.kill_worker(1)
    session.apply_update(FactoredUpdate("A", u, v))
    assert len(session.recoveries) == 1, session.recoveries
    want = a + 2 * (u @ v.T)
    np.testing.assert_allclose(session["B"], want @ want, rtol=1e-9,
                               atol=1e-12)
    session.close()
""")

SCIPY_LAUNCHER = textwrap.dedent("""
    import json
    import multiprocessing

    import scipy.linalg
    import scipy.sparse

    from repro.distributed import ProcessCluster, RowShardPartitioner


    def shard_workers():
        return sorted((child.name, child.pid)
                      for child in multiprocessing.active_children())


    cluster = ProcessCluster(RowShardPartitioner(16, 2, tile_rows=4))
    cluster.ping()  # every worker has finished booting
    workers = shard_workers()
    scipy_objects = []
    for _, pid in workers:
        with open(f"/proc/{pid}/maps") as maps:
            # The package's directories: NumPy's own BLAS is a
            # ``numpy.libs/libscipy_openblas*`` file.
            scipy_objects += [line.split()[-1] for line in maps
                              if "/scipy/" in line or "/scipy.libs/" in line]
    cluster.close()
    print(json.dumps({"open": [name for name, _ in workers],
                      "closed": shard_workers(),
                      "scipy_objects": sorted(set(scipy_objects))}))
""")


class TestUnguardedScript:
    """A worker's entry is ``_worker_main``, never the launching program."""

    def test_top_level_session_runs_and_the_script_executes_once(
            self, tmp_path):
        script = tmp_path / "unguarded.py"
        script.write_text(UNGUARDED_SCRIPT)
        marker = tmp_path / "marker.txt"
        proc = _run_script(script, marker)
        assert proc.returncode == 0, proc.stderr
        # One first spawn and one supervised respawn later.
        assert marker.read_text().splitlines() == ["top level ran"]

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/<pid>/maps")
    def test_worker_maps_nothing_the_launcher_imported(self, tmp_path):
        pytest.importorskip("scipy")
        script = tmp_path / "scipy_launcher.py"
        script.write_text(SCIPY_LAUNCHER)
        proc = _run_script(script)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["open"] == ["repro-shard-1"]
        assert report["closed"] == []
        assert report["scipy_objects"] == []

    def test_death_before_the_first_reply_names_the_exit_code(self, no_leak):
        cluster = ProcessCluster(RowShardPartitioner(16, 2, tile_rows=4))
        cluster.kill_worker(1)
        with pytest.raises(WorkerFailedError) as failure:
            cluster.ping()
        assert failure.value.worker == 1
        assert "exited with code 17 before its first reply" in str(
            failure.value)
        assert "__main__" not in str(failure.value)
        assert _shard_workers() == []


class TestConcurrentSpawn:
    def test_two_threads_leave_process_globals_as_they_found_them(
            self, monkeypatch, no_leak):
        """A spawn borrows ``os.environ`` and ``sys.modules["__main__"]``;
        unserialized, one thread saves what the other set and restores
        that for good."""
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        environ, main = dict(os.environ), sys.modules["__main__"]
        threads = 3  # more than this box has cores
        barrier = threading.Barrier(threads)
        clusters, errors = [], []

        def spawn():
            try:
                barrier.wait(timeout=30)
                clusters.append(
                    ProcessCluster(RowShardPartitioner(8, 2, tile_rows=4)))
            except Exception as error:  # a thread cannot raise to pytest
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=spawn) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            stuck = [thread for thread in pool if thread.is_alive()]
        finally:
            sys.setswitchinterval(interval)
        try:
            assert not stuck and not errors, errors
            assert dict(os.environ) == environ
            assert sys.modules["__main__"] is main
            assert len(_shard_workers()) == threads   # one worker each
            for cluster in clusters:
                cluster.ping()
        finally:
            for cluster in clusters:
                cluster.close()


class TestSessionLifetime:
    """``nodes=N`` is a budget: whatever comes back closes the same way."""

    def test_single_process_session_closes_and_stays_usable(self):
        program = parse_program(CHAIN_SRC)
        a = _operator(16)
        with open_session(program, {"A": a.copy()}, nodes=2) as session:
            assert not isinstance(session, ShardedSession)
        session.close()
        session.apply_update(_update(16))
        assert session.update_count == 1

    @pytest.mark.parametrize("wrap", [{"drift": True}, {"replan": True}])
    def test_monitors_forward_the_context_manager(self, wrap, no_leak):
        program = parse_program(CHAIN_SRC)
        with open_session(program, {"A": _operator(32)}, plan=SHARDED,
                          batch="off", **wrap) as monitor:
            assert isinstance(monitor.session, ShardedSession)
            assert len(_shard_workers()) == 1
        assert _shard_workers() == []
        monitor.close()
