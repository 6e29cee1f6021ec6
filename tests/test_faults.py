"""Chaos suite: every injected fault ends in exact recovery or a typed
error — never a hang, never silent corruption.

Fault taxonomy exercised here (docs/fault-model.md):

* malformed updates   → :class:`InvalidUpdateError` *before* any state
  is touched (the session boundary is the validation line);
* shm exhaustion      → typed :class:`SharedMemoryBudgetError`, and
  ``open_session`` degrades to a single-process plan with a warning;
* worker kill/hang    → supervised clusters recover **bitwise**
  (respawn + reseed + oplog replay); unsupervised sharded sessions
  fall back to a single-process engine via the backend's apply log;
* torn input          → no consistent basis on any path: a typed
  re-raise pointing at checkpoint restore (tested in
  ``test_checkpoint.py`` that the checkpoint actually has it).

Process-spawning tests keep ``n`` small; spawn dominates their cost.
"""

from __future__ import annotations

import dataclasses
import errno
import os
import warnings

import numpy as np
import pytest

from repro.compiler import Program, Statement
from repro.distributed.shm import SharedArray, SharedMemoryBudgetError
from repro.expr.ast import MatrixSymbol, matmul
from repro.planner import plan_program
from repro.runtime.session import open_session
from repro.runtime.sharded_session import ShardedSession
from repro.runtime.updates import FactoredUpdate, InvalidUpdateError
from repro.testing import faults
from stream_helpers import POWER_CHAIN, shard_session


def chain_program(n: int) -> Program:
    a = MatrixSymbol("A", n, n)
    p2 = MatrixSymbol("P2", n, n)
    p3 = MatrixSymbol("P3", n, n)
    return Program([a], [Statement(p2, matmul(a, a)),
                         Statement(p3, matmul(a, p2))], outputs=("P3",))


def operator(n: int, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return 0.4 * rng.standard_normal((n, n)) / np.sqrt(n)


def stream(n: int, count: int, seed: int = 5):
    rng = np.random.default_rng(seed)
    return [
        FactoredUpdate("A", 0.01 * rng.standard_normal((n, 1)),
                       rng.standard_normal((n, 1)))
        for _ in range(count)
    ]


def sharded_plan(program, inputs, nodes: int = 2):
    """A guaranteed-sharded plan (the planner won't pick one at test n)."""
    return dataclasses.replace(
        plan_program(program, inputs), nodes=nodes,
        batch_size=1, partition="uniform")


class TestInjector:
    def test_fires_in_occurrence_window(self):
        with faults.inject_faults() as injector:
            injector.inject("demo", at=2, times=2)
            outcomes = []
            for _ in range(6):
                try:
                    faults.fire("demo")
                    outcomes.append("ok")
                except faults.InjectedFaultError:
                    outcomes.append("boom")
        assert outcomes == ["ok", "ok", "boom", "boom", "ok", "ok"]
        assert injector.count("demo") == 6
        assert len(injector.fired) == 2

    def test_action_can_replace_the_value(self):
        with faults.inject_faults() as injector:
            injector.inject("demo", lambda value, **ctx: value[:2])
            assert faults.fire("demo", b"abcdef") == b"ab"
            assert faults.fire("demo", b"abcdef") == b"abcdef"

    def test_counts_hits_even_unarmed(self):
        with faults.inject_faults() as injector:
            faults.fire("quiet.site")
            assert injector.count("quiet.site") == 1
            assert injector.fired == []

    def test_noop_outside_context(self):
        assert faults.fire("anything", b"x") == b"x"
        assert faults.active_injector() is None

    def test_injectors_do_not_nest(self):
        with faults.inject_faults():
            with pytest.raises(RuntimeError, match="already armed"):
                with faults.inject_faults():
                    pass

    def test_truncate_fraction_validated(self):
        with pytest.raises(ValueError):
            faults.truncate_bytes(1.0)
        with pytest.raises(ValueError):
            faults.truncate_bytes(-0.1)

    def test_bad_window_rejected(self):
        with faults.inject_faults() as injector:
            with pytest.raises(ValueError):
                injector.inject("demo", at=-1)
            with pytest.raises(ValueError):
                injector.inject("demo", times=0)


class TestUpdateValidation:
    def make_session(self, n: int = 16):
        program = chain_program(n)
        return open_session(program, {"A": operator(n)}, batch="off")

    def test_nan_rejected_before_state_changes(self):
        session = self.make_session()
        before = {name: np.asarray(session[name]).copy()
                  for name in ("A", "P2", "P3")}
        bad = FactoredUpdate("A", np.full((16, 1), np.nan), np.ones((16, 1)))
        with pytest.raises(InvalidUpdateError, match="non-finite"):
            session.apply_update(bad)
        assert session.update_count == 0
        for name in before:
            assert np.array_equal(before[name], np.asarray(session[name]))

    def test_inf_rejected(self):
        session = self.make_session()
        bad = FactoredUpdate("A", np.ones((16, 1)),
                             np.full((16, 1), np.inf))
        with pytest.raises(InvalidUpdateError, match="non-finite"):
            session.apply_update(bad)

    def test_shape_mismatch_rejected(self):
        session = self.make_session()
        bad = FactoredUpdate("A", np.ones((17, 1)), np.ones((16, 1)))
        with pytest.raises(InvalidUpdateError, match="do not match"):
            session.apply_update(bad)
        assert session.update_count == 0

    def test_factor_width_disagreement_rejected_at_construction(self):
        with pytest.raises(InvalidUpdateError):
            FactoredUpdate("A", np.ones((8, 2)), np.ones((8, 3)))

    @pytest.mark.parametrize("plan", ["incr", "reeval", "catalog"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_input_rejected_at_open(self, plan, bad):
        from repro.catalog import ViewCatalog

        a = operator(16)
        a[0, 0] = bad
        where = ({"catalog": ViewCatalog()} if plan == "catalog"
                 else {"plan": plan})
        with pytest.raises(InvalidUpdateError, match="initial value of 'A'"):
            open_session(chain_program(16), {"A": a}, **where)

    def test_non_finite_sparse_input_rejected_at_open(self):
        sparse = pytest.importorskip("scipy.sparse")
        a = sparse.csr_matrix(operator(16))
        a.data[3] = np.nan
        with pytest.raises(InvalidUpdateError, match="initial value of 'A'"):
            open_session(chain_program(16), {"A": a}, backend="sparse")

    def test_finite_scan_holds_one_block_mask(self):
        """The scan's one temporary is a row block's mask, not an
        ``n x n`` one: at n = 1024 the call peaks under a block's mask
        plus bookkeeping, a sixteenth of the full mask."""
        import tracemalloc

        from repro.runtime.updates import (FINITE_SCAN_BLOCK,
                                           validate_finite_inputs)

        a = operator(1024)
        tracemalloc.start()
        try:
            validate_finite_inputs({"A": a}, ["A"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < FINITE_SCAN_BLOCK + 4096 <= a.size // 16 + 4096

    @pytest.mark.parametrize("row", [0, 63, 64, 1023])
    def test_finite_scan_names_the_first_bad_input(self, row):
        """Any block can hold the bad entry; the first input named that
        holds one is the one reported."""
        from repro.runtime.updates import validate_finite_inputs

        bad, worse = operator(1024), operator(1024)
        bad[row, 5] = np.nan
        worse[0, 0] = np.inf
        validate_finite_inputs({"A": operator(1024), "B": bad}, ["A"])
        for order, name in ((["A", "B"], "B"), (["B", "A"], "B"),
                            (["C", "A"], "C")):
            with pytest.raises(InvalidUpdateError,
                               match=f"initial value of '{name}'"):
                validate_finite_inputs(
                    {"A": operator(1024), "B": bad, "C": worse}, order)


class TestShmBudget:
    def test_create_raises_typed_error(self):
        with faults.inject_faults() as injector:
            injector.inject("shm.create", faults.shm_budget_exhausted())
            with pytest.raises(SharedMemoryBudgetError) as info:
                SharedArray.create((64, 64))
        assert info.value.nbytes == 64 * 64 * 8
        assert "shm" in str(info.value) or "shared-memory" in str(info.value)

    def test_open_session_degrades_to_single_process(self):
        n = 32
        program = chain_program(n)
        a0 = operator(n)
        plan = sharded_plan(program, {"A": a0})
        with faults.inject_faults() as injector:
            injector.inject("shm.create", faults.shm_budget_exhausted(),
                            times=10 ** 6)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                session = open_session(program, {"A": a0}, plan=plan,
                                       batch="off", partition="off")
        assert not isinstance(session, ShardedSession)
        assert session.plan.nodes == 1
        assert any("shared-memory budget" in str(w.message) for w in caught)
        # The degraded session maintains exactly like a planned-local one.
        oracle = open_session(program, {"A": a0}, plan=dataclasses.replace(
            plan, nodes=1), batch="off", partition="off")
        for update in stream(n, 6):
            session.apply_update(update)
            oracle.apply_update(update)
        for name in ("A", "P2", "P3"):
            assert np.array_equal(np.asarray(session[name]),
                                  np.asarray(oracle[name])), name


def _shm_fds() -> list[str]:
    """What this process's open descriptors in ``/dev/shm`` point at."""
    found = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            target = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            continue
        if target.startswith("/dev/shm/"):
            found.append(target)
    return found


class TestShmReservation:
    """A segment holds its pages from the start: a ``/dev/shm`` that
    cannot hold it fails the create, never a later write (a SIGBUS)."""

    def test_create_reserves_every_page(self):
        n = 64
        seg = SharedArray.create((n, n))
        try:
            assert os.fstat(seg.fd).st_blocks * 512 >= 8 * n * n
        finally:
            seg.close()

    def test_no_room_to_reserve_lands_on_the_fallback(self, monkeypatch):
        def full(fd, offset, length):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(os, "posix_fallocate", full)
        held = _shm_fds()
        with pytest.raises(SharedMemoryBudgetError) as info:
            SharedArray.create((64, 64))
        assert info.value.nbytes == 64 * 64 * 8
        assert _shm_fds() == held
        n = 32
        program = chain_program(n)
        a0 = operator(n)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            session = open_session(program, {"A": a0},
                                   plan=sharded_plan(program, {"A": a0}),
                                   batch="off", partition="off")
        assert not isinstance(session, ShardedSession)
        assert session.plan.nodes == 1
        assert any("shared-memory budget" in str(w.message) for w in caught)
        assert _shm_fds() == held


class TestSupervision:
    def run_chain(self, src, a0, updates, views, before=lambda i, s: None,
                  **engine):
        """Final ``views`` of ``src`` over ``a0`` after ``updates``."""
        with shard_session(src, {"A": a0}, **engine) as session:
            for index, update in enumerate(updates):
                before(index, session)
                session.apply_update(update)
            return ({name: np.array(session[name]) for name in views},
                    list(session.recoveries))

    def test_kill_and_hang_recover_bitwise(self):
        n = 32
        a0 = operator(n, seed=7)
        updates = stream(n, 12, seed=7)
        views = ("A", "P2", "P3")
        want, _ = self.run_chain(POWER_CHAIN, a0, updates, views,
                                 process=False)

        def sabotage(index, session):
            if index == 4:
                session.engine.cluster.kill_worker(1)
            if index == 8:
                session.engine.cluster.hang_worker(2, seconds=60.0)

        # Three nodes: node 0 is the coordinator, workers 1 and 2 fail.
        got, recoveries = self.run_chain(
            POWER_CHAIN, a0, updates, views, before=sabotage, nodes=3,
            supervise=True, timeout=3.0)
        for name in want:
            assert np.array_equal(want[name], got[name]), name
        assert len(recoveries) == 2
        assert {event.worker for event in recoveries} == {1, 2}
        assert all(event.replayed >= 1 for event in recoveries)
        assert all(event.attempts >= 1 for event in recoveries)
        assert all(event.reason for event in recoveries)

    def test_kill_via_injected_fault_seam(self):
        n = 32
        a0 = operator(n, seed=3)
        updates = stream(n, 6, seed=3)
        square = "input A(n, n); P2 := A * A; output P2;"
        want, _ = self.run_chain(square, a0, updates, ("P2",),
                                 process=False)
        with faults.inject_faults() as injector:
            injector.inject("cluster.roundtrip",
                            faults.kill_worker_at(1), at=9)
            got, recoveries = self.run_chain(
                square, a0, updates, ("P2",), supervise=True, timeout=3.0)
        assert injector.count("cluster.roundtrip") > 9
        assert len(recoveries) == 1 and recoveries[0].worker == 1
        assert np.array_equal(want["P2"], got["P2"])


def kill_on_add_lowrank(occurrence: int, worker: int = 1):
    """Action killing ``worker`` right before the Nth add_lowrank op."""
    seen = {"count": 0}

    def action(value, cluster=None, label=None, **context):
        if label == "add_lowrank":
            seen["count"] += 1
            if seen["count"] == occurrence:
                cluster.kill_worker(worker)

    return action


class TestReevalFallback:
    def run_faulted(self, action, n: int = 32, count: int = 6):
        """Open a sharded (unsupervised) session and drive updates with
        ``action`` armed on the roundtrip seam; return the session."""
        program = chain_program(n)
        a0 = operator(n)
        plan = sharded_plan(program, {"A": a0})
        session = open_session(program, {"A": a0}, plan=plan,
                               batch="off", partition="off")
        assert isinstance(session, ShardedSession)
        with faults.inject_faults() as injector:
            injector.inject("cluster.roundtrip", action, times=10 ** 6)
            for update in stream(n, count):
                session.apply_update(update)
        return session

    def oracle_views(self, n: int = 32, count: int = 6):
        program = chain_program(n)
        session = open_session(program, {"A": operator(n)},
                               batch="off", partition="off")
        for update in stream(n, count):
            session.apply_update(update)
        return {name: np.asarray(session[name]).copy()
                for name in ("A", "P2", "P3")}

    def test_kill_between_refreshes_replays(self):
        # Worker dies before the refresh touches anything: the whole
        # refresh reruns on the local engine — bitwise INCR arithmetic.
        kills = {"done": False}

        def kill_before_refresh(value, cluster=None, label=None, **context):
            if label == "mat_lowrank" and not kills["done"]:
                kills["done"] = True
                cluster.kill_worker(1)

        session = self.run_faulted(kill_before_refresh)
        assert len(session.fallback_events) == 1
        event = session.fallback_events[0]
        assert event["mode"] == "replay" and event["torn"] is None
        assert session.nodes == 1
        want = self.oracle_views()
        for name in want:
            assert np.allclose(want[name], np.asarray(session[name]),
                               rtol=1e-9, atol=1e-12), name
        # The session keeps maintaining single-process afterwards.
        session.apply_update(FactoredUpdate(
            "A", 0.001 * np.ones((32, 1)), np.ones((32, 1))))
        session.close()

    def test_kill_mid_derived_view_reevaluates(self):
        # The input absorbed its delta, P2 was mid-absorption: recovery
        # must re-evaluate the derived views from the consistent input.
        session = self.run_faulted(kill_on_add_lowrank(2))
        assert len(session.fallback_events) == 1
        event = session.fallback_events[0]
        assert event["mode"] == "reeval"
        assert event["torn"] == "P2"
        assert "A" in event["applied"]
        want = self.oracle_views()
        for name in want:
            assert np.allclose(want[name], np.asarray(session[name]),
                               rtol=1e-9, atol=1e-12), name
        session.close()

    def test_torn_input_is_a_typed_dead_end(self):
        # The input itself torn mid-absorption: no consistent basis
        # exists; the session must say so, not fabricate state.
        program = chain_program(32)
        a0 = operator(32)
        plan = sharded_plan(program, {"A": a0})
        session = open_session(program, {"A": a0}, plan=plan,
                               batch="off", partition="off")
        with faults.inject_faults() as injector:
            injector.inject("cluster.roundtrip", kill_on_add_lowrank(1),
                            times=10 ** 6)
            with pytest.raises(RuntimeError, match="restore from a"):
                for update in stream(32, 3):
                    session.apply_update(update)

    def test_recover_fail_mode_propagates(self):
        program = chain_program(32)
        a0 = operator(32)
        from repro.distributed import WorkerFailedError

        plan = sharded_plan(program, {"A": a0})
        session = open_session(program, {"A": a0}, plan=plan,
                               batch="off", partition="off")
        assert isinstance(session, ShardedSession)
        session.recover = "fail"
        session.engine.cluster.kill_worker(1)
        with pytest.raises(WorkerFailedError):
            session.apply_update(stream(32, 1)[0])
