"""Online re-planning: state conversion, plan switching, ReplanMonitor."""

import numpy as np
import pytest

from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    ReevalSession,
    ReplanMonitor,
    ViewStore,
    open_session,
)

A2_SOURCE = "input A(n, n); B := A * A; output B;"


def fill_updates(rng, n, count, fill=0.5, scale=0.05):
    """The shared fill-in stream as session events targeting ``A``."""
    from stream_helpers import fillin_factors

    return [FactoredUpdate("A", u, v)
            for u, v in fillin_factors(rng, n, count, fill, scale)]


def sparse_input(rng, n, density):
    return (rng.random((n, n)) < density) * (0.05 * rng.standard_normal((n, n)))


class TestViewStoreConverted:
    def test_dense_to_sparse_and_back(self, rng):
        pytest.importorskip("scipy")
        store = ViewStore({"n": 96}, backend="dense")
        low = sparse_input(rng, 96, 0.02)
        full = rng.standard_normal((96, 96))
        store.set("A", low)
        store.set("B", full)

        sparse = store.converted("sparse")
        assert not isinstance(sparse.get("A"), np.ndarray)  # CSR now
        assert isinstance(sparse.get("B"), np.ndarray)      # stays dense
        assert sparse.dims == store.dims

        back = sparse.converted("dense")
        np.testing.assert_allclose(back.get("A"), low)
        np.testing.assert_allclose(back.get("B"), full)

    def test_conversion_is_not_evaluation(self, rng):
        # Values carry over verbatim even if they are inconsistent with
        # any program — conversion must never recompute.
        store = ViewStore(backend="dense")
        store.set("X", np.full((4, 4), 7.0))
        assert float(store.converted("dense").get("X")[0, 0]) == 7.0


class TestWithPlan:
    def make_session(self, rng, n=64, density=0.03):
        pytest.importorskip("scipy")
        program = parse_program(A2_SOURCE)
        return IVMSession(program, {"A": sparse_input(rng, n, density)},
                          dims={"n": n}, backend="sparse"), program

    def test_backend_flip_preserves_state_and_counts(self, rng):
        pytest.importorskip("scipy")
        session, _ = self.make_session(rng)
        for update in fill_updates(rng, 64, 5):
            session.apply_update(update)
        before = session.output().copy()

        switched = session.with_plan(
            MaintenancePlan("INCR", backend="dense", mode="codegen"))
        assert switched.backend.name == "dense"
        assert switched.update_count == session.update_count
        np.testing.assert_allclose(switched.output(), before, atol=1e-12)

    def test_switched_session_keeps_maintaining_correctly(self, rng):
        pytest.importorskip("scipy")
        session, program = self.make_session(rng)
        stream = fill_updates(rng, 64, 12)
        for update in stream[:6]:
            session.apply_update(update)
        switched = session.with_plan(
            MaintenancePlan("INCR", backend="dense", mode="interpret"))
        for update in stream[6:]:
            switched.apply_update(update)
        expected = switched["A"] @ switched["A"]
        np.testing.assert_allclose(switched.output(), expected, atol=1e-9)

    def test_strategy_switch_to_reeval(self, rng):
        session, _ = self.make_session(rng)
        switched = session.with_plan(MaintenancePlan("REEVAL"))
        assert isinstance(switched, ReevalSession)
        update = fill_updates(rng, 64, 1)[0]
        switched.apply_update(update)
        expected = switched["A"] @ switched["A"]
        np.testing.assert_allclose(switched.output(), expected, atol=1e-9)

    def test_hybrid_rejected(self, rng):
        session, _ = self.make_session(rng)
        with pytest.raises(ValueError, match="HYBRID"):
            session.with_plan(MaintenancePlan("HYBRID"))


class TestReplanMonitor:
    def test_fillin_flips_sparse_to_dense_without_rebuild(self, rng):
        """The tentpole scenario: density drift swaps the backend."""
        pytest.importorskip("scipy")
        n = 128
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": sparse_input(rng, n, 0.01)}, dims={"n": n},
            refresh_count=80, replan={"check_every": 5},
        )
        assert isinstance(monitor, ReplanMonitor)
        assert monitor.plan.backend == "sparse"

        for update in fill_updates(rng, n, 60):
            monitor.apply_update(update)

        assert monitor.switch_count >= 1
        assert monitor.session.backend.name == "dense"
        assert monitor.plan.backend == "dense"
        switch = next(e for e in monitor.replans if e.switched)
        assert "sparse" in switch.from_label and "dense" in switch.to_label
        assert switch.predicted_saving > switch.switch_cost
        assert switch.seconds_per_update > 0.0
        # State was converted, never rebuilt: the maintained view still
        # matches recomputation from the maintained input exactly.
        expected = monitor["A"] @ monitor["A"]
        np.testing.assert_allclose(monitor.output(), expected, atol=1e-9)
        assert monitor.refreshes == 60
        assert monitor.update_count == 60  # carried across the switch

    def test_stable_workload_never_switches(self, rng):
        n = 64
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": rng.standard_normal((n, n)) / n}, dims={"n": n},
            refresh_count=40, replan={"check_every": 5},
        )
        for update in fill_updates(rng, n, 20, fill=0.02):
            monitor.apply_update(update)
        assert monitor.switch_count == 0

    def test_switch_margin_hysteresis(self, rng):
        # An enormous margin requirement blocks otherwise-justified
        # switches; the event is still recorded as considered.
        pytest.importorskip("scipy")
        n = 128
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": sparse_input(rng, n, 0.01)}, dims={"n": n},
            refresh_count=80,
            replan={"check_every": 5, "switch_margin": 1e12},
        )
        for update in fill_updates(rng, n, 60):
            monitor.apply_update(update)
        assert monitor.switch_count == 0
        assert any(not e.switched for e in monitor.replans)

    def test_option_validation(self, rng):
        n = 16
        program = parse_program(A2_SOURCE)
        session = open_session(program, {"A": np.eye(n)}, dims={"n": n})
        with pytest.raises(ValueError, match="switch_margin"):
            ReplanMonitor(session, switch_margin=0.0)
        with pytest.raises(ValueError, match="probe_every"):
            ReplanMonitor(session, probe_every=0)

    def test_drift_options_fold_into_probe_schedule(self, rng):
        n = 32
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": rng.standard_normal((n, n)) / n}, dims={"n": n},
            plan="incr", replan={"check_every": 50},
            drift={"check_every": 4, "tolerance": 1e-30, "action": "raise"},
        )
        assert monitor.probe_every == 4
        assert monitor.tolerance == 1e-30
        from repro.runtime import DriftExceededError

        with pytest.raises(DriftExceededError):
            for update in fill_updates(rng, n, 8):
                monitor.apply_update(update)

    def test_manual_replan_reports_current_best(self, rng):
        n = 64
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": rng.standard_normal((n, n)) / n}, dims={"n": n},
            replan=True,
        )
        for update in fill_updates(rng, n, 3, fill=0.02):
            monitor.apply_update(update)
        # Current plan already the winner -> no event.
        assert monitor.replan() is None


class TestCalibratedSwitchCost:
    """PR 4: the replan switch-cost constant comes from calibration."""

    def _monitor(self, rng, calibration):
        pytest.importorskip("scipy")
        n = 96
        program = parse_program(A2_SOURCE)
        # Fixed seed: switch-cost comparisons across monitors need
        # byte-identical state.
        fixed = np.random.default_rng(20140622)
        return open_session(
            program, {"A": sparse_input(fixed, n, 0.02)}, dims={"n": n},
            refresh_count=50,
            replan={"check_every": 10, "calibration": calibration},
        )

    def test_class_default_reproduces_fixed_constant(self, rng):
        from repro.backends import Backend

        monitor = self._monitor(rng, calibration=None)
        old = monitor.session.backend
        views = monitor.session.views
        entries = 0.0
        for name in views.names():
            arr = views.get(name)
            shape = old.shape(arr)
            density = old.density(arr)
            entries += old.est_entries(shape, density)
            from repro.backends import get_backend

            entries += get_backend("dense").est_entries(shape, density)
        # Shipped est_convert_passes_per_entry is 2.0 per side — the
        # pre-calibration constant 2.0 * (old + new entries).
        assert Backend.est_convert_passes_per_entry == 2.0
        assert monitor._switch_cost("dense") == pytest.approx(2.0 * entries)

    def test_calibrated_passes_scale_the_switch_cost(self, rng):
        from repro.calibrate import BackendCalibration, Calibration, cache_key

        def with_passes(passes):
            return Calibration(key=cache_key(), backends={
                name: BackendCalibration(
                    backend=name, flops_per_second=1e10,
                    call_overhead_flops=10_000.0,
                    convert_passes_per_entry=passes,
                )
                for name in ("dense", "sparse")
            })

        monitor_cheap = self._monitor(rng, calibration=with_passes(1.0))
        monitor_dear = self._monitor(rng, calibration=with_passes(10.0))
        cheap = monitor_cheap._switch_cost("dense")
        dear = monitor_dear._switch_cost("dense")
        assert dear == pytest.approx(10.0 * cheap)

    def test_same_backend_switch_stays_call_priced(self, rng):
        monitor = self._monitor(rng, calibration=None)
        cost = monitor._switch_cost(monitor.session.backend.name)
        assert cost == 8.0 * monitor.session.backend.est_call_overhead_flops


class TestCheckDisturbsNothing:
    """A check that neither switches nor re-tunes leaves the session as
    it found it; one that switches still lands pending deltas first."""

    def test_quiescent_checks_flush_nothing_and_keep_the_policy(self, rng):
        from stream_helpers import zipf_row_updates

        from repro.planner import StreamSketch

        n, checks, check_every, read_every = 96, 20, 50, 37
        program = parse_program(A2_SOURCE)
        a0 = 0.1 * rng.standard_normal((n, n))
        updates = zipf_row_updates(rng, n, checks * check_every, 1.5)
        options = dict(dims={"n": n}, plan="incr", batch="off",
                       partition="heavy-light", heavy_budget=8,
                       refresh_count=4 * len(updates))
        monitor = open_session(program, {"A": a0.copy()},
                               replan={"check_every": check_every}, **options)
        plain = open_session(program, {"A": a0.copy()}, **options)
        # Both policies read a sketch fed from outside, in one order
        # (the monitor observes each update after applying it).
        plain_sketch = StreamSketch()
        for session, sketch in ((monitor.session, monitor.stream_sketch),
                                (plain, plain_sketch)):
            session.set_partition("heavy-light", heavy_budget=8,
                                  sketch=sketch, observe=False)
        policy, session = monitor.session.deferral, monitor.session
        for index, update in enumerate(updates, start=1):
            monitor.apply_update(update)
            plain.apply_update(update)
            plain_sketch.observe(update)
            if index % check_every == 0:
                assert monitor.session.deferral is policy
                assert policy.pending > 0
            # No flush is the check's: fold for fold, the monitored
            # policy does what the unmonitored one does.
            assert policy.stats.folds == plain.deferral.stats.folds
            assert policy.pending == plain.deferral.pending
            if index % read_every == 0:
                assert np.array_equal(monitor["B"], plain["B"])
                assert np.array_equal(monitor["A"], plain["A"])
        assert len(monitor.replans) == monitor.switch_count == 0
        assert monitor.session is session
        assert monitor.refreshes // check_every == checks
        assert policy.stats.retunes == plain.deferral.stats.retunes > 0

    def test_a_retune_that_changes_the_policy_flushes_first(self, rng):
        from stream_helpers import zipf_row_updates

        n = 64
        program = parse_program(A2_SOURCE)
        monitor = open_session(
            program, {"A": 0.1 * rng.standard_normal((n, n))}, dims={"n": n},
            plan="incr", batch=6, partition="auto", refresh_count=4000,
            replan={"check_every": 10})
        before = monitor.session.deferral
        for update in zipf_row_updates(rng, n, 10, 3.0):
            monitor.apply_update(update)
        # 10 updates at width 6: four were pending when the check ran;
        # it switched the split on, so they landed first.
        assert monitor.session.partition == "heavy-light"
        assert monitor.session.deferral is not before
        assert before.pending == 0 and before.stats.flushes == 2
        np.testing.assert_allclose(
            monitor.session.views.get_dense("B"),
            monitor.session.views.get_dense("A")
            @ monitor.session.views.get_dense("A"), atol=1e-9)

    def test_running_backend_is_priced_after_it_stops_being_admissible(
            self, rng):
        """Fill-in drives a sparse session's input past the entry rule:
        the default grid would drop the sparse cell, the monitor names
        it, sees it lose and switches — landing the pending batch
        before the state converts."""
        pytest.importorskip("scipy")
        from repro.backends import SPARSIFY_BELOW, admissible_backends
        from repro.planner import WorkloadStats

        n = 128
        program = parse_program(A2_SOURCE)
        # A margin no saving meets holds the session on sparse while
        # its input fills in past the rule.
        monitor = open_session(
            program, {"A": sparse_input(rng, n, 0.01)}, dims={"n": n},
            refresh_count=80, batch=3,
            replan={"check_every": 5, "switch_margin": 1e12},
        )
        assert monitor.plan.backend == "sparse"
        oracle = monitor["A"].copy()
        stream = fill_updates(rng, n, 40)
        for update in stream[:30]:
            monitor.apply_update(update)
            oracle += update.u_block @ update.v_block.T
        stored = monitor.session.views.get("A")
        density = WorkloadStats.measure_density(stored)
        assert density > SPARSIFY_BELOW
        assert admissible_backends([(n, n, density)]) == ["dense"]
        # ... and its own cell was still priced at every check.
        assert monitor.switch_count == 0 and len(monitor.replans) == 6
        assert all("@sparse" in event.from_label for event in monitor.replans)
        monitor.switch_margin = 2.0
        for update in stream[30:]:
            monitor.apply_update(update)
            oracle += update.u_block @ update.v_block.T
        assert monitor.switch_count == 1
        assert monitor.session.backend.name == "dense"
        # Two of every five updates were pending at the check that
        # switched: they landed before the state converted.
        np.testing.assert_allclose(monitor["A"], oracle, atol=1e-12)
        np.testing.assert_allclose(monitor.output(), oracle @ oracle,
                                   atol=1e-9)
