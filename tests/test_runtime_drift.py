"""Drift monitoring policies for long-lived incremental views."""

import numpy as np
import pytest

from repro.analytics import make_ols
from repro.iterative import Model, make_sums
from repro.runtime import FactoredUpdate
from repro.runtime.drift import DriftExceededError, DriftMonitor, DriftReport
from repro.workloads import well_conditioned_design


class WalkCountMaintainer:
    """Weighted walk counts ``I + A + ... + A^{k-1}`` with a drift probe.

    The reachability building block as a :class:`DriftMonitor` subject:
    ``refresh`` repairs the maintained sums view incrementally while the
    ground-truth operator is tracked alongside, and ``revalidate``
    recomputes the sum from that operator — so the probe measures the
    *genuine* floating-point drift incremental maintenance accumulates,
    not a scripted value.
    """

    def __init__(self, a: np.ndarray, k: int):
        self.a = np.array(a, dtype=np.float64)
        self.k = k
        self._sums = make_sums("INCR", self.a, k, Model.linear())

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        self.a += u @ v.T
        self._sums.refresh(u, v)

    def result(self) -> np.ndarray:
        return self._sums.result()

    def revalidate(self) -> float:
        expected = np.eye(self.a.shape[0])
        power = np.eye(self.a.shape[0])
        for _ in range(1, self.k):
            power = self.a @ power
            expected = expected + power
        return float(np.max(np.abs(expected - self.result())))


def fillin_updates(n, count, fill=0.5, scale=0.05, seed=11):
    """Seeded wrapper over the shared fill-in stream generator."""
    from stream_helpers import fillin_factors

    return fillin_factors(np.random.default_rng(seed), n, count, fill, scale)


class FakeMaintainer:
    """Scripted drift values for policy tests."""

    def __init__(self, drifts):
        self.drifts = list(drifts)
        self.refresh_calls = 0

    def refresh(self, u, v):
        self.refresh_calls += 1

    def revalidate(self):
        return self.drifts.pop(0)

    def result(self):
        return "sentinel"


def updates(n, count, scale=0.01, seed=0):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        u = np.zeros((n, 1))
        u[int(rng.integers(n)), 0] = 1.0
        yield u, scale * rng.standard_normal((n, 1))


class TestSchedule:
    def test_probe_every_n_refreshes(self):
        fake = FakeMaintainer([1e-12, 1e-12])
        monitor = DriftMonitor(fake, check_every=3)
        for u, v in updates(4, 6):
            monitor.refresh(u, v)
        assert len(monitor.reports) == 2
        assert fake.refresh_calls == 6

    def test_no_probe_before_schedule(self):
        fake = FakeMaintainer([])
        monitor = DriftMonitor(fake, check_every=10)
        for u, v in updates(4, 9):
            monitor.refresh(u, v)
        assert monitor.reports == []
        assert monitor.last_drift is None

    def test_manual_probe(self):
        fake = FakeMaintainer([4.2e-9])
        monitor = DriftMonitor(fake, check_every=1000)
        report = monitor.probe()
        assert report == DriftReport(0, 4.2e-9, False)
        assert monitor.last_drift == 4.2e-9


class TestRaisePolicy:
    def test_raises_past_tolerance(self):
        fake = FakeMaintainer([1e-3])
        monitor = DriftMonitor(fake, check_every=1, tolerance=1e-6)
        u, v = next(updates(4, 1))
        with pytest.raises(DriftExceededError) as excinfo:
            monitor.refresh(u, v)
        assert excinfo.value.drift == 1e-3
        assert excinfo.value.refreshes == 1

    def test_within_tolerance_is_silent(self):
        fake = FakeMaintainer([1e-9, 1e-8])
        monitor = DriftMonitor(fake, check_every=1, tolerance=1e-6)
        for u, v in updates(4, 2):
            monitor.refresh(u, v)
        assert monitor.rebuild_count == 0


class TestRebuildPolicy:
    def test_rebuild_replaces_maintainer(self):
        first = FakeMaintainer([5.0])
        second = FakeMaintainer([])
        monitor = DriftMonitor(first, check_every=1, tolerance=1e-6,
                               action="rebuild", rebuild=lambda: second)
        u, v = next(updates(4, 1))
        monitor.refresh(u, v)
        assert monitor.maintainer is second
        assert monitor.rebuild_count == 1

    def test_rebuild_requires_callable(self):
        with pytest.raises(ValueError, match="needs a rebuild"):
            DriftMonitor(FakeMaintainer([]), action="rebuild")


class TestValidation:
    def test_bad_parameters_rejected(self):
        fake = FakeMaintainer([])
        with pytest.raises(ValueError, match="check_every"):
            DriftMonitor(fake, check_every=0)
        with pytest.raises(ValueError, match="tolerance"):
            DriftMonitor(fake, tolerance=0.0)
        with pytest.raises(ValueError, match="unknown action"):
            DriftMonitor(fake, action="pray")

    def test_attribute_delegation(self):
        monitor = DriftMonitor(FakeMaintainer([]))
        assert monitor.result() == "sentinel"


class TestGenuineDrift:
    """Policies exercised by *real* accumulated drift, not scripted probes."""

    def test_raise_policy_trips_on_fillin_stream(self, rng):
        n = 48
        a = (rng.random((n, n)) < 0.05) * (0.05 * rng.standard_normal((n, n)))
        maintainer = WalkCountMaintainer(a, k=6)
        monitor = DriftMonitor(maintainer, check_every=8, tolerance=1e-15,
                               action="raise")
        # Fill-in drives the views through wildly varying magnitudes, so
        # factored repair and recomputation round differently: genuine
        # drift accumulates and the policy must eventually trip.
        with pytest.raises(DriftExceededError) as excinfo:
            for u, v in fillin_updates(n, 96):
                monitor.refresh(u, v)
        assert excinfo.value.drift > 1e-15
        assert excinfo.value.refreshes % 8 == 0
        assert monitor.last_drift == excinfo.value.drift

    def test_raise_policy_stays_quiet_at_honest_tolerance(self, rng):
        n = 48
        a = (rng.random((n, n)) < 0.05) * (0.05 * rng.standard_normal((n, n)))
        monitor = DriftMonitor(WalkCountMaintainer(a, k=6), check_every=8,
                               tolerance=1e-6, action="raise")
        for u, v in fillin_updates(n, 96):
            monitor.refresh(u, v)
        assert monitor.reports and all(r.drift <= 1e-6
                                       for r in monitor.reports)

    def test_session_rebuild_path_under_fillin(self, rng):
        from repro.frontend import parse_program
        from repro.runtime import FactoredUpdate, open_session

        # A^4 at a larger update scale: drift compounds through the
        # chained views, comfortably clearing the probe tolerance while
        # staying far below anything a user-facing tolerance would trip.
        n = 64
        program = parse_program(
            "input A(n, n); B := A * A; C := B * B; output C;")
        a = (rng.random((n, n)) < 0.05) * (0.2 * rng.standard_normal((n, n)))
        monitor = open_session(
            program, {"A": a}, dims={"n": n}, plan="incr",
            drift={"check_every": 8, "tolerance": 1e-17, "action": "rebuild"},
        )
        for u, v in fillin_updates(n, 96, scale=0.2):
            monitor.apply_update(FactoredUpdate("A", u, v))
        # Genuine drift exceeded the (absurdly tight) tolerance at least
        # once; every rebuild restored exact agreement with the inputs.
        assert monitor.rebuild_count >= 1
        assert monitor.revalidate() == 0.0
        expected = np.linalg.matrix_power(monitor["A"], 4)
        np.testing.assert_allclose(monitor.output(), expected, atol=1e-12)


class TestWithRealMaintainer:
    """The Section 5.1 OLS program, monitored through ``make_ols``."""

    @staticmethod
    def _stream(n, count, seed):
        return [FactoredUpdate("X", u, v)
                for u, v in updates(n, count, seed=seed)]

    def test_ols_stays_within_tolerance(self, rng):
        n = 48
        x = well_conditioned_design(rng, n, n, ridge=2.0)
        y = rng.standard_normal((n, 1))
        monitor = make_ols(x, y, plan="incr", batch="off",
                           drift={"check_every": 25, "tolerance": 1e-6})
        monitor.apply_updates(self._stream(n, 100, seed=3))
        assert len(monitor.reports) == 4
        assert all(r.drift < 1e-6 for r in monitor.reports)

    def test_ols_rebuild_policy_end_to_end(self, rng):
        # A tolerance so tight that any float noise trips it: the
        # monitor must rebuild (every view re-evaluated from the
        # maintained X/Y) and keep serving.
        n = 32
        x = well_conditioned_design(rng, n, n, ridge=2.0)
        y = rng.standard_normal((n, 1))
        monitor = make_ols(x, y, plan="incr", batch="off",
                           drift={"check_every": 10, "tolerance": 1e-16,
                                  "action": "rebuild"})
        monitor.apply_updates(self._stream(n, 40, seed=5))
        assert monitor.rebuild_count >= 1
        # After rebuilding, the served beta matches ground truth.
        x, y = monitor["X"], monitor["Y"]
        expected = np.linalg.solve(x.T @ x, x.T @ y)
        np.testing.assert_allclose(monitor["beta"], expected, atol=1e-6)
