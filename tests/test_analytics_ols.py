"""OLS analytics: the Section 5.1 program on a session, against
re-evaluation and lstsq."""

import numpy as np
import pytest

from repro.analytics import make_ols
from repro.cost import Counter
from repro.runtime import (FactoredUpdate, InvalidUpdateError,
                           SingularUpdateError)
from repro.workloads import regression_data, update_stream

VIEWS = ("X", "Z", "W", "C", "beta")
STRATEGIES = [("incr", "interpret"), ("incr", "codegen"),
              ("reeval", "interpret")]


def _updates(rng, m, n, count, scale=0.1):
    return list(update_stream(rng, "X", m, n, count, scale))


class TestCorrectness:
    def test_initial_estimate_matches_lstsq(self, rng):
        x, y, _ = regression_data(rng, 30, 8, 2)
        session = make_ols(x, y)
        expected = np.linalg.lstsq(x, y, rcond=None)[0]
        np.testing.assert_allclose(session["beta"], expected, atol=1e-8)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_stream_matches_reeval(self, mode, rng):
        x, y, _ = regression_data(rng, 25, 7, 2)
        incr = make_ols(x, y, plan="incr", mode=mode)
        reeval = make_ols(x, y, plan="reeval")
        updates = _updates(rng, 25, 7, 10)
        incr.apply_updates(updates)
        reeval.apply_updates(updates)
        for name in ("Z", "W", "C", "beta"):
            np.testing.assert_allclose(incr[name], reeval[name], rtol=1e-6,
                                       atol=1e-8, err_msg=name)

    def test_recovers_true_parameters(self, rng):
        x, y, beta_true = regression_data(rng, 200, 5, 1, noise=0.001)
        np.testing.assert_allclose(make_ols(x, y)["beta"], beta_true,
                                   atol=0.01)

    def test_long_stream_drift_bounded(self, rng):
        x, y, _ = regression_data(rng, 30, 6, 1)
        session = make_ols(x, y, plan="incr")
        session.apply_updates(_updates(rng, 30, 6, 100, scale=0.05))
        assert session.revalidate() < 1e-6

    def test_vector_y_normalized(self, rng):
        x, y, _ = regression_data(rng, 15, 5, 1)
        assert make_ols(x, y.reshape(-1))["beta"].shape == (5, 1)

    def test_sessions_share_one_compiled_program(self, rng):
        x, y, _ = regression_data(rng, 12, 4, 1)
        first = make_ols(x, y, plan="incr")
        assert make_ols(x, y, plan="incr").compiled is first.compiled

    @pytest.mark.parametrize("plan, mode", STRATEGIES)
    def test_stream_tracks_lstsq(self, plan, mode, rng):
        """After every update ``beta`` solves the current least squares
        problem, several right-hand sides at once."""
        x, y, _ = regression_data(rng, 20, 5, 3)
        session = make_ols(x, y, plan=plan, mode=mode, batch="off")
        for update in _updates(rng, 20, 5, 6):
            session.apply_update(update)
            x = x + update.dense()
            np.testing.assert_allclose(
                session["beta"], np.linalg.lstsq(x, y, rcond=None)[0],
                rtol=1e-7, atol=1e-9)

    def test_tall_design(self, rng):
        x, y, _ = regression_data(rng, 300, 4, 1)
        session = make_ols(x, y, plan="incr")
        updates = _updates(rng, 300, 4, 5)
        session.apply_updates(updates)
        x = x + sum(update.dense() for update in updates)
        np.testing.assert_allclose(session["beta"],
                                   np.linalg.lstsq(x, y, rcond=None)[0],
                                   rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_response_update_tracks_lstsq(self, mode, rng):
        """An update to ``Y`` moves ``C`` and ``beta`` but not ``W``."""
        x, y, _ = regression_data(rng, 18, 4, 2)
        session = make_ols(x, y, plan="incr", mode=mode, batch="off")
        w = session["W"].copy()
        update = FactoredUpdate("Y", rng.normal(size=(18, 1)),
                                rng.normal(size=(2, 1)))
        session.apply_update(update)
        np.testing.assert_array_equal(session["W"], w)
        np.testing.assert_allclose(
            session["beta"],
            np.linalg.lstsq(x, y + update.dense(), rcond=None)[0],
            rtol=1e-7, atol=1e-9)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_zero_update_leaves_estimate(self, mode, rng):
        x, y, _ = regression_data(rng, 16, 4, 1)
        session = make_ols(x, y, plan="incr", mode=mode, batch="off")
        before = session["beta"].copy()
        session.apply_update(FactoredUpdate("X", np.zeros((16, 1)),
                                            rng.normal(size=(4, 1))))
        np.testing.assert_array_equal(session["beta"], before)

    def test_caller_arrays_not_mutated(self, rng):
        x, y, _ = regression_data(rng, 16, 4, 1)
        update = _updates(rng, 16, 4, 1)[0]
        given = (x, y, update.u_block, update.v_block)
        copies = [a.copy() for a in given]
        make_ols(x, y, plan="incr", batch="off").apply_update(update)
        for array, copy in zip(given, copies):
            np.testing.assert_array_equal(array, copy)

    @pytest.mark.parametrize("option", ["method", "strategy"])
    def test_hand_maintainer_options_are_gone(self, option, rng):
        x, y, _ = regression_data(rng, 12, 4, 1)
        with pytest.raises(TypeError):
            make_ols(x, y, **{option: "incr"})


class TestSingularity:
    @pytest.mark.parametrize("plan, mode", [
        ("incr", "interpret"), ("incr", "codegen"), ("reeval", "interpret"),
    ])
    def test_singular_update_raises_and_changes_nothing(self, plan, mode):
        # X = I, update u = -e0, v = e0 zeroes the first row: X'X singular.
        session = make_ols(np.eye(4), np.ones((4, 1)), plan=plan, mode=mode,
                           batch="off")
        before = {name: session[name].copy() for name in VIEWS}
        e0 = np.zeros((4, 1))
        e0[0, 0] = 1.0
        with pytest.raises(SingularUpdateError):
            session.apply_update(FactoredUpdate("X", -e0, e0))
        for name in VIEWS:
            np.testing.assert_array_equal(session[name], before[name],
                                          err_msg=name)
        assert session.update_count == 0
        # The session stays usable.
        session.apply_update(FactoredUpdate("X", e0, e0))
        assert session.revalidate() < 1e-12

    @pytest.mark.parametrize("plan, mode", STRATEGIES)
    def test_singular_rank_two_update_changes_nothing(self, plan, mode):
        # Zeroing two rows of X = I at once leaves X'X of rank 2.
        session = make_ols(np.eye(4), np.ones((4, 1)), plan=plan, mode=mode,
                           batch="off")
        before = {name: session[name].copy() for name in VIEWS}
        rows = np.eye(4)[:, :2]
        with pytest.raises(SingularUpdateError):
            session.apply_update(FactoredUpdate("X", -rows, rows))
        for name in VIEWS:
            np.testing.assert_array_equal(session[name], before[name],
                                          err_msg=name)


class TestRejection:
    @pytest.mark.parametrize("u_rows, v_rows", [(5, 4), (6, 3)])
    def test_misshapen_update_changes_nothing(self, u_rows, v_rows, rng):
        x, y, _ = regression_data(rng, 6, 4, 1)
        session = make_ols(x, y, plan="incr", batch="off")
        before = {name: session[name].copy() for name in VIEWS}
        with pytest.raises(InvalidUpdateError):
            session.apply_update(FactoredUpdate(
                "X", rng.normal(size=(u_rows, 1)),
                rng.normal(size=(v_rows, 1))))
        for name in VIEWS:
            np.testing.assert_array_equal(session[name], before[name],
                                          err_msg=name)
        assert session.update_count == 0


class TestCosts:
    def test_incr_flops_scale_quadratically(self):
        """Section 5.1: INCR O(n^2 + mn) vs REEVAL O(n^3 + mn^2)."""
        flops = {}
        for n in (16, 32, 64):
            rng = np.random.default_rng(0)
            x, y, _ = regression_data(rng, 2 * n, n, 1)
            update = FactoredUpdate("X", 0.1 * rng.normal(size=(2 * n, 1)),
                                    0.1 * rng.normal(size=(n, 1)))
            totals = []
            for plan in ("incr", "reeval"):
                counter = Counter()
                session = make_ols(x, y, plan=plan, batch="off",
                                   counter=counter)
                counter.reset()
                session.apply_update(update)
                totals.append(counter.total_flops)
            flops[n] = totals
        incr_growth = flops[64][0] / flops[16][0]
        reeval_growth = flops[64][1] / flops[16][1]
        assert incr_growth < 25        # ~quadratic
        assert reeval_growth > 40      # ~cubic
        assert flops[64][1] > 10 * flops[64][0]
