"""Sums-of-powers sessions (Section 5.2.3)."""

import numpy as np
import pytest

from repro.cost import Counter
from repro.iterative import Model, make_sums
from repro.workloads import row_update_factors, spectral_normalized

MODELS = [Model.linear(), Model.exponential(), Model.skip(2),
          Model.skip(4), Model.skip(8)]


def truth_sum(a, k):
    n = a.shape[0]
    total = np.eye(n)
    power = np.eye(n)
    for _ in range(k - 1):
        power = power @ a
        total = total + power
    return total


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
class TestCorrectness:
    def test_initial_value(self, model, rng):
        a = spectral_normalized(rng, 9)
        for maintainer in (make_sums("REEVAL", a, 16, model),
                           make_sums("INCR", a, 16, model)):
            np.testing.assert_allclose(
                maintainer.result(), truth_sum(a, 16), atol=1e-9
            )

    def test_stream_of_updates(self, model, rng):
        n, k = 9, 16
        a = spectral_normalized(rng, n)
        reeval = make_sums("REEVAL", a, k, model)
        incr = make_sums("INCR", a, k, model)
        current = a.copy()
        for u, v in row_update_factors(rng, n, n, 5, scale=0.05):
            current = current + u @ v.T
            reeval.refresh(u, v)
            incr.refresh(u, v)
        expected = truth_sum(current, k)
        np.testing.assert_allclose(reeval.result(), expected, atol=1e-8)
        np.testing.assert_allclose(incr.result(), expected, atol=1e-8)

    def test_all_scheduled_sums_maintained(self, model, rng):
        n, k = 8, 16
        a = spectral_normalized(rng, n)
        incr = make_sums("INCR", a, k, model)
        u = np.zeros((n, 1)); u[1, 0] = 1.0
        v = 0.1 * rng.normal(size=(n, 1))
        incr.refresh(u, v)
        new_a = a + u @ v.T
        for i in model.schedule(k)[1:]:  # S_1 = I is no view
            np.testing.assert_allclose(
                incr.session[f"S{i}"], truth_sum(new_a, i), atol=1e-9,
                err_msg=f"S_{i} wrong under {model.name}",
            )


class TestSharedPowers:
    def test_shared_powers_not_double_applied(self, rng):
        """The sums program reads its powers views: one update applies
        to every stored view (``A``, ``P_h``, ``S_i``) exactly once."""
        n, k = 8, 16
        a = spectral_normalized(rng, n)
        counter = Counter()
        sums = make_sums("INCR", a, k, Model.exponential(), counter)
        counter.reset()
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        v = 0.1 * rng.normal(size=(n, 1))
        sums.refresh(u, v)
        new_a = a + u @ v.T
        views = sums.session.program.view_names
        assert counter.calls_by_op["add_outer_inplace"] == 1 + len(views)
        np.testing.assert_allclose(sums.result(), truth_sum(new_a, k), atol=1e-9)
        np.testing.assert_allclose(
            sums.session["P8"], np.linalg.matrix_power(new_a, 8), atol=1e-9
        )


class TestCosts:
    def test_incr_beats_reeval_in_flops(self, rng):
        n, k = 40, 16
        a = spectral_normalized(rng, n)
        reeval_counter, incr_counter = Counter(), Counter()
        reeval = make_sums("REEVAL", a, k, Model.exponential(), reeval_counter)
        incr = make_sums("INCR", a, k, Model.exponential(), incr_counter)
        reeval_counter.reset(); incr_counter.reset()
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        v = 0.01 * np.ones((n, 1))
        reeval.refresh(u, v)
        incr.refresh(u, v)
        assert incr_counter.total_flops < reeval_counter.total_flops / 2

    def test_memory_reeval_vs_incr(self, rng):
        """Both sessions store the program's inputs and views, as
        ``bench_table3_memory.py`` reports: ``A``, ``P_2 .. P_8`` and
        ``S_2 .. S_16`` (``S_1 = I`` is no view)."""
        a = spectral_normalized(rng, 10)
        reeval = make_sums("REEVAL", a, 16, Model.exponential())
        incr = make_sums("INCR", a, 16, Model.exponential())
        assert incr.memory_bytes() == reeval.memory_bytes() == 8 * 10 * 10 * 8

    @pytest.mark.parametrize("model", [Model.exponential(), Model.skip(4)],
                             ids=lambda m: m.name)
    def test_reeval_keeps_one_copy_of_a(self, model, rng):
        """EXP / SKIP lean on the powers views: the program's one A,
        updated in place, so a refresh applies the rank-k update once."""
        n = 12
        a = spectral_normalized(rng, n)
        counter = Counter()
        view = make_sums("REEVAL", a, 8, model, counter)
        stored = view.a
        assert not np.shares_memory(stored, a)
        counter.reset()
        [(u, v)] = row_update_factors(rng, n, n, 1, scale=0.05)
        view.refresh(u, v)
        assert view.a is stored
        # One outer update of A (2 n^2); P_2 .. P_4 and S_4 .. S_8 are
        # products, S_2 = A + I is not; every S_i adds.
        steps = len(model.schedule(8)) - 1
        assert counter.total_flops == (
            2 * n * n + 2 * (steps - 1) * 2 * n ** 3 + steps * n * n
        )
        assert counter.calls_by_op["add_outer_inplace"] == 1
        np.testing.assert_allclose(view.result(), truth_sum(view.a, 8),
                                   atol=1e-10)
