"""Sums-of-powers maintainers (Section 5.2.3)."""

import numpy as np
import pytest

from repro.cost import Counter
from repro.iterative import IncrementalPowerSums, Model, ReevalPowerSums
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
        for maintainer in (ReevalPowerSums(a, 16, model),
                           IncrementalPowerSums(a, 16, model)):
            np.testing.assert_allclose(
                maintainer.result(), truth_sum(a, 16), atol=1e-9
            )

    def test_stream_of_updates(self, model, rng):
        n, k = 9, 16
        a = spectral_normalized(rng, n)
        reeval = ReevalPowerSums(a, k, model)
        incr = IncrementalPowerSums(a, k, model)
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
        incr = IncrementalPowerSums(a, k, model)
        u = np.zeros((n, 1)); u[1, 0] = 1.0
        v = 0.1 * rng.normal(size=(n, 1))
        incr.refresh(u, v)
        new_a = a + u @ v.T
        for i in incr.schedule:
            np.testing.assert_allclose(
                incr.sums[i], truth_sum(new_a, i), atol=1e-9,
                err_msg=f"S_{i} wrong under {model.name}",
            )


class TestSharedPowers:
    def test_shared_powers_not_double_applied(self, rng):
        from repro.iterative import IncrementalPowers

        n, k = 8, 16
        a = spectral_normalized(rng, n)
        powers = IncrementalPowers(a, 8, Model.exponential())
        sums = IncrementalPowerSums(a, k, Model.exponential(), powers=powers)
        assert not sums.owns_powers
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        v = 0.1 * rng.normal(size=(n, 1))
        pf = powers.compute_factors(u, v)
        sf = sums.compute_factors(u, v, pf)
        sums.apply_factors(sf, pf)
        powers.apply_factors(pf)
        new_a = a + u @ v.T
        np.testing.assert_allclose(sums.result(), truth_sum(new_a, k), atol=1e-9)
        np.testing.assert_allclose(
            powers.result(), np.linalg.matrix_power(new_a, 8), atol=1e-9
        )

    def test_refresh_forbidden_with_shared_powers(self, rng):
        from repro.iterative import IncrementalPowers

        a = spectral_normalized(rng, 8)
        powers = IncrementalPowers(a, 8, Model.exponential())
        sums = IncrementalPowerSums(a, 16, Model.exponential(), powers=powers)
        with pytest.raises(RuntimeError, match="shared powers"):
            sums.refresh(np.ones((8, 1)), np.ones((8, 1)))

    def test_insufficient_shared_powers_rejected(self, rng):
        from repro.iterative import IncrementalPowers

        a = spectral_normalized(rng, 8)
        shallow = IncrementalPowers(a, 2, Model.exponential())
        with pytest.raises(ValueError, match="lacks"):
            IncrementalPowerSums(a, 16, Model.exponential(), powers=shallow)


class TestCosts:
    def test_incr_beats_reeval_in_flops(self, rng):
        n, k = 40, 16
        a = spectral_normalized(rng, n)
        reeval_counter, incr_counter = Counter(), Counter()
        reeval = ReevalPowerSums(a, k, Model.exponential(), reeval_counter)
        incr = IncrementalPowerSums(a, k, Model.exponential(), incr_counter)
        reeval_counter.reset(); incr_counter.reset()
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        v = 0.01 * np.ones((n, 1))
        reeval.refresh(u, v)
        incr.refresh(u, v)
        assert incr_counter.total_flops < reeval_counter.total_flops / 2

    def test_memory_reeval_vs_incr(self, rng):
        a = spectral_normalized(rng, 10)
        reeval = ReevalPowerSums(a, 16, Model.exponential())
        incr = IncrementalPowerSums(a, 16, Model.exponential())
        assert incr.memory_bytes() > reeval.memory_bytes()

    @pytest.mark.parametrize("model", [Model.exponential(), Model.skip(4)],
                             ids=lambda m: m.name)
    def test_reeval_keeps_one_copy_of_a(self, model, rng):
        """EXP / SKIP lean on embedded powers: A is that maintainer's A,
        so a refresh applies the rank-k update once, not twice."""
        n = 12
        a = spectral_normalized(rng, n)
        counter = Counter()
        view = ReevalPowerSums(a, 8, model, counter)
        assert np.shares_memory(view.a, view._powers.a)
        assert not np.shares_memory(view.a, a)
        counter.reset()
        [(u, v)] = row_update_factors(rng, n, n, 1, scale=0.05)
        view.refresh(u, v)
        assert view.a is view._powers.a
        # One outer update of A: 2 n^2 multiply-adds + n^2 adds.
        products = len(view.schedule) - 1 + len(view._powers.schedule) - 1
        assert counter.total_flops == (
            3 * n * n + products * 2 * n ** 3 + (len(view.schedule) - 1) * n * n
        )
        np.testing.assert_allclose(view.result(), truth_sum(view.a, 8),
                                   atol=1e-10)
