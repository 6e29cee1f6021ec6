"""Cost model: formulas, counters, and formula-vs-measured growth."""

import numpy as np
import pytest

from repro.cost import Counter, complexity, flops
from repro.cost.memory import MemoryComparison, gigabytes
from repro.iterative import Model, make_powers
from repro.workloads import spectral_normalized


class TestFlopFormulas:
    def test_matmul(self):
        assert flops.matmul_flops(2, 3, 4) == 48

    def test_add_and_scale(self):
        assert flops.add_flops(3, 4) == 12
        assert flops.scalar_mul_flops(3, 4) == 12

    def test_inverse(self):
        assert flops.inverse_flops(10) == 2000

    def test_transpose_free(self):
        assert flops.transpose_flops(10, 10) == 0

    def test_bytes(self):
        assert flops.matrix_bytes(10, 20) == 1600


class TestCountedRefresh:
    @pytest.mark.parametrize("strategy", ["REEVAL", "INCR", "HYBRID"])
    def test_null_counter_runs_no_cost_hook(self, strategy, rng):
        """Uncounted refreshes compute no charge; counted ones are unchanged."""
        from repro.backends import DenseBackend
        from repro.iterative import Model, make_general

        class SpyBackend(DenseBackend):
            hook_calls = 0

            def density(self, a):  # read by Backend.add_outer_flops
                self.hook_calls += 1
                return super().density(a)

        def spied(name):
            def hook(self, *args):
                self.hook_calls += 1
                return getattr(DenseBackend, name)(self, *args)
            return hook

        for name in ("matmul_flops", "add_flops", "scale_flops",
                     "inverse_flops"):
            setattr(SpyBackend, name, spied(name))

        n = 12
        a = rng.normal(size=(n, n)) / n
        b, t0 = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        u, v = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        quiet, spied_on = SpyBackend(), SpyBackend()
        counter, plain_counter = Counter(), Counter()
        model = Model.exponential()
        silent = make_general(strategy, a, b, t0, 8, model, backend=quiet)
        loud = make_general(strategy, a, b, t0, 8, model, counter,
                            backend=spied_on)
        plain = make_general(strategy, a, b, t0, 8, model, plain_counter)
        quiet.hook_calls = spied_on.hook_calls = 0
        for maintainer in (silent, loud, plain):
            maintainer.refresh(u, v)
        assert quiet.hook_calls == 0
        assert spied_on.hook_calls > 0
        assert counter.snapshot() == plain_counter.snapshot()
        assert counter.bytes_allocated == plain_counter.bytes_allocated
        np.testing.assert_array_equal(silent.result(), loud.result())


class TestComplexityFormulas:
    def test_powers_reeval_model_ordering(self):
        n, k = 1000, 16
        lin = complexity.powers_reeval_time(n, k, "linear")
        skip = complexity.powers_reeval_time(n, k, "skip", s=4)
        exp = complexity.powers_reeval_time(n, k, "exponential")
        assert exp < skip < lin

    def test_powers_incr_model_ordering(self):
        n, k = 1000, 16
        lin = complexity.powers_incr_time(n, k, "linear")
        skip = complexity.powers_incr_time(n, k, "skip", s=4)
        exp = complexity.powers_incr_time(n, k, "exponential")
        assert exp < skip < lin

    def test_incr_beats_reeval_asymptotically(self):
        for n in (1000, 10000):
            assert complexity.powers_incr_time(n, 16, "exponential") < (
                complexity.powers_reeval_time(n, 16, "exponential")
            )

    def test_skip_interpolates(self):
        n, k = 500, 16
        assert complexity.powers_incr_time(n, k, "skip", s=1) == (
            complexity.powers_incr_time(n, k, "linear")
        )
        assert complexity.powers_incr_time(n, k, "skip", s=k) == (
            complexity.powers_incr_time(n, k, "exponential")
        )

    def test_general_hybrid_wins_small_p(self):
        n, k = 1000, 16
        hybrid = complexity.general_hybrid_time(n, 1, k, "linear")
        incr = complexity.general_incr_time(n, 1, k, "linear")
        assert hybrid < incr

    def test_general_incr_wins_large_p(self):
        n, k = 1000, 16
        p = 2000
        incr = complexity.general_incr_time(n, p, k, "exponential")
        reeval = complexity.general_reeval_time(n, p, k, "exponential")
        assert incr < reeval

    def test_space_formulas(self):
        n, k = 100, 16
        assert complexity.powers_reeval_space(n, k, "linear") == n * n
        assert complexity.powers_incr_space(n, k, "linear") == n * n * k
        assert complexity.powers_incr_space(n, k, "exponential") == n * n * 4

    def test_ols_program_incr_priced_below_reeval(self):
        """Section 5.1 priced from the compiled OLS program: INCR's
        refresh is ``O(n^2 + mn)`` against REEVAL's ``O(n^3 + mn^2)``."""
        from repro.analytics.ols import OLS_PROGRAM
        from repro.backends.dense import DenseBackend
        from repro.planner.programcost import program_cost

        be = DenseBackend()
        ratios = []
        for n in (50, 100, 200):
            dims = {"m": 2 * n, "n": n, "p": 1}
            incr, reeval = (program_cost(be, strategy, OLS_PROGRAM, dims,
                                         {}).refresh
                            for strategy in ("INCR", "REEVAL"))
            assert incr < reeval
            ratios.append(reeval / incr)
        assert ratios == sorted(ratios)

    def test_validation(self):
        with pytest.raises(ValueError):
            complexity.powers_reeval_time(0, 4, "linear")
        with pytest.raises(ValueError):
            complexity.powers_incr_time(10, 16, "skip", s=5)
        with pytest.raises(ValueError):
            complexity.powers_incr_time(10, 16, "cubic")


class TestFittedExponent:
    def test_exact_powers(self):
        xs = [2.0, 4.0, 8.0, 16.0]
        assert abs(complexity.fitted_exponent(xs, [x**3 for x in xs]) - 3.0) < 1e-9
        assert abs(complexity.fitted_exponent(xs, [x**2 for x in xs]) - 2.0) < 1e-9

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            complexity.fitted_exponent([1.0], [1.0])

    def test_measured_refresh_exponents_match_table2(self):
        """REEVAL-EXP refresh FLOPs grow ~n^3; INCR-EXP ~n^2 (Table 2)."""
        sizes = [16, 32, 64]
        reeval_flops, incr_flops = [], []
        for n in sizes:
            a = spectral_normalized(np.random.default_rng(1), n)
            reeval_counter, incr_counter = Counter(), Counter()
            reeval = make_powers("REEVAL", a, 16, Model.exponential(), reeval_counter)
            incr = make_powers("INCR", a, 16, Model.exponential(), incr_counter)
            reeval_counter.reset(); incr_counter.reset()
            u = np.zeros((n, 1)); u[0, 0] = 1.0
            v = 0.01 * np.ones((n, 1))
            reeval.refresh(u, v)
            incr.refresh(u, v)
            reeval_flops.append(reeval_counter.total_flops)
            incr_flops.append(incr_counter.total_flops)
        reeval_exp = complexity.fitted_exponent([float(s) for s in sizes],
                                                reeval_flops)
        incr_exp = complexity.fitted_exponent([float(s) for s in sizes],
                                              incr_flops)
        assert 2.7 < reeval_exp <= 3.1
        assert 1.8 < incr_exp <= 2.3


class TestMemoryComparison:
    def test_table3_row_math(self):
        comparison = MemoryComparison(
            n=1000,
            reeval_bytes=10**9,
            incr_bytes=3 * 10**9,
            reeval_time=9.0,
            incr_time=1.0,
        )
        assert comparison.speedup == 9.0
        assert comparison.memory_overhead == 3.0
        assert comparison.speedup_per_memory == 3.0
        row = comparison.row()
        assert row["reeval_gb"] == 1.0 and row["incr_gb"] == 3.0

    def test_gigabytes(self):
        assert gigabytes(2_500_000_000) == 2.5
