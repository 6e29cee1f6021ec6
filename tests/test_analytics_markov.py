"""k-step Markov chain maintenance (Section 5.2 application)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import (
    KStepDistribution,
    KStepTransitionMatrix,
    check_column_stochastic,
    column_stochastic,
    random_walk_matrix,
    reference_k_step,
)
from repro.iterative import Model


def random_stochastic(rng, n):
    p = rng.uniform(0.05, 1.0, size=(n, n))
    return p / p.sum(axis=0, keepdims=True)


def random_distribution(rng, n):
    pi = rng.uniform(0.05, 1.0, size=n)
    return pi / pi.sum()


class TestValidation:
    def test_accepts_stochastic_matrix(self, rng):
        check_column_stochastic(random_stochastic(rng, 6))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            check_column_stochastic(np.ones((2, 3)) / 2.0)

    def test_rejects_negative_entries(self):
        p = np.array([[1.2, 0.0], [-0.2, 1.0]])
        with pytest.raises(ValueError, match="non-negative"):
            check_column_stochastic(p)

    def test_rejects_bad_column_sum(self):
        p = np.array([[0.5, 0.5], [0.4, 0.5]])
        with pytest.raises(ValueError, match="sums to"):
            check_column_stochastic(p)


class TestRandomWalkMatrix:
    def test_columns_sum_to_one(self, rng):
        adjacency = (rng.uniform(size=(8, 8)) < 0.3).astype(float)
        p = random_walk_matrix(adjacency)
        np.testing.assert_allclose(p.sum(axis=0), np.ones(8), atol=1e-12)

    def test_dangling_state_self_loops(self):
        adjacency = np.zeros((3, 3))
        adjacency[1, 0] = 1.0  # only 0 -> 1
        p = random_walk_matrix(adjacency)
        assert p[2, 2] == 1.0
        assert p[1, 1] == 1.0
        assert p[1, 0] == 1.0

    @staticmethod
    def _column_loop(adjacency, rule):
        """The per-column loop the vectorized helper replaced."""
        n = adjacency.shape[0]
        expected = np.array(adjacency)
        for j in range(n):
            total = adjacency[:, j].sum()
            if total:
                expected[:, j] = adjacency[:, j] / total
            elif rule == "uniform":
                expected[:, j] = 1.0 / n
            else:
                expected[j, j] = 1.0
        return expected

    @pytest.mark.parametrize("rule", ["self-loop", "uniform"])
    def test_column_stochastic_matches_column_loop(self, rule, rng):
        adjacency = (rng.uniform(size=(9, 9)) < 0.25).astype(float)
        adjacency[:, [2, 7]] = 0.0  # two dangling states
        got = column_stochastic(adjacency, rule)
        np.testing.assert_array_equal(got, self._column_loop(adjacency, rule))
        assert not np.shares_memory(got, adjacency)

    @pytest.mark.parametrize("rule", ["self-loop", "uniform"])
    def test_column_stochastic_sparse_in_sparse_out(self, rule, rng):
        sparse = pytest.importorskip("scipy.sparse")
        adjacency = (rng.uniform(size=(9, 9)) < 0.25).astype(float)
        adjacency[:, [2, 7]] = 0.0
        expected = self._column_loop(adjacency, rule)
        for fmt in (sparse.csr_array, sparse.csc_array, sparse.coo_array):
            got = column_stochastic(fmt(adjacency), rule)
            assert sparse.issparse(got)
            np.testing.assert_array_equal(got.toarray(), expected)

    def test_column_stochastic_rejects_unknown_rule(self):
        with pytest.raises(ValueError, match="dangling rule"):
            column_stochastic(np.eye(2), "absorb")


class TestKStepTransitionMatrix:
    def test_initial_result_is_matrix_power(self, rng):
        p = random_stochastic(rng, 7)
        view = KStepTransitionMatrix(p, k=8)
        np.testing.assert_allclose(view.result(), reference_k_step(p, 8),
                                   atol=1e-10)

    def test_result_stays_stochastic(self, rng):
        p = random_stochastic(rng, 6)
        view = KStepTransitionMatrix(p, k=16)
        np.testing.assert_allclose(view.result().sum(axis=0), np.ones(6),
                                   atol=1e-9)

    def test_perturb_column_tracks_reference(self, rng):
        p = random_stochastic(rng, 6)
        view = KStepTransitionMatrix(p, k=8)
        for j in (0, 3, 5):
            new_col = random_distribution(rng, 6)
            view.perturb_column(j, new_col)
        np.testing.assert_allclose(
            view.result(), reference_k_step(view.p, 8), atol=1e-8
        )

    def test_perturb_column_edits_shadow_in_place(self, rng):
        """The driver's shadow ``p`` changes one column, not its identity."""
        p = random_stochastic(rng, 6)
        view = KStepTransitionMatrix(p, k=8)
        shadow = view.p
        for j in (4, 1, 4):
            new_col = random_distribution(rng, 6)
            u = (new_col - view.p[:, j]).reshape(-1, 1)
            v = np.zeros((6, 1))
            v[j, 0] = 1.0
            expected = view.p + u @ v.T  # the n x n spelling it replaces
            view.perturb_column(j, new_col)
            assert view.p is shadow
            np.testing.assert_array_equal(view.p, expected)
        assert not np.shares_memory(view.p, p)
        np.testing.assert_allclose(
            view.result(), reference_k_step(view.p, 8), atol=1e-8
        )

    def test_incr_matches_reeval(self, rng):
        p = random_stochastic(rng, 5)
        incr = KStepTransitionMatrix(p, k=8, strategy="INCR")
        reeval = KStepTransitionMatrix(p, k=8, strategy="REEVAL")
        new_col = random_distribution(rng, 5)
        incr.perturb_column(2, new_col)
        reeval.perturb_column(2, new_col)
        np.testing.assert_allclose(incr.result(), reeval.result(), atol=1e-8)

    def test_rejects_non_distribution_column(self, rng):
        view = KStepTransitionMatrix(random_stochastic(rng, 4), k=4)
        with pytest.raises(ValueError, match="sum to 1"):
            view.perturb_column(0, np.array([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            view.perturb_column(0, np.array([1.5, -0.5, 0.0, 0.0]))

    def test_step_distribution_and_hitting(self, rng):
        p = random_stochastic(rng, 5)
        pi0 = random_distribution(rng, 5)
        view = KStepTransitionMatrix(p, k=8)
        expected = reference_k_step(p, 8) @ pi0.reshape(-1, 1)
        np.testing.assert_allclose(view.step_distribution(pi0), expected,
                                   atol=1e-10)
        assert view.hitting_probability(2, pi0) == pytest.approx(
            float(expected[2, 0])
        )

    def test_linear_model_agrees_with_exponential(self, rng):
        p = random_stochastic(rng, 5)
        lin = KStepTransitionMatrix(p, k=8, model=Model.linear())
        exp = KStepTransitionMatrix(p, k=8, model=Model.exponential())
        new_col = random_distribution(rng, 5)
        lin.perturb_column(1, new_col)
        exp.perturb_column(1, new_col)
        np.testing.assert_allclose(lin.result(), exp.result(), atol=1e-8)


class TestKStepDistribution:
    def test_initial_distribution(self, rng):
        p = random_stochastic(rng, 6)
        pi0 = random_distribution(rng, 6)
        view = KStepDistribution(p, pi0, k=12)
        expected = reference_k_step(p, 12) @ pi0.reshape(-1, 1)
        np.testing.assert_allclose(view.result(), expected, atol=1e-10)

    def test_perturbation_tracks_reference(self, rng):
        p = random_stochastic(rng, 6)
        pi0 = random_distribution(rng, 6)
        view = KStepDistribution(p, pi0, k=10)
        for j in (1, 4):
            view.perturb_column(j, random_distribution(rng, 6))
        expected = reference_k_step(view.p, 10) @ pi0.reshape(-1, 1)
        np.testing.assert_allclose(view.result(), expected, atol=1e-8)

    def test_result_is_distribution_after_updates(self, rng):
        p = random_stochastic(rng, 7)
        pi0 = random_distribution(rng, 7)
        view = KStepDistribution(p, pi0, k=8)
        view.perturb_column(0, random_distribution(rng, 7))
        result = view.result()
        assert float(result.sum()) == pytest.approx(1.0, abs=1e-8)
        assert np.all(result >= -1e-9)

    def test_all_strategies_agree(self, rng):
        p = random_stochastic(rng, 5)
        pi0 = random_distribution(rng, 5)
        results = {}
        for strategy in ("REEVAL", "INCR", "HYBRID"):
            view = KStepDistribution(p, pi0, k=8, strategy=strategy)
            view.perturb_column(3, random_distribution(
                np.random.default_rng(7), 5))
            results[strategy] = view.result()
        np.testing.assert_allclose(results["REEVAL"], results["INCR"],
                                   atol=1e-8)
        np.testing.assert_allclose(results["REEVAL"], results["HYBRID"],
                                   atol=1e-8)

    def test_rejects_bad_start_distribution(self, rng):
        p = random_stochastic(rng, 4)
        with pytest.raises(ValueError, match="sum to 1"):
            KStepDistribution(p, np.ones(4), k=4)

    def test_total_variation(self, rng):
        p = random_stochastic(rng, 5)
        pi0 = random_distribution(rng, 5)
        view = KStepDistribution(p, pi0, k=8)
        assert view.total_variation_from(view.result()) == pytest.approx(0.0)
        other = random_distribution(rng, 5)
        tv = view.total_variation_from(other)
        assert 0.0 <= tv <= 1.0 + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=9999),
           n=st.integers(min_value=2, max_value=8))
    def test_property_update_stream_tracks_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        p = random_stochastic(rng, n)
        pi0 = random_distribution(rng, n)
        view = KStepDistribution(p, pi0, k=6)
        for _ in range(3):
            j = int(rng.integers(n))
            view.perturb_column(j, random_distribution(rng, n))
        expected = reference_k_step(view.p, 6) @ pi0.reshape(-1, 1)
        np.testing.assert_allclose(view.result(), expected, atol=1e-7)
