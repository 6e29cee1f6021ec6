"""General form T_{i+1} = A T_i + B: all strategies, all models."""

import numpy as np
import pytest

from repro.cost import Counter
from repro.iterative import (
    Model,
    ReevalGeneral,
    make_general,
    make_powers,
)
from repro.workloads import row_update_factors, spectral_normalized

MODELS = [Model.linear(), Model.exponential(), Model.skip(2),
          Model.skip(4), Model.skip(8)]
STRATS = ["REEVAL", "INCR", "HYBRID"]


def truth_t(a, b, t0, k):
    t = t0
    for _ in range(k):
        t = a @ t + (b if b is not None else 0.0)
    return t


def _data(rng, n=9, p=3):
    a = spectral_normalized(rng, n)
    b = rng.normal(size=(n, p))
    t0 = rng.normal(size=(n, p))
    return a, b, t0


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
@pytest.mark.parametrize("strategy", STRATS)
class TestCorrectness:
    def test_initial_value(self, model, strategy, rng):
        a, b, t0 = _data(rng)
        maintainer = make_general(strategy, a, b, t0, 16, model)
        np.testing.assert_allclose(
            maintainer.result(), truth_t(a, b, t0, 16), atol=1e-9
        )

    def test_update_stream_on_a(self, model, strategy, rng):
        n, p, k = 9, 3, 16
        a, b, t0 = _data(rng, n, p)
        maintainer = make_general(strategy, a, b, t0, k, model)
        current = a.copy()
        for u, v in row_update_factors(rng, n, n, 4, scale=0.05):
            current = current + u @ v.T
            maintainer.refresh(u, v)
        np.testing.assert_allclose(
            maintainer.result(), truth_t(current, b, t0, k), atol=1e-8
        )

    def test_homogeneous_b_none(self, model, strategy, rng):
        n, p, k = 9, 2, 16
        a, _, t0 = _data(rng, n, p)
        maintainer = make_general(strategy, a, None, t0, k, model)
        current = a.copy()
        for u, v in row_update_factors(rng, n, n, 3, scale=0.05):
            current = current + u @ v.T
            maintainer.refresh(u, v)
        np.testing.assert_allclose(
            maintainer.result(), truth_t(current, None, t0, k), atol=1e-8
        )

    def test_column_iterate_p1(self, model, strategy, rng):
        """p = 1, the PageRank shape (Fig. 3g's extreme case)."""
        n, k = 10, 16
        a = spectral_normalized(rng, n)
        b = rng.normal(size=(n, 1))
        t0 = rng.normal(size=(n, 1))
        maintainer = make_general(strategy, a, b, t0, k, model)
        u = np.zeros((n, 1)); u[4, 0] = 1.0
        v = 0.05 * rng.normal(size=(n, 1))
        maintainer.refresh(u, v)
        np.testing.assert_allclose(
            maintainer.result(), truth_t(a + u @ v.T, b, t0, k), atol=1e-9
        )


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
class TestBUpdates:
    def test_refresh_b_incremental(self, model, rng):
        n, p, k = 9, 3, 16
        a, b, t0 = _data(rng, n, p)
        for strategy in STRATS:
            maintainer = make_general(strategy, a, b, t0, k, model)
            u = 0.1 * rng.normal(size=(n, 1))
            v = 0.1 * rng.normal(size=(p, 1))
            maintainer.refresh_b(u, v)
            np.testing.assert_allclose(
                maintainer.result(), truth_t(a, b + u @ v.T, t0, k),
                atol=1e-8, err_msg=f"{strategy}/{model.name}",
            )

    def test_refresh_b_without_b_rejected(self, model, rng):
        a, _, t0 = _data(rng)
        maintainer = ReevalGeneral(a, None, t0, 16, model)
        with pytest.raises(ValueError, match="no B input"):
            maintainer.refresh_b(np.ones((9, 1)), np.ones((3, 1)))


class TestMixedStreams:
    def test_interleaved_a_and_b_updates(self, rng):
        n, p, k = 8, 2, 16
        a, b, t0 = _data(rng, n, p)
        model = Model.exponential()
        maintainers = [make_general(s, a, b, t0, k, model) for s in STRATS]
        cur_a, cur_b = a.copy(), b.copy()
        for i in range(6):
            if i % 2 == 0:
                u = 0.05 * rng.normal(size=(n, 1))
                v = 0.05 * rng.normal(size=(n, 1))
                cur_a = cur_a + u @ v.T
                for mnt in maintainers:
                    mnt.refresh(u, v)
            else:
                u = 0.05 * rng.normal(size=(n, 1))
                v = 0.05 * rng.normal(size=(p, 1))
                cur_b = cur_b + u @ v.T
                for mnt in maintainers:
                    mnt.refresh_b(u, v)
        expected = truth_t(cur_a, cur_b, t0, k)
        for strategy, mnt in zip(STRATS, maintainers):
            np.testing.assert_allclose(
                mnt.result(), expected, atol=1e-8, err_msg=strategy
            )


class TestValidation:
    def test_b_shape_must_match_t0(self, rng):
        a = spectral_normalized(rng, 6)
        with pytest.raises(ValueError, match="must match"):
            ReevalGeneral(a, np.ones((6, 2)), np.ones((6, 3)), 4, Model.linear())

    def test_vector_t0_normalized(self, rng):
        a = spectral_normalized(rng, 6)
        maintainer = ReevalGeneral(a, None, np.ones(6), 4, Model.linear())
        assert maintainer.result().shape == (6, 1)

    def test_unknown_strategy_rejected(self, rng):
        a, b, t0 = _data(rng)
        with pytest.raises(ValueError, match="unknown strategy"):
            make_general("MAGIC", a, b, t0, 16, Model.linear())

    def test_strategy_and_shape_errors_name_the_cause(self):
        with pytest.raises(ValueError, match="no 'HYBRID' strategy"):
            make_powers("HYBRID", np.eye(4), 2, Model.linear())
        with pytest.raises(ValueError, match="shape mismatch"):
            make_general("REEVAL", np.eye(4), None, np.ones((5, 1)), 2,
                         Model.linear())

    def test_vector_t0_normalized_under_hybrid(self, rng):
        maintainer = make_general("HYBRID", 0.1 * rng.normal(size=(8, 8)),
                                  None, np.ones(8), 4, Model.linear())
        assert maintainer.result().shape == (8, 1)


class TestCostCrossover:
    """Fig. 3g's finding: HYBRID wins at p = 1, INCR wins at large p."""

    def _flops(self, strategy, n, p, k, rng):
        a = spectral_normalized(rng, n)
        b = None
        t0 = np.random.default_rng(1).normal(size=(n, p))
        counter = Counter()
        maintainer = make_general(strategy, a, b, t0, k, Model.linear(), counter)
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        counter.reset()
        maintainer.refresh(u, 0.01 * np.ones((n, 1)))
        return counter.total_flops

    def test_hybrid_beats_incr_at_p1(self, rng):
        assert self._flops("HYBRID", 48, 1, 16, rng) < self._flops(
            "INCR", 48, 1, 16, rng
        )

    def test_incr_beats_hybrid_at_large_p(self, rng):
        assert self._flops("INCR", 32, 64, 16, rng) < self._flops(
            "HYBRID", 32, 64, 16, rng
        )

    def test_incr_exp_beats_reeval_exp_at_large_p(self, rng):
        n, p, k = 32, 48, 16
        a = spectral_normalized(rng, n)
        b = np.random.default_rng(2).normal(size=(n, p))
        t0 = np.random.default_rng(3).normal(size=(n, p))
        flops = {}
        for strategy in ("REEVAL", "INCR"):
            counter = Counter()
            maintainer = make_general(strategy, a, b, t0, k,
                                      Model.exponential(), counter)
            counter.reset()
            u = np.zeros((n, 1)); u[0, 0] = 1.0
            maintainer.refresh(u, 0.01 * np.ones((n, 1)))
            flops[strategy] = counter.total_flops
        assert flops["INCR"] < flops["REEVAL"]
