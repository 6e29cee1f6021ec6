"""Matrix powers sessions: correctness, widths, costs, memory."""

import numpy as np
import pytest

from repro.cost import Counter
from repro.compiler import compiled_program
from repro.frontend import parse_program
from repro.iterative import Model, make_powers, program
from repro.workloads import row_update_factors, spectral_normalized

MODELS = [Model.linear(), Model.exponential(), Model.skip(2),
          Model.skip(4), Model.skip(8)]


def truth_power(a, k):
    return np.linalg.matrix_power(a, k)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
class TestCorrectness:
    def test_initial_value(self, model, rng):
        a = spectral_normalized(rng, 10)
        for maintainer in (make_powers("REEVAL", a, 16, model),
                           make_powers("INCR", a, 16, model)):
            np.testing.assert_allclose(
                maintainer.result(), truth_power(a, 16), atol=1e-10
            )

    def test_stream_of_rank1_updates(self, model, rng):
        n, k = 10, 16
        a = spectral_normalized(rng, n)
        reeval = make_powers("REEVAL", a, k, model)
        incr = make_powers("INCR", a, k, model)
        current = a.copy()
        for u, v in row_update_factors(rng, n, n, 5, scale=0.05):
            current = current + u @ v.T
            reeval.refresh(u, v)
            incr.refresh(u, v)
        expected = truth_power(current, k)
        np.testing.assert_allclose(reeval.result(), expected, atol=1e-9)
        np.testing.assert_allclose(incr.result(), expected, atol=1e-9)

    def test_all_scheduled_powers_maintained(self, model, rng):
        n, k = 8, 16
        a = spectral_normalized(rng, n)
        incr = make_powers("INCR", a, k, model)
        u = np.zeros((n, 1)); u[2, 0] = 1.0
        v = 0.1 * rng.normal(size=(n, 1))
        incr.refresh(u, v)
        new_a = a + u @ v.T
        for i in model.schedule(k):
            np.testing.assert_allclose(
                incr.session["A" if i == 1 else f"P{i}"],
                truth_power(new_a, i), atol=1e-9,
                err_msg=f"P_{i} wrong under {model.name}",
            )

    def test_rank2_updates(self, model, rng):
        n, k = 9, 16
        a = spectral_normalized(rng, n)
        incr = make_powers("INCR", a, k, model)
        u = 0.1 * rng.normal(size=(n, 2))
        v = 0.1 * rng.normal(size=(n, 2))
        incr.refresh(u, v)
        np.testing.assert_allclose(
            incr.result(), truth_power(a + u @ v.T, k), atol=1e-9
        )


class TestCosts:
    def test_incr_exp_avoids_cubic_growth(self, rng):
        """Table 2: REEVAL-EXP is n^3 log k, INCR-EXP is n^2 k."""
        flops = {}
        for n in (16, 32, 64):
            a = spectral_normalized(np.random.default_rng(0), n)
            reeval_counter, incr_counter = Counter(), Counter()
            reeval = make_powers("REEVAL", a, 16, Model.exponential(), reeval_counter)
            incr = make_powers("INCR", a, 16, Model.exponential(),
                               incr_counter)
            u = np.zeros((n, 1)); u[0, 0] = 1.0
            v = 0.01 * np.ones((n, 1))
            reeval_counter.reset(); incr_counter.reset()
            reeval.refresh(u, v)
            incr.refresh(u, v)
            flops[n] = (reeval_counter.total_flops, incr_counter.total_flops)
        reeval_growth = flops[64][0] / flops[16][0]
        incr_growth = flops[64][1] / flops[16][1]
        assert reeval_growth > 40      # ~64x (cubic over two doublings)
        assert incr_growth < 22        # ~16x (quadratic over two doublings)

    def test_model_cost_ordering_for_incr(self, rng):
        """INCR: exponential < skip < linear in refresh FLOPs (Table 2)."""
        n, k = 24, 16
        a = spectral_normalized(rng, n)
        costs = {}
        for model in (Model.linear(), Model.skip(4), Model.exponential()):
            counter = Counter()
            maintainer = make_powers("INCR", a, k, model, counter)
            counter.reset()  # the session charges its build too
            u = np.zeros((n, 1)); u[1, 0] = 1.0
            maintainer.refresh(u, 0.01 * np.ones((n, 1)))
            costs[model.name] = counter.total_flops
        assert costs["EXP"] < costs["SKIP-4"] < costs["LIN"]

    def test_no_matmul_wider_than_delta_in_incr(self, rng):
        """INCR refresh FLOPs stay ~n^2 * schedule width, far below one
        dense n^3 product."""
        n, k = 48, 16
        a = spectral_normalized(rng, n)
        counter = Counter()
        incr = make_powers("INCR", a, k, Model.exponential(), counter)
        counter.reset()
        u = np.zeros((n, 1)); u[0, 0] = 1.0
        incr.refresh(u, 0.01 * np.ones((n, 1)))
        dense_product = 2 * n**3
        assert counter.total_flops < 3 * dense_product


class TestMemory:
    def test_reeval_reports_its_store(self, rng):
        """REEVAL's program stores ``A`` and every scheduled power, and
        ``memory_bytes`` counts what is stored."""
        a = spectral_normalized(rng, 12)
        for k in (4, 64):
            reeval = make_powers("REEVAL", a, k, Model.exponential())
            schedule = Model.exponential().schedule(k)
            assert reeval.memory_bytes() == len(schedule) * 12 * 12 * 8

    def test_incr_grows_with_schedule(self, rng):
        a = spectral_normalized(rng, 12)
        exp = make_powers("INCR", a, 16, Model.exponential())
        lin = make_powers("INCR", a, 16, Model.linear())
        schedule = Model.exponential().schedule(16)
        assert exp.memory_bytes() == len(schedule) * 12 * 12 * 8
        assert lin.memory_bytes() > exp.memory_bytes()

    def test_delta_width_formula(self):
        """Appendix A: ``dP_i`` has width ``rank * i`` in every model."""
        for model in MODELS:
            source = parse_program(program("powers", model, 16))
            for rank in (1, 2):
                trigger = compiled_program(source, rank).triggers["A"]
                widths = {assign.target.name: assign.target.shape.cols
                          for assign in trigger.assigns}
                for i in model.schedule(16)[1:]:
                    assert widths[f"U_P{i}"] == rank * i, (model, i)
