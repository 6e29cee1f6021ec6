"""Incremental inversion on a session: the compiler's rule for ``inv``.

For ``W := inv(E)`` and an update ``E += U V'`` the compiler derives one
Woodbury step on the stored inverse (Sherman–Morrison at rank 1).  These
tests hold that step to the direct inverse of the updated input under
both execution modes, and hold an update that leaves ``E`` singular to a
typed error that changes nothing.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend.parser import parse_program
from repro.runtime import FactoredUpdate, SingularUpdateError, open_session

INVERSE = parse_program("input E(n, n); W := inv(E); output W;")
MODES = ("interpret", "codegen")


def well_conditioned(rng, size):
    """Non-symmetric, so a transposed ``W`` in the rule would show."""
    return rng.normal(size=(size, size)) + 2 * size * np.eye(size)


def inverse_session(e, mode="interpret", plan="incr", batch="off"):
    return open_session(INVERSE, {"E": e}, plan=plan, mode=mode, batch=batch)


def unit(size, index):
    e = np.zeros((size, 1))
    e[index, 0] = 1.0
    return e


@pytest.mark.parametrize("mode", MODES)
class TestRankOne:
    def test_matches_direct_inverse(self, mode, rng):
        e = well_conditioned(rng, 8)
        u, v = rng.normal(size=(8, 1)), rng.normal(size=(8, 1))
        session = inverse_session(e, mode)
        session.apply_update(FactoredUpdate("E", u, v))
        np.testing.assert_allclose(session["W"], np.linalg.inv(e + u @ v.T),
                                   rtol=1e-8)

    def test_delta_is_rank_one(self, mode, rng):
        e = well_conditioned(rng, 6)
        session = inverse_session(e, mode)
        before = session["W"].copy()
        session.apply_update(FactoredUpdate("E", rng.normal(size=(6, 1)),
                                            rng.normal(size=(6, 1))))
        assert np.linalg.matrix_rank(session["W"] - before) == 1

    def test_accepts_flat_vectors(self, mode, rng):
        e = well_conditioned(rng, 5)
        u, v = rng.normal(size=5), rng.normal(size=5)
        session = inverse_session(e, mode)
        session.apply_update(FactoredUpdate("E", u, v))
        assert session["W"].shape == (5, 5)
        np.testing.assert_allclose(session["W"],
                                   np.linalg.inv(e + np.outer(u, v)), rtol=1e-8)

    def test_sequential_two_rank_ones(self, mode, rng):
        e = well_conditioned(rng, 7)
        pairs = [(rng.normal(size=(7, 1)), rng.normal(size=(7, 1)))
                 for _ in range(2)]
        session = inverse_session(e, mode)
        session.apply_updates([FactoredUpdate("E", u, v) for u, v in pairs])
        total = sum(u @ v.T for u, v in pairs)
        np.testing.assert_allclose(session["W"], np.linalg.inv(e + total),
                                   rtol=1e-7)

    def test_zero_update_is_identity(self, mode, rng):
        e = well_conditioned(rng, 6)
        session = inverse_session(e, mode)
        before = session["W"].copy()
        session.apply_update(FactoredUpdate("E", np.zeros((6, 1)),
                                            rng.normal(size=(6, 1))))
        np.testing.assert_array_equal(session["W"], before)

    def test_inputs_not_mutated(self, mode, rng):
        e = well_conditioned(rng, 6)
        u, v = rng.normal(size=(6, 1)), rng.normal(size=(6, 1))
        copies = [a.copy() for a in (e, u, v)]
        session = inverse_session(e, mode)
        session.apply_update(FactoredUpdate("E", u, v))
        for given_array, copy in zip((e, u, v), copies):
            np.testing.assert_array_equal(given_array, copy)


@pytest.mark.parametrize("mode", MODES)
class TestWoodbury:
    def test_matches_direct_inverse_rank2(self, mode, rng):
        e = well_conditioned(rng, 9)
        u, v = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
        session = inverse_session(e, mode)
        session.apply_update(FactoredUpdate("E", u, v))
        np.testing.assert_allclose(session["W"], np.linalg.inv(e + u @ v.T),
                                   rtol=1e-8)

    def test_equals_sequential_rank_ones(self, mode, rng):
        """One rank-3 step == its outer products absorbed one at a time."""
        e = well_conditioned(rng, 8)
        u, v = rng.normal(size=(8, 3)), rng.normal(size=(8, 3))
        block = inverse_session(e, mode)
        block.apply_update(FactoredUpdate("E", u, v))
        one_by_one = inverse_session(e, mode)
        one_by_one.apply_updates([
            FactoredUpdate("E", u[:, i:i + 1], v[:, i:i + 1]) for i in range(3)
        ])
        np.testing.assert_allclose(block["W"], one_by_one["W"], rtol=1e-7)

    def test_deferred_batch_matches_direct_inverse(self, mode, rng):
        """A deferred batch of rank-1 updates flushes as one wide step."""
        e = well_conditioned(rng, 7)
        pairs = [(rng.normal(size=(7, 1)), rng.normal(size=(7, 1)))
                 for _ in range(4)]
        session = inverse_session(e, mode, batch=4)
        session.apply_updates([FactoredUpdate("E", u, v) for u, v in pairs])
        total = sum(u @ v.T for u, v in pairs)
        np.testing.assert_allclose(session["W"], np.linalg.inv(e + total),
                                   rtol=1e-7)


STRATEGIES = [("incr", "interpret"), ("incr", "codegen"),
              ("reeval", "interpret")]


class TestSingularity:
    @staticmethod
    def _assert_rejected_unchanged(session, update):
        before = {name: session[name].copy() for name in ("E", "W")}
        with pytest.raises(SingularUpdateError):
            session.apply_update(update)
        for name, value in before.items():
            np.testing.assert_array_equal(session[name], value, err_msg=name)
        assert session.update_count == 0

    @pytest.mark.parametrize("plan, mode", STRATEGIES)
    def test_singular_rank_one_update_detected(self, plan, mode):
        # E = I, u = -e0, v = e0 zeroes E[0, 0]: 1 + v'Wu = 0.
        session = inverse_session(np.eye(4), mode, plan)
        e0 = unit(4, 0)
        self._assert_rejected_unchanged(session, FactoredUpdate("E", -e0, e0))
        session.apply_update(FactoredUpdate("E", e0, e0))
        np.testing.assert_allclose(session["W"], np.diag([0.5, 1, 1, 1]))

    @pytest.mark.parametrize("plan, mode", STRATEGIES)
    def test_singular_capacitance_detected(self, plan, mode):
        # A rank-2 update zeroing E[0, 0] and E[1, 1]: I + V'WU singular.
        session = inverse_session(np.eye(4), mode, plan)
        v = np.hstack([unit(4, 0), unit(4, 1)])
        self._assert_rejected_unchanged(session, FactoredUpdate("E", -v, v))
        assert session.revalidate() < 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), k=st.integers(1, 4),
       mode=st.sampled_from(MODES))
def test_woodbury_property_random_ranks(seed, k, mode):
    rng = np.random.default_rng(seed)
    size = 8
    e = well_conditioned(rng, size)
    u = 0.5 * rng.normal(size=(size, k))
    v = 0.5 * rng.normal(size=(size, k))
    session = inverse_session(e, mode)
    session.apply_update(FactoredUpdate("E", u, v))
    np.testing.assert_allclose(session["W"], np.linalg.inv(e + u @ v.T),
                               rtol=1e-6, atol=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), mode=st.sampled_from(MODES))
def test_inverse_identity_property(seed, mode):
    """(E + uv')(W + dW) == I after the update."""
    rng = np.random.default_rng(seed)
    size = 6
    e = well_conditioned(rng, size)
    u, v = rng.normal(size=(size, 1)), rng.normal(size=(size, 1))
    session = inverse_session(e, mode)
    session.apply_update(FactoredUpdate("E", u, v))
    np.testing.assert_allclose(session["E"] @ session["W"], np.eye(size),
                               atol=1e-7)
