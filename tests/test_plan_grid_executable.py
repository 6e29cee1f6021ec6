"""Every plan cell the advisor/planner can emit actually executes.

Kills "planner recommends a configuration no session accepts" bugs by
construction: each (strategy, model, backend, mode, batch_size) cell
from the ranked grids opens a real session/maintainer and survives a
short Zipf-skewed update stream with finite, oracle-consistent output.
"""

import numpy as np
import pytest
from stream_helpers import zipf_row_updates

from repro.cost.advisor import recommend_general, recommend_powers
from repro.frontend import parse_program
from repro.iterative.strategies import make_general, make_powers
from repro.planner import MaintenancePlan, WorkloadStats, rank_program
from repro.runtime import ReevalSession, open_session
from repro.runtime.batching import deferred


def _sparse_available() -> bool:
    try:
        import scipy  # noqa: F401

        return True
    except ImportError:
        return False


A4_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"


def _inputs(rng, n: int, density: float = 1.0):
    a = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
    if density < 1.0:
        a *= rng.random((n, n)) < density
    return {"A": a}


def _drive(session, rng, n: int, count: int = 6):
    for update in zipf_row_updates(rng, n, count, 2.0, scale=0.02):
        session.apply_update(update)
    return session.output()


class TestSessionGrid:
    """rank_program's full (strategy, backend, mode, batch_size) grid."""

    # n = 64 is the smallest the sparse backend stores as CSR: below it
    # the sparse cells are not admissible and the default grid is dense.
    @pytest.mark.parametrize("density,n", [(1.0, 16), (0.08, 64)])
    @pytest.mark.parametrize("refresh_count", [4, 400])
    def test_every_ranked_plan_opens_and_survives(self, rng, density, n,
                                                  refresh_count):
        if density < 1.0 and not _sparse_available():
            pytest.skip("sparse backend unavailable")
        program = parse_program(A4_SOURCE)
        inputs = _inputs(rng, n, density)
        stats = WorkloadStats(n=1, refresh_count=refresh_count)
        ranked = rank_program(program, inputs, stats=stats)
        assert ranked, "planner emitted no candidates"
        seen = set()
        reference = None
        for plan in ranked:
            seen.add((plan.strategy, plan.backend, plan.mode))
            assert plan.batch_size is not None and plan.batch_size >= 1
            session = open_session(
                program, {k: v.copy() for k, v in inputs.items()},
                plan=plan, refresh_count=refresh_count,
            )
            assert (session.plan.strategy, session.plan.backend) == (
                plan.strategy, plan.backend)
            if plan.batch_size > 1:
                assert session.batch_size == plan.batch_size
            out = _drive(session, np.random.default_rng(7), n)
            assert np.isfinite(out).all()
            if reference is None:
                reference = out
            else:
                scale = max(1.0, float(np.max(np.abs(reference))))
                np.testing.assert_allclose(out, reference, rtol=1e-6,
                                           atol=1e-7 * scale)
        # The grid genuinely covers both strategies and every backend.
        assert {s for s, _, _ in seen} == {"INCR", "REEVAL"}
        if density < 1.0:
            assert {b for _, b, _ in seen} >= {"dense", "sparse"}

    def test_forced_batch_widths_execute_everywhere(self, rng):
        program = parse_program(A4_SOURCE)
        n = 12
        inputs = _inputs(rng, n)
        for strategy in ("incr", "reeval"):
            for width in (2, 4, 16):
                session = open_session(
                    program, {k: v.copy() for k, v in inputs.items()},
                    plan=strategy, batch=width,
                )
                out = _drive(session, np.random.default_rng(3), n, count=9)
                assert np.isfinite(out).all()
                assert session.batch_stats.updates == 9

    def test_plan_attached_batch_survives_reeval_normalization(self, rng):
        """A hand-built plan cell with every axis set still opens."""
        program = parse_program(A4_SOURCE)
        n = 10
        for strategy in ("INCR", "REEVAL"):
            for mode in ("interpret", "codegen"):
                plan = MaintenancePlan(strategy, backend="dense", mode=mode,
                                       batch_size=3)
                session = open_session(program, _inputs(rng, n), plan=plan)
                out = _drive(session, np.random.default_rng(5), n)
                assert np.isfinite(out).all()
                if strategy == "REEVAL":
                    assert isinstance(session, ReevalSession)


class TestIterativeAdvisorGrid:
    """The Table 2 advisor's (strategy, model, s, backend) cells run."""

    def _plan_of(self, rec):
        return MaintenancePlan(rec.strategy, rec.model, rec.s,
                               rec.backend, "interpret")

    @pytest.mark.parametrize("density", [None, 0.05])
    def test_powers_cells(self, rng, density):
        if density is not None and not _sparse_available():
            pytest.skip("sparse backend unavailable")
        n, k = 24, 6
        extra = {} if density is None else {"density": density}
        a = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        if density is not None:
            a *= rng.random((n, n)) < density
        reference = None
        for rec in recommend_powers(n, k, **extra):
            for width in (1, 4):
                runner = make_powers(self._plan_of(rec), a.copy(), k)
                runner = deferred(runner, batch=width, backend=rec.backend)
                stream = np.random.default_rng(11)
                for i in range(5):
                    runner.refresh(np.eye(n)[:, [i % 3]],
                                   0.02 * stream.standard_normal((n, 1)))
                out = runner.result()
                assert np.isfinite(out).all()
                if reference is None:
                    reference = out
                else:
                    np.testing.assert_allclose(out, reference, atol=1e-8)

    def test_general_cells(self, rng):
        n, p, k = 24, 1, 6
        a = 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal((n, p))
        t0 = rng.standard_normal((n, p))
        reference = None
        for rec in recommend_general(n, p, k):
            for width in (1, 3):
                maintainer = make_general(self._plan_of(rec), a.copy(),
                                          b.copy(), t0.copy(), k)
                maintainer = deferred(maintainer, batch=width,
                                      backend=rec.backend)
                stream = np.random.default_rng(13)
                for i in range(5):
                    u = np.zeros((n, 1))
                    u[i % 2, 0] = 1.0
                    maintainer.refresh(u, 0.02 * stream.standard_normal((n, 1)))
                out = maintainer.result()
                assert np.isfinite(out).all()
                if reference is None:
                    reference = out
                else:
                    np.testing.assert_allclose(out, reference, atol=1e-7)
