"""Plan-driven batching: flush policies, validation, the stream sketch.

The randomized differential harness (batched sessions vs the
unit-at-a-time oracle, ``with_plan`` flips, monitor-driven re-planning)
lives in ``tests/test_deferral.py``, shared with the heavy-light
policy; this file keeps what is specific to uniform batching.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import shared_family
from stream_helpers import (
    assert_views_close,
    chain_scenario,
    make_session,
    zipf_row_updates,
)

from repro.planner import MaintenancePlan, StreamSketch, WorkloadStats, rank_program
from repro.runtime import IVMSession, open_session


class TestSharedFamilies:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_shared_family_tenants_match_unit_oracle(self, data):
        """Tenant families with aliased inputs (the latent ``exprgen``
        gap: scenarios never shared sub-terms across sessions) behave
        identically under batching, program by program."""
        programs, n, inputs = data.draw(shared_family())
        width = data.draw(st.sampled_from([2, 4]))
        count = data.draw(st.integers(4, 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, count, 1.5)

        for program in programs:
            oracle = make_session(program, inputs)
            batched = make_session(program, inputs)
            batched.set_batching(width)
            for update in updates:
                oracle.apply_update(update)
                batched.apply_update(update)
            assert_views_close(batched, oracle, program,
                               context="shared-family tenant at stream end")


class TestFlushPolicies:
    def _open(self, rng, width, **kwargs):
        program, n, inputs = chain_scenario(rng)
        session = IVMSession(program, inputs, dims={"n": n})
        session.set_batching(width, **kwargs)
        return session, n

    def test_width_triggers_flush(self, rng):
        session, n = self._open(rng, 3)
        for update in zipf_row_updates(rng, n, 7, 1.0):
            session.apply_update(update)
        assert session.batch_stats.flushes == 2       # 2 full batches
        assert session.deferral.pending == 1          # 1 still pending

    def test_max_staleness_bounds_pending(self, rng):
        session, n = self._open(rng, 16, max_staleness=2)
        for update in zipf_row_updates(rng, n, 6, 1.0):
            session.apply_update(update)
        assert session.batch_stats.flushes == 3
        assert session.deferral.pending == 0

    def test_read_flushes(self, rng):
        session, n = self._open(rng, 16)
        for update in zipf_row_updates(rng, n, 5, 1.0):
            session.apply_update(update)
        assert session.deferral.pending == 5
        session.view("C")
        assert session.deferral.pending == 0
        assert session.batch_stats.flushes == 1

    def test_revalidate_flushes(self, rng):
        session, n = self._open(rng, 16)
        for update in zipf_row_updates(rng, n, 4, 1.0):
            session.apply_update(update)
        assert session.revalidate() < 1e-8  # drift probe saw the updates
        assert session.deferral.pending == 0

    def test_target_change_flushes(self, rng):
        from repro.compiler import Program, Statement
        from repro.expr import MatrixSymbol, matmul
        from repro.runtime import FactoredUpdate

        n = 6
        a, b = MatrixSymbol("A", n, n), MatrixSymbol("B", n, n)
        v0 = MatrixSymbol("V0", n, n)
        program = Program([a, b], [Statement(v0, matmul(a, b))])
        session = IVMSession(program, {
            "A": rng.standard_normal((n, n)),
            "B": rng.standard_normal((n, n)),
        })
        session.set_batching(8)
        session.apply_update(FactoredUpdate("A", rng.standard_normal((n, 1)),
                                            rng.standard_normal((n, 1))))
        session.apply_update(FactoredUpdate("B", rng.standard_normal((n, 1)),
                                            rng.standard_normal((n, 1))))
        # The A-batch flushed when the B update arrived.
        assert session.batch_stats.flushes == 1
        assert session.deferral.target == "B"

    def test_unknown_target_rejected_at_enqueue(self, rng):
        from repro.runtime import FactoredUpdate

        session, n = self._open(rng, 4)
        with pytest.raises(KeyError, match="no trigger"):
            session.apply_update(FactoredUpdate("Z", np.ones((n, 1)),
                                                np.ones((n, 1))))

    def test_disabling_batching_flushes(self, rng):
        session, n = self._open(rng, 16)
        updates = zipf_row_updates(rng, n, 3, 1.0)
        for update in updates:
            session.apply_update(update)
        before = session["C"].copy()  # read flushes everything pending
        session.set_batching(None)
        assert session.batch_stats is None
        # Disabling did not lose or re-apply anything.
        np.testing.assert_array_equal(session["C"], before)


class TestBatchingValidation:
    def test_open_session_rejects_bad_batch(self, rng):
        program, n, inputs = chain_scenario(rng)
        with pytest.raises(ValueError, match="batch must be"):
            open_session(program, inputs, batch="sometimes")

    def test_open_session_rejects_zero_width(self, rng):
        program, n, inputs = chain_scenario(rng)
        with pytest.raises(ValueError, match="width must be >= 1"):
            open_session(program, inputs, batch=0)

    def test_open_session_batch_true_means_auto(self, rng):
        program, n, inputs = chain_scenario(rng)
        session = open_session(program, inputs, batch=True,
                               refresh_count=500)
        assert session.batch_size == (session.plan.batch_size or 1)
        assert session.deferral_spec.batch == "auto"

    def test_stats_survive_width_retune_and_switch(self, rng):
        program, n, inputs = chain_scenario(rng)
        session = IVMSession(program, inputs, dims={"n": n})
        session.set_batching(3)
        updates = zipf_row_updates(rng, n, 6, 2.0)
        for update in updates[:3]:
            session.apply_update(update)
        session.set_batching(5)      # re-tune: stats must carry over
        assert session.batch_stats.updates == 3
        for update in updates[3:]:
            session.apply_update(update)
        switched = session.with_plan(MaintenancePlan("REEVAL", batch_size=5))
        assert switched.batch_stats.updates == 6  # spans the whole stream

    def test_session_batcher_rejects_width_one(self):
        from repro.runtime import SessionBatcher

        with pytest.raises(ValueError, match="per-update"):
            SessionBatcher(1)
        with pytest.raises(ValueError, match="max_staleness"):
            SessionBatcher(4, max_staleness=0)

    def test_set_batching_width_one_means_off(self, rng):
        program, n, inputs = chain_scenario(rng)
        session = IVMSession(program, inputs, dims={"n": n})
        session.set_batching(1)
        assert session.batch_size == 1
        assert session.batch_stats is None

    def test_batch_stats_compression_degenerate_cases(self):
        from repro.runtime import BatchStats

        assert BatchStats().compression == 1.0
        cancelled = BatchStats(stacked_width=4, compacted_width=0)
        assert cancelled.compression == 4.0

    def test_non_2d_factor_rejected(self, rng):
        from repro.delta.batch import BatchCollector

        with pytest.raises(ValueError, match="1- or 2-D"):
            BatchCollector().add(rng.normal(size=(2, 2, 2)),
                                 rng.normal(size=(2, 2, 2)))

    def test_float_distinct_fraction_resolves(self):
        from repro.planner import resolve_distinct_fraction

        assert resolve_distinct_fraction(None, 8) == 1.0
        assert resolve_distinct_fraction(0.25, 8) == 0.25
        # Clamped to the at-least-one-target floor.
        assert resolve_distinct_fraction(0.01, 8) == pytest.approx(1 / 8)


class TestStreamSketch:
    def test_empty_sketch_is_conservative(self):
        assert StreamSketch().fraction(32) == 1.0

    def test_width_one_is_always_distinct(self):
        sketch = StreamSketch()
        sketch.observe_key(3)
        assert sketch.fraction(1) == 1.0

    def test_skewed_stream_predicts_compression(self, rng):
        from repro.workloads.zipf import sample_rows

        hot = StreamSketch()
        for row in sample_rows(rng, 64, 400, 3.0):
            hot.observe_key(int(row))
        uniform = StreamSketch()
        for row in sample_rows(rng, 64, 400, 0.0):
            uniform.observe_key(int(row))
        assert hot.fraction(32) < 0.5 < uniform.fraction(32)

    def test_single_target_fraction_floor(self):
        sketch = StreamSketch()
        for _ in range(100):
            sketch.observe_key(0)
        assert sketch.fraction(16) == pytest.approx(1.0 / 16)

    def test_overflow_counts_as_distinct(self):
        sketch = StreamSketch(capacity=2)
        for key in range(10):
            sketch.observe_key(key)
        assert sketch.distinct_targets() == 10
        # 8/10 of the mass is untracked and assumed incompressible.
        assert sketch.fraction(8) > 0.8

    def test_observe_derives_column_keys(self, rng):
        from repro.runtime import FactoredUpdate

        sketch = StreamSketch()
        u = np.zeros((10, 2))
        u[4, 0] = 1.0
        u[7, 1] = 1.0
        sketch.observe(FactoredUpdate("A", u, rng.standard_normal((10, 2))))
        assert sketch.total == 2
        assert sketch.distinct_targets() == 2

    def test_price_batching_discounts_batched_cells(self, rng):
        """The opt-in ranking form prices cells at their batched cost."""
        from repro.frontend import parse_program

        program = parse_program("input A(n, n); B := A * A; output B;")
        inputs = {"A": rng.standard_normal((48, 48))}
        stats = WorkloadStats(n=1, refresh_count=500)
        plain = rank_program(program, inputs, stats=stats,
                             strategies=("REEVAL",), backends=["dense"])[0]
        priced = rank_program(program, inputs, stats=stats,
                              strategies=("REEVAL",), backends=["dense"],
                              price_batching=True)[0]
        assert priced.batch_size == plain.batch_size
        if plain.batch_size > 1:
            # One re-evaluation amortized across the batch must be
            # cheaper than one per update.
            assert priced.predicted_time < plain.predicted_time

    def test_sketch_raises_planned_width_under_skew(self, rng):
        """The Zipf-aware estimator makes batching look at least as good."""
        from repro.frontend import parse_program

        program = parse_program("input A(n, n); B := A * A; output B;")
        n = 64
        inputs = {"A": rng.standard_normal((n, n))}
        sketch = StreamSketch()
        for _ in range(300):
            sketch.observe_key(int(rng.integers(3)))  # 3 hot rows

        def best_incr(stats):
            ranked = rank_program(program, inputs, stats=stats,
                                  strategies=("INCR",), backends=["dense"])
            return ranked[0].batch_size

        base = best_incr(WorkloadStats(n=1, refresh_count=500))
        skewed = best_incr(WorkloadStats(n=1, refresh_count=500,
                                         distinct_fraction=sketch))
        assert skewed >= base
        assert skewed > 1
