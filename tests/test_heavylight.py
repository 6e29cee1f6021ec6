"""Fold-policy tests for heavy-light maintenance.

The randomized differential harness (partitioned sessions vs the
unit-at-a-time oracle across program shape x Zipf skew x backend x mode
x (budget, rank_bound), ``with_plan`` flips, monitor-driven
re-planning, the ``refresh(u, v)`` front end) lives in
``tests/test_deferral.py``, shared with uniform batching; this file
keeps what is specific to the split: the dense-column path, the fold
policies, adaptive heavy-set re-tunes, the pagerank driver plumbing,
and the :class:`~repro.planner.plan.StreamSketch` edge cases that keep
the planner honest — on a uniform stream the heavy set collapses to
empty and ``partition="heavy-light"`` stays unchosen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import session_scenario
from stream_helpers import (
    BACKENDS,
    SESSION_CONFIGS,
    assert_views_close,
    chain_scenario,
    make_session,
)

from repro.planner import MaintenancePlan, StreamSketch, WorkloadStats, rank_program
from repro.runtime import (
    FactoredUpdate,
    HeavyLightMaintainer,
    IVMSession,
    open_session,
)


class TestDenseColumns:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_dense_factor_columns_take_the_compacted_path(self, data):
        """Non-indicator (dense ``u``) columns must stay exact too —
        they stack into the QR+SVD collector, never accumulator rows."""
        program, n, inputs = data.draw(session_scenario())
        backend = data.draw(st.sampled_from(BACKENDS))
        strategy, mode = data.draw(st.sampled_from(SESSION_CONFIGS))
        count = data.draw(st.integers(4, 10))
        target = program.input_names[0]

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = []
        for index in range(count):
            if index % 2 == 0:
                u = 0.1 * rng.standard_normal((n, 1))  # dense column
            else:
                u = np.zeros((n, 1))
                u[int(rng.integers(n)), 0] = 1.0       # indicator column
            updates.append(
                FactoredUpdate(target, u, 0.05 * rng.standard_normal((n, 1))))

        oracle = make_session(program, inputs)
        split = make_session(program, inputs, strategy, mode, backend)
        split.set_partition("heavy-light", heavy_budget=2, rank_bound=3)
        for update in updates:
            oracle.apply_update(update)
            split.apply_update(update)
        assert_views_close(split, oracle, program, context="mixed columns")


class TestFoldPolicies:
    def _open(self, rng, **kwargs):
        program, n, inputs = chain_scenario(rng)
        session = IVMSession(program, inputs, dims={"n": n})
        session.set_partition("heavy-light", **kwargs)
        return program, n, session

    def _hits(self, rng, n, rows, target="A", scale=0.05):
        for row in rows:
            u = np.zeros((n, 1))
            u[row, 0] = 1.0
            yield FactoredUpdate(target, u, scale * rng.standard_normal((n, 1)))

    def test_read_folds_everything(self, rng):
        program, n, session = self._open(rng, heavy_budget=2, rank_bound=64)
        for update in self._hits(rng, n, [0, 0, 1, 2]):
            session.apply_update(update)
        partitioner = session.deferral
        assert partitioner.pending == 4
        session.view("C")  # flush-on-read
        assert partitioner.pending == 0
        assert partitioner.light_rank == 0
        assert session.partition_stats.folds == 1

    def test_rank_bound_folds_light_tail(self, rng):
        program, n, session = self._open(rng, heavy_budget=1, rank_bound=3,
                                         retune_every=1000)
        # Five distinct light rows with no heavy set: folds at rank 3.
        for update in self._hits(rng, n, [1, 2, 3, 4, 5]):
            session.apply_update(update)
        stats = session.partition_stats
        assert stats.folds == 1
        assert stats.light_folded_rank == 3
        assert session.deferral.light_rank == 2

    def test_repeats_merge_without_rank_growth(self, rng):
        program, n, session = self._open(rng, heavy_budget=1, rank_bound=3,
                                         retune_every=1000)
        # One row hit many times merges into one pending rank: no fold.
        for update in self._hits(rng, n, [4] * 10):
            session.apply_update(update)
        assert session.partition_stats.folds == 0
        assert session.deferral.light_rank == 1

    def test_target_change_flushes_pending_generation(self, rng):
        from repro.frontend import parse_program

        program = parse_program(
            "input A(n, n); input B(n, n); C := A * B; output C;"
        )
        n = 6
        inputs = {"A": 0.2 * rng.standard_normal((n, n)),
                  "B": 0.2 * rng.standard_normal((n, n))}
        oracle = IVMSession(program, {k: v.copy() for k, v in inputs.items()},
                            dims={"n": n})
        session = IVMSession(program, inputs, dims={"n": n})
        session.set_partition("heavy-light", heavy_budget=2)
        stream = [("A", 0), ("A", 1), ("B", 0), ("A", 2)]
        for target, row in stream:
            update = next(self._hits(rng, n, [row], target=target))
            oracle.apply_update(update)
            session.apply_update(update)
        # The B update forced the pending A generation to fold first,
        # then A again folded B: cross-input ordering is preserved.
        assert session.partition_stats.folds >= 2
        assert_views_close(session, oracle, program, context="cross-target")

    def test_max_staleness_bounds_pending_updates(self, rng):
        program, n, session = self._open(rng, heavy_budget=2, rank_bound=64,
                                         max_staleness=3, retune_every=1000)
        for update in self._hits(rng, n, [0, 0, 0]):
            session.apply_update(update)
        # Three hits on one heavy-mergeable row is still rank 1 pending,
        # but staleness counts updates, not rank: the bound folds it.
        assert session.deferral.pending == 0
        assert session.partition_stats.folds == 1

    def test_retune_transfers_between_tiers_without_folding(self, rng):
        program, n, session = self._open(rng, heavy_budget=1, rank_bound=64,
                                         retune_every=4)
        partitioner = session.deferral
        # Warm-up: row 5 dominates, becomes heavy on the retune cadence.
        for update in self._hits(rng, n, [5, 5, 5, 5]):
            session.apply_update(update)
        assert partitioner.heavy_rows == (5,)
        assert session.partition_stats.retunes >= 1
        assert session.partition_stats.folds == 0  # transfer, not refresh
        # Regime change: row 6 takes over; membership follows, still
        # without a session fold, and nothing is lost either way.
        oracle_rows = [5, 5, 5, 5] + [6] * 12
        for update in self._hits(rng, n, [6] * 12):
            session.apply_update(update)
        assert partitioner.heavy_rows == (6,)
        assert session.partition_stats.folds == 0
        assert partitioner.sketch.total == len(oracle_rows)

    def test_stats_survive_with_plan_switch(self, rng):
        program, n, session = self._open(rng, heavy_budget=2, rank_bound=64)
        for update in self._hits(rng, n, [0, 1, 0]):
            session.apply_update(update)
        switched = session.with_plan(MaintenancePlan("REEVAL"))
        stats = switched.partition_stats
        assert stats.updates == 3
        assert stats.folds == 1  # the flush-before-switch fold

    def test_open_session_partition_validation(self, rng):
        program, n, inputs = chain_scenario(rng)
        with pytest.raises(ValueError):
            open_session(program, inputs, partition="sometimes")
        with pytest.raises(ValueError):
            HeavyLightMaintainer(budget=0)
        with pytest.raises(ValueError):
            HeavyLightMaintainer(rank_bound=0)


class TestPageRankPartition:
    """Driver plumbing: the transposed split on pagerank's column updates."""

    def _graph(self, rng, n=24):
        adjacency = (rng.random((n, n)) < 0.2).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        return adjacency

    def test_bursty_crawl_matches_unpartitioned(self, rng):
        from repro.analytics.pagerank import IncrementalPageRank

        n = 24
        adjacency = self._graph(rng, n)
        plain = IncrementalPageRank(adjacency.copy(), k=8, strategy="INCR")
        split = IncrementalPageRank(adjacency.copy(), k=8, strategy="INCR",
                                    partition="heavy-light", heavy_budget=2)
        # Bursty crawl: most edits hit source node 3 (one hot column).
        edits = 0
        for i in range(30):
            source = 3 if i % 3 else int(rng.integers(n))
            target = int(rng.integers(n))
            if source == target:
                continue
            if adjacency[target, source]:
                plain.remove_edge(source, target)
                split.remove_edge(source, target)
            else:
                plain.add_edge(source, target)
                split.add_edge(source, target)
            adjacency[target, source] = 1.0 - adjacency[target, source]
            edits += 1
        # Reads fold first: ranks never lag the edits.
        np.testing.assert_allclose(split.ranks, plain.ranks,
                                   rtol=1e-8, atol=1e-10)
        stats = split._general.stats
        assert stats.updates == edits
        assert split.revalidate() < 1e-8

    def test_batch_and_partition_are_mutually_exclusive(self, rng):
        from repro.analytics.pagerank import IncrementalPageRank

        adjacency = self._graph(rng)
        with pytest.raises(ValueError):
            IncrementalPageRank(adjacency, strategy="INCR", batch=8,
                                partition="heavy-light")


class TestStreamSketchEdgeCases:
    """Satellite 6: the sketch must collapse gracefully off-skew."""

    def test_empty_stream_has_no_heavy_set(self):
        sketch = StreamSketch()
        assert sketch.heavy_keys(8) == []
        assert sketch.heavy_share(8) == 0.0
        assert sketch.light_fraction(8, 64) == 1.0

    def test_single_target_stream_is_all_heavy(self):
        sketch = StreamSketch()
        for _ in range(10):
            sketch.observe_key(3)
        assert sketch.heavy_keys(4) == [3]
        assert sketch.heavy_share(4) == 1.0

    def test_two_target_stream_fills_the_set(self):
        sketch = StreamSketch()
        for _ in range(8):
            sketch.observe_key(0)
            sketch.observe_key(1)
        assert sorted(sketch.heavy_keys(4)) == [0, 1]
        assert sketch.heavy_share(4) == 1.0

    def test_uniform_stream_collapses_to_empty(self):
        rng = np.random.default_rng(11)
        sketch = StreamSketch()
        for key in rng.integers(0, 64, size=512):
            sketch.observe_key(int(key))
        for budget in (4, 8, 16, 32):
            assert sketch.heavy_keys(budget) == [], budget
            assert sketch.heavy_share(budget) == 0.0

    def test_planner_keeps_uniform_on_uniform_stream(self, rng):
        program, n, inputs = chain_scenario(rng)
        sketch = StreamSketch()
        for key in rng.integers(0, n, size=256):
            sketch.observe_key(int(key))
        ranked = rank_program(
            program, inputs,
            stats=WorkloadStats(n=n, refresh_count=256,
                                distinct_fraction=sketch),
            price_batching=True,
        )
        assert all(plan.partition == "uniform" for plan in ranked)

    def test_planner_prices_heavy_light_on_skewed_stream(self, rng):
        from repro.frontend import parse_program

        # Large enough that refresh flops dominate the per-update
        # bookkeeping overhead the estimator charges the split.
        program = parse_program("input A(n, n); B := A * A; output B;")
        n = 64
        inputs = {"A": 0.2 * rng.standard_normal((n, n))}
        sketch = StreamSketch()
        # 80% of hits land on two rows: textbook heavy-light skew.
        for key in ([0] * 102, [1] * 102, list(range(n)) * 6):
            for k in key:
                sketch.observe_key(int(k))
        ranked = rank_program(
            program, inputs,
            stats=WorkloadStats(n=n, refresh_count=512,
                                distinct_fraction=sketch),
            price_batching=True,
        )
        best = ranked[0]
        assert best.partition == "heavy-light"
        assert best.heavy_budget in (4, 8, 16, 32)
        assert "/hl" in best.label
