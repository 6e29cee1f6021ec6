"""Batch-update compaction (the Table 4 rank insight as a feature)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.batch import (
    BatchCollector,
    compact_factors,
    compact_updates,
    stack_updates,
)
from repro.iterative import IncrementalPowers, Model


def rank1(rng, n, row=None):
    u = np.zeros((n, 1))
    u[rng.integers(n) if row is None else row, 0] = 1.0
    return u, rng.normal(size=(n, 1))


class TestStack:
    def test_widths_equal_count(self, rng):
        updates = [rank1(rng, 6) for _ in range(4)]
        u, v = stack_updates(updates)
        assert u.shape == (6, 4) and v.shape == (6, 4)

    def test_dense_equivalence(self, rng):
        updates = [rank1(rng, 5) for _ in range(3)]
        u, v = stack_updates(updates)
        expected = sum(a @ b.T for a, b in updates)
        np.testing.assert_allclose(u @ v.T, expected, atol=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            stack_updates([])


class TestCompactFactors:
    def test_value_preserved(self, rng):
        u = rng.normal(size=(8, 5))
        v = rng.normal(size=(8, 5))
        left, right = compact_factors(u, v)
        np.testing.assert_allclose(left @ right.T, u @ v.T, atol=1e-9)

    def test_full_rank_batch_keeps_width(self, rng):
        u = rng.normal(size=(10, 4))
        v = rng.normal(size=(10, 4))
        left, _ = compact_factors(u, v)
        assert left.shape[1] == 4

    def test_duplicate_rows_compact(self, rng):
        # 12 updates, all on row 3: a rank-1 change.
        updates = [rank1(rng, 8, row=3) for _ in range(12)]
        left, right = compact_updates(updates)
        assert left.shape[1] == 1
        expected = sum(a @ b.T for a, b in updates)
        np.testing.assert_allclose(left @ right.T, expected, atol=1e-9)

    def test_zipf_batch_rank_bounded_by_distinct_rows(self, rng):
        rows = [0, 0, 0, 1, 1, 2]  # 6 updates, 3 distinct rows
        updates = [rank1(rng, 10, row=r) for r in rows]
        left, _ = compact_updates(updates)
        assert left.shape[1] <= 3

    def test_cancelling_updates_compact_to_zero(self, rng):
        u, v = rank1(rng, 6)
        left, right = compact_updates([(u, v), (u, -v)])
        assert left.shape[1] == 0

    def test_rectangular_updates(self, rng):
        # Updates to a (rows x cols) matrix: u in R^rows, v in R^cols.
        u = rng.normal(size=(9, 3))
        v = rng.normal(size=(5, 3))
        left, right = compact_factors(u, v)
        np.testing.assert_allclose(left @ right.T, u @ v.T, atol=1e-9)

    def test_shape_validation(self, rng):
        with pytest.raises(ValueError, match="factors must be"):
            compact_factors(rng.normal(size=(4, 2)), rng.normal(size=(4, 3)))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 9999),
        n=st.integers(2, 12),
        m=st.integers(1, 8),
        distinct=st.integers(1, 4),
    )
    def test_property_rank_and_value(self, seed, n, m, distinct):
        rng = np.random.default_rng(seed)
        rows = [int(rng.integers(min(distinct, n))) for _ in range(m)]
        updates = [rank1(rng, n, row=r) for r in rows]
        left, right = compact_updates(updates)
        assert left.shape[1] <= min(len(set(rows)), m)
        expected = sum(a @ b.T for a, b in updates)
        np.testing.assert_allclose(left @ right.T, expected, atol=1e-8)


class TestBatchCollector:
    def test_flush_into_powers_maintainer(self, rng):
        n, k = 16, 8
        a = 0.3 * rng.normal(size=(n, n))
        batched = IncrementalPowers(a, k, Model.exponential())
        unbatched = IncrementalPowers(a, k, Model.exponential())

        collector = BatchCollector()
        for _ in range(6):
            u, v = rank1(rng, n, row=int(rng.integers(3)))
            collector.add(u, v)
            unbatched.refresh(u, v)
        size, rank, dropped = collector.flush(batched)

        assert size == 6 and rank <= 3 and dropped == 0.0
        np.testing.assert_allclose(batched.result(), unbatched.result(),
                                   atol=1e-7)

    def test_flush_clears(self, rng):
        collector = BatchCollector()
        collector.add(*rank1(rng, 4))
        assert len(collector) == 1
        collector.flush(IncrementalPowers(np.eye(4) * 0.5, 2, Model.linear()))
        assert len(collector) == 0

    def test_empty_flush_is_noop(self):
        class Exploding:
            def refresh(self, u, v):
                raise AssertionError("refresh must not be called")

        assert BatchCollector().flush(Exploding()) == (0, 0, 0.0)

    def test_rank_cap_truncates_and_reports(self, rng):
        collector = BatchCollector(rank_cap=2)
        for row in (0, 1, 2, 3):
            collector.add(*rank1(rng, 8, row=row))
        left, right, dropped = collector.compacted()
        assert left.shape[1] == 2
        assert dropped > 0.0

    def test_rank_cap_validation(self):
        with pytest.raises(ValueError, match="positive"):
            BatchCollector(rank_cap=0)

    def test_truncation_keeps_dominant_mass(self, rng):
        # One huge update + several tiny ones: a rank-1 cap must keep
        # the huge direction.
        collector = BatchCollector(rank_cap=1)
        u_big = np.zeros((8, 1))
        u_big[0, 0] = 1.0
        v_big = 100.0 * rng.normal(size=(8, 1))
        collector.add(u_big, v_big)
        for row in (1, 2):
            u, v = rank1(rng, 8, row=row)
            collector.add(u, 0.001 * v)
        left, right, dropped = collector.compacted()
        exact = u_big @ v_big.T
        approx_err = np.linalg.norm(left @ right.T - exact, ord=2)
        assert approx_err < 0.01 * np.linalg.norm(exact, ord=2)


class TestCollectorEdgeCases:
    """ISSUE 1 satellite: empty flush, rank deficiency, rtol boundaries."""

    def test_empty_collector_reports_and_touches_nothing(self):
        class Sentinel:
            refreshed = False

            def refresh(self, u, v):
                self.refreshed = True

        collector = BatchCollector()
        sentinel = Sentinel()
        assert len(collector) == 0
        assert collector.flush(sentinel) == (0, 0, 0.0)
        assert not sentinel.refreshed

    def test_compacted_on_empty_collector_raises(self):
        with pytest.raises(ValueError, match="empty"):
            BatchCollector().compacted()

    def test_duplicate_row_batch_compacts_below_batch_size(self, rng):
        n, repeats = 8, 5
        collector = BatchCollector()
        base_v = rng.normal(size=(n, 1))
        for t in range(repeats):
            u = np.zeros((n, 1))
            u[3, 0] = 1.0
            collector.add(u, (t + 1.0) * base_v)  # same row, colinear deltas
        size, rank, dropped = collector.flush(
            IncrementalPowers(np.eye(n), 2, Model.linear())
        )
        assert size == repeats
        assert rank == 1  # one distinct (row, direction) pair
        assert dropped == 0.0

    def test_distinct_rows_bound_collector_rank(self, rng):
        n, rows = 10, (2, 7, 4)
        collector = BatchCollector()
        for _ in range(4):  # 12 updates over 3 distinct rows
            for row in rows:
                u = np.zeros((n, 1))
                u[row, 0] = 1.0
                collector.add(u, rng.normal(size=(n, 1)))
        left, right, dropped = collector.compacted()
        assert len(collector) == 12
        assert left.shape[1] == len(rows)
        assert dropped == 0.0

    def test_rtol_boundary_keeps_just_above_threshold(self):
        from repro.delta.batch import DEFAULT_RTOL

        n = 6
        u = np.eye(n)[:, :2]
        # Second direction sits just above the relative cutoff.
        margin = 1e3
        v = np.zeros((n, 2))
        v[0, 0] = 1.0
        v[1, 1] = DEFAULT_RTOL * margin
        left, right = compact_factors(u, v)
        assert left.shape[1] == 2
        np.testing.assert_allclose(left @ right.T, u @ v.T, atol=1e-13)

    def test_rtol_boundary_drops_just_below_threshold(self):
        from repro.delta.batch import DEFAULT_RTOL

        n = 6
        u = np.eye(n)[:, :2]
        v = np.zeros((n, 2))
        v[0, 0] = 1.0
        v[1, 1] = DEFAULT_RTOL * 1e-3  # below the cutoff: numerical noise
        left, right = compact_factors(u, v)
        assert left.shape[1] == 1
        # The dominant direction survives exactly.
        np.testing.assert_allclose(left @ right.T, np.outer(u[:, 0], v[:, 0]),
                                   atol=1e-12)

    def test_custom_rtol_widens_or_narrows_the_keep_set(self):
        n = 5
        u = np.eye(n)[:, :2]
        v = np.zeros((n, 2))
        v[0, 0] = 1.0
        v[1, 1] = 1e-6
        loose_l, _ = compact_factors(u, v, rtol=1e-4)
        tight_l, _ = compact_factors(u, v, rtol=1e-9)
        assert loose_l.shape[1] == 1
        assert tight_l.shape[1] == 2

    def test_collector_with_explicit_backend_matches_default(self, rng):
        pytest.importorskip("scipy")
        updates = [rank1(rng, 7) for _ in range(4)]
        default = BatchCollector()
        sparse = BatchCollector(backend="sparse")
        for u, v in updates:
            default.add(u, v)
            sparse.add(u, v)
        dl, dr, _ = default.compacted()
        sl, sr, _ = sparse.compacted()
        np.testing.assert_allclose(dl @ dr.T, sl @ sr.T, atol=1e-12)


class TestRankKAndRankCollapse:
    """ISSUE 5 satellite: wide blocks, zero-rank batches, NaN guards."""

    def test_rank_k_blocks_accepted(self, rng):
        # A rank-2 block plus two rank-1 updates: widths accumulate.
        collector = BatchCollector()
        u2 = rng.normal(size=(8, 2))
        v2 = rng.normal(size=(8, 2))
        collector.add(u2, v2)
        u1, v1 = rank1(rng, 8)
        collector.add(u1, v1)
        assert len(collector) == 2
        assert collector.pending_width == 3
        left, right, dropped = collector.compacted()
        expected = u2 @ v2.T + u1 @ v1.T
        np.testing.assert_allclose(left @ right.T, expected, atol=1e-9)
        assert dropped == 0.0

    def test_mismatched_block_widths_rejected(self, rng):
        with pytest.raises(ValueError, match="widths disagree"):
            BatchCollector().add(rng.normal(size=(6, 2)),
                                 rng.normal(size=(6, 3)))

    def test_zero_width_block_contributes_nothing(self, rng):
        collector = BatchCollector()
        collector.add(np.zeros((5, 0)), np.zeros((5, 0)))
        u, v = rank1(rng, 5)
        collector.add(u, v)
        left, right, _ = collector.compacted()
        assert not np.isnan(left).any() and not np.isnan(right).any()
        np.testing.assert_allclose(left @ right.T, u @ v.T, atol=1e-12)

    def test_all_zero_batch_compacts_to_rank_zero_without_nan(self):
        collector = BatchCollector()
        for _ in range(4):
            collector.add(np.zeros((6, 1)), np.zeros((6, 1)))
        left, right, dropped = collector.compacted()
        assert left.shape == (6, 0) and right.shape == (6, 0)
        assert not np.isnan(left).any() and not np.isnan(right).any()
        assert dropped == 0.0

    def test_cancelling_batch_flush_skips_refresh(self, rng):
        class Exploding:
            def refresh(self, u, v):
                raise AssertionError("zero-rank batch must not refresh")

        collector = BatchCollector()
        u, v = rank1(rng, 6)
        collector.add(u, v)
        collector.add(u, -v)
        size, rank, dropped = collector.flush(Exploding())
        assert (size, rank, dropped) == (2, 0, 0.0)
        assert len(collector) == 0

    def test_duplicate_column_batch_no_nan(self, rng):
        # Identical updates repeated: rank collapses to 1, factors stay
        # finite (the QR of a rank-deficient stack must not poison the
        # SVD core).
        collector = BatchCollector()
        u, v = rank1(rng, 7)
        for _ in range(5):
            collector.add(u.copy(), v.copy())
        left, right, _ = collector.compacted()
        assert left.shape[1] == 1
        assert np.isfinite(left).all() and np.isfinite(right).all()
        np.testing.assert_allclose(left @ right.T, 5.0 * (u @ v.T),
                                   atol=1e-9)

    def test_clear_drops_pending(self, rng):
        collector = BatchCollector()
        collector.add(*rank1(rng, 4))
        collector.clear()
        assert len(collector) == 0
        assert collector.flush(object()) == (0, 0, 0.0)
