"""Heavy-light adaptive maintenance for skewed update streams.

Uniform batching (:mod:`repro.runtime.batching`) exploits skew only
through batch *width*: a Zipf-skewed window of ``m`` updates compacts
below rank ``m``, but every distinct target a window touches is
propagated again in the next window.  The heavy-light split —
Abo-Khamis et al., "Maintaining Queries under Updates Using Heavy-Light
Partitioning of the Input Relations" — exploits it structurally, per
*target row*:

* **Heavy hitters** (a small set chosen adaptively from
  :class:`~repro.planner.plan.StreamSketch` occupancy estimates) merge
  eagerly, in place, into preallocated dense accumulator rows: a hit on
  heavy row ``i`` with factor column ``u = a e_i`` accumulates ``a v``
  into that row's slot — ``O(cols)``, exact, zero marginal rank.  The
  heavy block stays pending across light folds and is propagated
  through the session's trigger (in-place kernels) only on read,
  ``max_staleness``, or flush-before-switch — so the bulk of a skewed
  stream's mass costs amortized ``O(budget)`` refresh rank no matter
  how many hits it absorbs.
* **The light tail** defers into a low-rank pending block: indicator
  columns merge by row the same exact way (a dict of accumulator
  rows), while dense factor columns stack into a
  :class:`~repro.delta.batch.BatchCollector` and compact by QR+SVD.
  The tail folds in on read, when its pending rank grows past
  ``rank_bound``, or on flush-before-switch.  Tail repeats therefore
  compact across the whole deferral window — far longer than any
  uniform batch width — not just within one batch.

Exactness is by linearity: every trigger is exact for a factored update
against current state (the PR 5 invariant), additive updates to one
input commute, and merging ``a e_i v1' + b e_i v2'`` into
``e_i (a v1 + b v2)'`` is algebra, not approximation — so splitting a
stream into heavy and light blocks and folding them in any order yields
the state of unit-at-a-time application up to float summation order
(verified by the differential harness in ``tests/test_deferral.py``).
The maintainer is one of the two deferral policies behind the protocol
of :mod:`repro.runtime.batching`, with the same flush contract: reads
fold everything first, a target change folds, ``max_staleness`` bounds
the pending update count, and every policy switch folds first.

The split is priced, not hard-coded:
:func:`repro.cost.estimate.heavy_light_unit_cost` charges eager cost on
the sketch's heavy mass and deferred-fold cost on the tail, the planner
surfaces the choice as :attr:`MaintenancePlan.partition
<repro.planner.plan.MaintenancePlan.partition>`, and
:class:`~repro.runtime.drift.ReplanMonitor` re-tunes the mode and
budget mid-stream.  Heavy-set *membership* re-tunes continuously inside
the maintainer — a membership change transfers accumulator rows between
tiers in ``O(cols)`` per row, with no session refresh at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..delta.batch import DEFAULT_RTOL, BatchCollector
from .updates import FactoredUpdate

#: Default heavy-set capacity (eagerly maintained accumulator rows).
DEFAULT_HEAVY_BUDGET = 16
#: Default pending-rank bound of the light tail: the tail folds into
#: the session when its distinct merged rows (plus compacted dense
#: columns) reach this rank.
DEFAULT_RANK_BOUND = 64
#: Updates between adaptive heavy-set membership re-checks.
DEFAULT_RETUNE_EVERY = 64
#: Candidate heavy budgets the planner prices
#: (:func:`repro.planner.planner._recommend_partition`).
HEAVY_BUDGET_GRID = (4, 8, 16, 32)


@dataclass
class HeavyLightStats:
    """Achieved split/merge counters of one heavy-light maintainer."""

    #: Update events absorbed through the partitioned path.
    updates: int = 0
    #: Factor columns merged eagerly into heavy accumulator rows.
    heavy_hits: int = 0
    #: Factor columns deferred into the light pending block.
    light_hits: int = 0
    #: Session refreshes actually issued (heavy, light, or combined).
    folds: int = 0
    #: Total rank of folded heavy blocks (bounded by budget per fold).
    heavy_folded_rank: int = 0
    #: Total pending rank of folded light blocks.
    light_folded_rank: int = 0
    #: QR+SVD compactions of stacked dense (non-indicator) columns.
    compactions: int = 0
    #: Heavy-set membership changes applied by :meth:`retune`.
    retunes: int = 0
    #: Spectral mass dropped by rank_cap truncation (0.0 normally).
    dropped_mass: float = 0.0

    @property
    def amortization(self) -> float:
        """Absorbed columns per propagated rank (1.0 = nothing saved)."""
        propagated = self.heavy_folded_rank + self.light_folded_rank
        absorbed = self.heavy_hits + self.light_hits
        if propagated == 0:
            return float(absorbed) if absorbed else 1.0
        return absorbed / propagated

    def as_dict(self) -> dict:
        """Counters as a JSON-ready dict (the bench/CLI schema)."""
        return {
            "updates": self.updates,
            "heavy_hits": self.heavy_hits,
            "light_hits": self.light_hits,
            "folds": self.folds,
            "heavy_folded_rank": self.heavy_folded_rank,
            "light_folded_rank": self.light_folded_rank,
            "compactions": self.compactions,
            "retunes": self.retunes,
            "amortization": self.amortization,
            "dropped_mass": self.dropped_mass,
        }


class HeavyLightMaintainer:
    """The heavy-light deferral policy (row split by update target).

    Implements the policy protocol of :mod:`repro.runtime.batching`
    (``absorb`` / ``flush`` / ``pending`` / ``stats`` / ``capture`` /
    ``restore`` / ``partition``) over any sink, so sessions and
    ``refresh(u, v)`` drivers treat it and
    :class:`~repro.runtime.batching.SessionBatcher` interchangeably.  ``budget`` caps the heavy set, ``rank_bound`` the
    light tail's pending rank, ``retune_every`` the membership
    re-check cadence, ``max_staleness`` the total pending update count
    (a read-lag bound, like the batcher's).  ``sketch`` lets a caller —
    :class:`~repro.runtime.drift.ReplanMonitor` — share an already-warm
    occupancy sketch so the heavy set is chosen from history rather
    than cold.

    Only *indicator-like* factor columns (exactly one nonzero ``u``
    entry, i.e. row updates) merge into accumulator rows — heavy or
    light.  Dense-``u`` columns always stack into the QR+SVD collector,
    whatever rows they touch: spreading one across accumulator rows
    would be wrong, and compaction is what exploits their structure.
    """

    partition = "heavy-light"

    def __init__(
        self,
        budget: int = DEFAULT_HEAVY_BUDGET,
        rank_bound: int = DEFAULT_RANK_BOUND,
        retune_every: int = DEFAULT_RETUNE_EVERY,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        backend=None,
        sketch=None,
        observe: bool = True,
    ):
        from ..planner.plan import StreamSketch

        if budget < 1:
            raise ValueError("heavy budget must be >= 1")
        if rank_bound < 1:
            raise ValueError("rank_bound must be >= 1")
        if retune_every < 1:
            raise ValueError("retune_every must be >= 1")
        if max_staleness is not None and max_staleness < 1:
            raise ValueError("max_staleness must be positive (or None)")
        self.budget = int(budget)
        self.rank_bound = int(rank_bound)
        self.retune_every = int(retune_every)
        self.max_staleness = max_staleness
        self.rtol = rtol
        self.sketch = sketch if sketch is not None else StreamSketch()
        #: False when the sketch is fed externally (a ReplanMonitor
        #: observes every update it supervises): the maintainer then
        #: reads occupancy without double-counting the stream.
        self.observe_stream = bool(observe)
        #: Dense (non-indicator) light columns, QR+SVD-compacted.
        self.collector = BatchCollector(rtol=rtol, backend=backend)
        self.target: str | None = None
        self.stats = HeavyLightStats()
        #: Update events absorbed but not yet folded.
        self.pending = 0
        #: Updates absorbed since the last membership re-check.
        self.since_retune = 0
        #: The uniform-batch policy this split displaced, riding along
        #: idle (set by :func:`~repro.runtime.batching.resolve_deferral`).
        self.shadowed = None
        self._rows_n: int | None = None
        self._cols: int | None = None
        self._slot_rows: list[int] = []
        self._heavy_slots: dict[int, int] = {}
        self._heavy_block: np.ndarray | None = None
        self._heavy_touched = np.zeros(0, dtype=bool)
        #: Light indicator merges: row -> accumulated ``v`` row.
        self._light_acc: dict[int, np.ndarray] = {}

    @property
    def heavy_rows(self) -> tuple[int, ...]:
        """Current heavy-set membership (row keys, slot order)."""
        return tuple(self._slot_rows)

    @property
    def light_rank(self) -> int:
        """Pending rank of the light tail (merged rows + stacked cols)."""
        return len(self._light_acc) + self.collector.pending_width

    @property
    def _compact_trigger(self) -> int:
        """Stacked dense width at which an in-place compaction fires."""
        return max(2 * self.rank_bound, 8)

    def absorb(self, sink, update) -> None:
        """Split one update, folding into ``sink`` per policy."""
        if self.target is not None and update.target != self.target:
            # Cross-input ordering is preserved by construction: one
            # pending generation never spans two targets.
            self.flush(sink)
        self.target = update.target
        u = np.asarray(update.u_block)
        v = np.asarray(update.v_block)
        self._ensure_shape(u.shape[0], v.shape[0])
        dense_cols: list[int] = []
        for col in range(u.shape[1]):
            column = u[:, col]
            nonzeros = np.flatnonzero(column)
            if nonzeros.size == 1:
                row = int(nonzeros[0])
                if self.observe_stream:
                    self.sketch.observe_key(row)
                scaled = column[row] * v[:, col]
                slot = self._heavy_slots.get(row)
                if slot is not None:
                    # Eager heavy merge: a e_i v' lands as row_i += a v.
                    self._heavy_block[slot] += scaled
                    self._heavy_touched[slot] = True
                    self.stats.heavy_hits += 1
                else:
                    acc = self._light_acc.get(row)
                    if acc is None:
                        self._light_acc[row] = scaled
                    else:
                        acc += scaled
                    self.stats.light_hits += 1
                continue
            if column.size and self.observe_stream:
                self.sketch.observe_key(int(np.argmax(np.abs(column))))
            dense_cols.append(col)
        if dense_cols:
            self.collector.add(u[:, dense_cols], v[:, dense_cols])
            self.stats.light_hits += len(dense_cols)
        self.stats.updates += 1
        self.pending += 1
        if self.collector.pending_width >= self._compact_trigger:
            self._compact_dense()
        if self.light_rank >= self.rank_bound:
            self._fold_light(sink)
        if (self.max_staleness is not None
                and self.pending >= self.max_staleness):
            self.flush(sink)
        self.since_retune += 1
        if self.since_retune >= self.retune_every:
            self.retune()

    def retune(self) -> bool:
        """Re-derive heavy-set membership from the sketch.

        Called on cadence from :meth:`absorb`, and by
        :func:`~repro.runtime.batching.resolve_deferral` when re-planning
        moved the budget.  A membership change *transfers* accumulated
        rows between tiers — a demoted heavy row moves into the light
        merge dict, a promoted light row moves into its new accumulator
        slot — so no refresh happens and nothing is lost.  Returns
        whether membership changed.
        """
        self.since_retune = 0
        desired = self.sketch.heavy_keys(self.budget)
        if set(desired) == set(self._heavy_slots):
            return False
        # Demote: pull accumulated heavy rows out before reseeding.
        demoted: dict[int, np.ndarray] = {}
        if self._heavy_block is not None:
            for row, slot in self._heavy_slots.items():
                if self._heavy_touched[slot]:
                    demoted[row] = self._heavy_block[slot].copy()
        self.seed(desired)
        for row, vec in demoted.items():
            slot = self._heavy_slots.get(row)
            if slot is not None:
                self._heavy_block[slot] = vec
                self._heavy_touched[slot] = True
            else:
                acc = self._light_acc.get(row)
                if acc is None:
                    self._light_acc[row] = vec
                else:
                    acc += vec
        # Promote: newly-heavy rows adopt their light accumulation.
        if self._heavy_block is not None:
            for row in list(self._light_acc):
                slot = self._heavy_slots.get(row)
                if slot is not None:
                    self._heavy_block[slot] += self._light_acc.pop(row)
                    self._heavy_touched[slot] = True
        self.stats.retunes += 1
        return True

    def flush(self, sink) -> tuple[int, int, float]:
        """Fold everything pending through ``sink`` as one refresh.

        Returns ``(pending, folded_rank, dropped)`` mirroring
        :meth:`SessionBatcher.flush
        <repro.runtime.batching.SessionBatcher.flush>`; an idle
        maintainer is a no-op.  Heavy and light blocks hstack into a
        single factored update so REEVAL sessions re-materialize once,
        not twice.
        """
        heavy = self._take_heavy()
        light = self._take_light()
        pending, self.pending = self.pending, 0
        target, self.target = self.target, None
        # The next generation may address a differently-shaped target:
        # drop the (drained) accumulator so it reallocates lazily.
        self._rows_n = self._cols = None
        self._heavy_block = None
        self._heavy_touched = np.zeros(len(self._slot_rows), dtype=bool)
        blocks = [b for b in (heavy, light) if b is not None]
        if not blocks:
            return 0, 0, 0.0
        left = np.hstack([u for u, _, _ in blocks])
        right = np.hstack([v for _, v, _ in blocks])
        dropped = sum(d for _, _, d in blocks)
        sink(FactoredUpdate(target, left, right))
        self.stats.folds += 1
        self.stats.dropped_mass += dropped
        return pending, left.shape[1], dropped

    def seed(self, heavy_rows, since_retune: int = 0) -> None:
        """Adopt heavy-set membership (emptying the slots) and re-tune phase.

        Both are value-affecting — membership decides which accumulator
        a hit merges into, i.e. the summation order — so they carry
        across policy switches and checkpoints.
        """
        self._slot_rows = [int(row) for row in heavy_rows]
        self._heavy_slots = {row: i for i, row in enumerate(self._slot_rows)}
        self._heavy_block = None
        self._heavy_touched = np.zeros(len(self._slot_rows), dtype=bool)
        if self._cols is not None and self._slot_rows:
            self._alloc_heavy()
        self.since_retune = int(since_retune)

    def capture(self) -> dict:
        """The state that survives a flush, JSON-ready (call flushed)."""
        return {
            "heavy_rows": list(self._slot_rows),
            "since_retune": self.since_retune,
            "observe": self.observe_stream,
            "sketch": self.sketch.capture(),
        }

    def restore(self, state: dict) -> None:
        """Re-enter the state :meth:`capture` recorded."""
        self.sketch.restore(state["sketch"])
        self.observe_stream = bool(state["observe"])
        self.seed(state["heavy_rows"], state["since_retune"])

    # -- internals ----------------------------------------------------

    def _ensure_shape(self, rows_n: int, cols: int) -> None:
        if self._rows_n is None:
            self._rows_n, self._cols = rows_n, cols
            if self._slot_rows and self._heavy_block is None:
                self._alloc_heavy()
        elif rows_n != self._rows_n or cols != self._cols:
            raise ValueError(
                f"update shape ({rows_n}, {cols}) does not match pending "
                f"generation ({self._rows_n}, {self._cols})")

    def _alloc_heavy(self) -> None:
        self._heavy_block = np.zeros((len(self._slot_rows), self._cols))
        self._heavy_touched = np.zeros(len(self._slot_rows), dtype=bool)

    def _take_heavy(self):
        """Drain the heavy accumulator as ``(u, v, dropped)`` factors."""
        if self._heavy_block is None or not self._heavy_touched.any():
            return None
        slots = np.flatnonzero(self._heavy_touched)
        rows = [self._slot_rows[s] for s in slots]
        u = np.zeros((self._rows_n, slots.size))
        u[rows, np.arange(slots.size)] = 1.0
        v = np.ascontiguousarray(self._heavy_block[slots].T)
        self._heavy_block[slots] = 0.0
        self._heavy_touched[:] = False
        self.stats.heavy_folded_rank += slots.size
        return u, v, 0.0

    def _take_light(self):
        """Drain the light tail as ``(L, R, dropped)`` factors."""
        blocks = []
        if self._light_acc:
            rows = list(self._light_acc)
            u = np.zeros((self._rows_n, len(rows)))
            u[rows, np.arange(len(rows))] = 1.0
            v = np.column_stack([self._light_acc[row] for row in rows])
            self._light_acc.clear()
            blocks.append((u, v, 0.0))
        if len(self.collector):
            left, right, dropped = self.collector.compacted()
            self.collector.clear()
            if left.shape[1]:
                blocks.append((left, right, dropped))
        if not blocks:
            return None
        left = np.hstack([u for u, _, _ in blocks])
        right = np.hstack([v for _, v, _ in blocks])
        dropped = sum(d for _, _, d in blocks)
        self.stats.light_folded_rank += left.shape[1]
        return left, right, dropped

    def _compact_dense(self) -> None:
        """Squeeze the stacked dense columns in place (no session touch)."""
        left, right, dropped = self.collector.compacted()
        self.collector.clear()
        if left.shape[1]:
            self.collector.add(left, right)
        self.stats.compactions += 1
        self.stats.dropped_mass += dropped

    def _fold_light(self, sink) -> None:
        light = self._take_light()
        if light is None:
            return
        left, right, dropped = light
        sink(FactoredUpdate(self.target, left, right))
        self.stats.folds += 1
        self.stats.dropped_mass += dropped


__all__ = [
    "DEFAULT_HEAVY_BUDGET",
    "DEFAULT_RANK_BOUND",
    "DEFAULT_RETUNE_EVERY",
    "HEAVY_BUDGET_GRID",
    "HeavyLightMaintainer",
    "HeavyLightStats",
]
