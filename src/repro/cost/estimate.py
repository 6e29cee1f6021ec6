"""Backend-aware maintenance cost estimates (the planner's cost model).

:mod:`repro.cost.complexity` exposes Table 2's closed forms — dense,
leading-order, per-refresh.  This module predicts the same quantities
*per backend* from input statistics (order, density, update rank,
expected refresh count), by walking the iterative models' actual
recurrence schedules and pricing every term through the backend's
``est_*`` cost hooks (:class:`repro.backends.base.Backend`).  A sparse
matvec is billed at ``O(nnz)`` with the sparse kernels' constant-factor
overhead, a power view that fills in is billed dense — so rankings over
the full (strategy, model, skip, backend) grid reflect what the kernels
would really do.

Two deliberate simplifications, documented so nobody mistakes these for
wall-clock predictions:

* densities of derived views follow the expected-walk-count heuristic
  ``density(A^i) ~ min(1, (d n)^i / n)`` for an input of density ``d``
  (exact fill-in is data-dependent);
* sums-of-powers views are priced like the matching power views (their
  factored recurrences have the same shape and widths, Appendix B).

Estimates split **setup** (initial materialization, paid once) from
**refresh** (paid per update), so high-update-rate workloads amortize
expensive view builds — the regime where HYBRID shines — while
one-shot workloads fall back to plain re-evaluation.

Two further axes the planner prices through this module:

* **in-place execution** (``inplace=True``): lowered triggers and
  workspace-backed maintainers run kernels through ``out=`` buffers, shedding the allocation share
  of every per-call overhead — refresh costs charge
  ``Backend.est_call_overhead(inplace=True)`` instead of the full
  constant (setup is always priced out-of-place: it runs once, through
  the evaluator);
* **batching** (:func:`compaction_cost`, :func:`batch_unit_cost`): a
  width-``m`` batch pays one QR+SVD compaction
  (:mod:`repro.delta.batch`) plus one rank-``r`` propagation instead of
  ``m`` rank-1 propagations, amortizing per-call overhead — the Table 4
  trade :func:`repro.planner.plan_program` folds into the plan grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, log
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..iterative.models import Model

#: Strategy names (shared with the advisor).
REEVAL = "REEVAL"
INCR = "INCR"
HYBRID = "HYBRID"

# Per-kernel-call overhead lives on the backend
# (``Backend.est_call_overhead_flops``): Python dispatch + allocation +
# BLAS/CSR call setup costs the same whether the operands are thin or
# square, so strategies that trade a few big products for many
# matrix-vector-shaped ones (factored INCR, HYBRID's per-step thin
# terms) are charged per *call* as well as per flop -- otherwise the
# model recommends sophistication that loses to call overhead at small
# scale, exactly what measurements show.


@dataclass(frozen=True)
class CostEstimate:
    """Predicted operation counts of one maintenance configuration."""

    setup: float    #: initial materialization (paid once)
    refresh: float  #: per-update maintenance cost
    space: float    #: stored entries between updates

    def total(self, refreshes: float) -> float:
        """Setup plus ``refreshes`` maintained updates."""
        return self.setup + refreshes * self.refresh


def power_density(n: int, density: float, i: int) -> float:
    """Expected density of ``A^i`` for an input of density ``density``.

    A random graph with average degree ``c = density * n`` has roughly
    ``c^i`` walks of length ``i`` from each node, hence
    ``min(1, c^i / n)`` of the matrix occupied.  Dense inputs stay
    dense; sub-critical graphs (``c < 1``) thin out.
    """
    if density >= 1.0:
        return 1.0
    c = density * n
    if c <= 0.0:
        return 0.0
    # Log space: c**i overflows a double once i*log(c) passes ~709.
    log_est = i * log(c) - log(n)
    if log_est >= 0.0:
        return 1.0
    return float(min(1.0, max(exp(log_est), density)))


def sums_density(n: int, density: float, i: int) -> float:
    """Expected density of ``S_i = I + A + ... + A^{i-1}`` (union bound)."""
    if density >= 1.0:
        return 1.0
    acc = 1.0 / max(n, 1)
    for j in range(1, i):
        acc += power_density(n, density, j)
        if acc >= 1.0:
            return 1.0
    return float(min(1.0, acc))


def _model_of(model: str, s: int | None) -> Model:
    # Only the iterative-family pricers reach a model: a program open
    # does not load the iterative stack.
    from ..iterative.models import Model

    if model == "linear":
        return Model.linear()
    if model == "exponential":
        return Model.exponential()
    if model == "skip":
        assert s is not None
        return Model.skip(s)
    raise ValueError(f"unknown model {model!r}")


def _mm(be, a_shape, b_shape, da=1.0, db=1.0) -> float:
    return be.est_matmul_flops(a_shape, b_shape, da, db)


def _powers_recompute(be, n: int, mdl: Model, k: int, density: float,
                      inplace: bool = False) -> float:
    """Full products along the schedule (REEVAL refresh / INCR setup)."""
    cost = 0.0
    for i in mdl.schedule(k)[1:]:
        j = mdl.predecessor(i)
        h = i - j
        cost += _mm(be, (n, n), (n, n),
                    power_density(n, density, h), power_density(n, density, j))
        cost += be.est_call_overhead(inplace)
    return cost


def _powers_incr_refresh(be, n: int, mdl: Model, k: int, density: float,
                         rank: int, u_nnz: float,
                         inplace: bool = False) -> float:
    """Factored propagation along the schedule (Appendix A widths)."""
    call = be.est_call_overhead(inplace)
    cost = 0.0
    for i in mdl.schedule(k)[1:]:
        j = mdl.predecessor(i)
        h = i - j
        w_h, w_j = h * rank, j * rank
        d_h = power_density(n, density, h)
        d_j = power_density(n, density, j)
        # P_h @ U_j, P_j' @ V_h, plus the thin core u_h (v_h' u_j).
        cost += _mm(be, (n, n), (n, w_j), d_h)
        cost += _mm(be, (n, n), (n, w_h), d_j)
        cost += 4.0 * n * w_h * w_j
        cost += be.est_add_outer_flops((n, n), power_density(n, density, i),
                                       i * rank, u_nnz)
        cost += 8.0 * call  # mm x4, hstack x2, add, apply
    cost += be.est_add_outer_flops((n, n), density, rank, u_nnz)
    cost += call
    return cost


def powers_cost(
    be,
    strategy: str,
    n: int,
    k: int,
    model: str,
    s: int | None = None,
    density: float = 1.0,
    rank: int = 1,
    update_nnz_per_col: float = 1.0,
    inplace: bool = False,
) -> CostEstimate:
    """Predicted costs of maintaining ``A^k`` under ``be``.

    ``inplace=True`` prices the refresh through the in-place kernel
    path (workspace-backed maintainers, lowered triggers); setup is
    always priced out-of-place — it runs once, allocating its views.
    """
    mdl = _model_of(model, s)
    recompute = _powers_recompute(be, n, mdl, k, density)
    if strategy == REEVAL:
        space = 3.0 * be.est_entries((n, n), density)
        refresh = (be.est_add_outer_flops((n, n), density, rank,
                                          update_nnz_per_col)
                   + be.est_call_overhead(inplace)
                   + _powers_recompute(be, n, mdl, k, density, inplace))
        return CostEstimate(recompute, refresh, space)
    if strategy == INCR:
        space = sum(
            be.est_entries((n, n), power_density(n, density, i))
            for i in mdl.schedule(k)
        )
        refresh = _powers_incr_refresh(be, n, mdl, k, density, rank,
                                       update_nnz_per_col, inplace)
        return CostEstimate(recompute, refresh, space)
    raise ValueError(f"matrix powers has no {strategy!r} strategy")


def _horizon(mdl: Model, k: int) -> int:
    """Highest P/S index the general recurrence reads (0 = none)."""
    from ..iterative.models import Model

    if mdl.kind == Model.LINEAR or k <= 1:
        return 0
    if mdl.kind == Model.EXPONENTIAL:
        return k // 2
    assert mdl.s is not None
    return min(mdl.s, k // 2)


def general_cost(
    be,
    strategy: str,
    n: int,
    p: int,
    k: int,
    model: str,
    s: int | None = None,
    density: float = 1.0,
    rank: int = 1,
    has_b: bool = True,
    update_nnz_per_col: float = 1.0,
    inplace: bool = False,
) -> CostEstimate:
    """Predicted costs of maintaining ``T_k`` (``T_{i+1} = A T_i + B``).

    ``inplace=True`` prices refreshes through the in-place kernel path
    (see :func:`powers_cost`).
    """
    mdl = _model_of(model, s)
    schedule = mdl.schedule(k)
    horizon = _horizon(mdl, k)
    d_a = density
    u_nnz = update_nnz_per_col
    call = be.est_call_overhead(inplace)

    def step_cost(call: float = call) -> float:
        """One pass of the recurrence with dense ``(n x p)`` iterates."""
        cost = 0.0
        for i in schedule:
            j = mdl.predecessor(i) if i > 1 else 0
            h = i - j if i > 1 else 1
            cost += _mm(be, (n, n), (n, p), power_density(n, d_a, h))
            cost += call
            if has_b:
                if h > 1:
                    cost += _mm(be, (n, n), (n, p), sums_density(n, d_a, h))
                    cost += call
                cost += float(n * p) + call
        return cost

    # View-building work shared by every strategy's setup.
    ps_build = 0.0
    ps_space = 0.0
    if horizon > 1:
        ps_build += _powers_recompute(be, n, mdl, horizon, d_a)
        ps_space += sum(
            be.est_entries((n, n), power_density(n, d_a, i))
            for i in mdl.schedule(horizon)
        )
        if has_b:
            ps_build += _powers_recompute(be, n, mdl, horizon, d_a)
            ps_space += sum(
                be.est_entries((n, n), sums_density(n, d_a, i))
                for i in mdl.schedule(horizon)
            )
    setup = ps_build + step_cost(call=be.est_call_overhead_flops)
    iterate_space = float(n * p) * len(schedule)
    a_entries = be.est_entries((n, n), d_a)
    apply_a = be.est_add_outer_flops((n, n), d_a, rank, u_nnz)

    if strategy == REEVAL:
        # P/S rebuilt per refresh (ReevalPowers recomputes), T re-run.
        ps_rebuild = (
            _powers_recompute(be, n, mdl, horizon, d_a, inplace) * 2.0
            if horizon > 1 and has_b
            else _powers_recompute(be, n, mdl, horizon, d_a, inplace)
            if horizon > 1
            else 0.0
        )
        refresh = apply_a + call + ps_rebuild + step_cost()
        space = a_entries + float(n * p) + (2.0 * a_entries if horizon > 1 else 0.0)
        return CostEstimate(setup, refresh, space)

    # INCR/HYBRID maintain P/S incrementally at the horizon.
    ps_refresh = 0.0
    if horizon > 1:
        ps_refresh += _powers_incr_refresh(be, n, mdl, horizon, d_a, rank,
                                           u_nnz, inplace)
        if has_b:
            ps_refresh += _powers_incr_refresh(be, n, mdl, horizon, d_a, rank,
                                               u_nnz, inplace)

    if strategy == INCR:
        refresh = apply_a + ps_refresh
        for i in schedule:
            j = mdl.predecessor(i) if i > 1 else 0
            h = i - j if i > 1 else 1
            w_i, w_j, w_h = i * rank, j * rank, h * rank
            if i == 1:
                refresh += 2.0 * n * p * rank          # T0' v
            else:
                d_h = power_density(n, d_a, h)
                refresh += _mm(be, (n, n), (n, w_j), d_h)   # P_h @ U_j
                refresh += 4.0 * n * w_h * w_j              # thin core
                refresh += 2.0 * n * p * w_h                # T_j' V_h
                if has_b and h > 1:
                    refresh += 2.0 * n * p * w_h            # B' W_h
            refresh += 2.0 * n * p * w_i                    # apply dT_i
            refresh += 7.0 * call                           # mm x4, hstack x2, apply
        space = a_entries + iterate_space + ps_space
        return CostEstimate(setup, refresh, space)

    if strategy == HYBRID:
        refresh = apply_a + ps_refresh
        for i in schedule:
            j = mdl.predecessor(i) if i > 1 else 0
            h = i - j if i > 1 else 1
            w_h = h * rank
            if i == 1:
                refresh += 2.0 * n * p * rank               # u (v' T0)
            else:
                d_h = power_density(n, d_a, h)
                refresh += _mm(be, (n, n), (n, p), d_h)     # P_h @ dT_j
                refresh += 4.0 * n * p * w_h                # q (r' T_j), q (r' dT_j)
                if has_b and h > 1:
                    refresh += 2.0 * n * p * w_h            # z (w' B)
            refresh += float(n * p)                         # apply dense dT_i
            refresh += 8.0 * call                           # mm x5, add x2, apply
        space = a_entries + iterate_space + ps_space
        return CostEstimate(setup, refresh, space)

    raise ValueError(f"unknown strategy {strategy!r}")


def compaction_cost(be, rows: int, cols: int, width: int) -> float:
    """Predicted FLOPs of :meth:`BatchCollector.flush`'s rank compaction.

    The :mod:`repro.delta.batch` kernel: thin QR of each stacked factor
    (``2 rows m^2`` and ``2 cols m^2`` for width ``m``), an ``m x m``
    core SVD (``Backend.est_compaction_factor`` passes of ``m^3`` —
    a few dozen in LAPACK practice, fitted per machine by ``repro
    calibrate``), and the two thin products rebuilding the compacted
    factors.  Charged per flush; a batch of ``m`` updates amortizes it
    ``m`` ways.
    """
    m = float(max(width, 1))
    qr = 2.0 * (rows + cols) * m * m
    svd = be.est_compaction_factor * m ** 3
    rebuild = 2.0 * (rows + cols) * m * m
    return qr + svd + rebuild + 6.0 * be.est_call_overhead_flops


def batch_unit_cost(
    be,
    refresh_cost,
    rows: int,
    cols: int,
    batch: int,
    rank: int = 1,
    distinct_fraction: float = 1.0,
) -> float:
    """Predicted per-*update* cost of refreshing in batches of ``batch``.

    ``refresh_cost`` is a callable ``rank -> per-refresh flops`` (e.g. a
    closure over :func:`repro.planner.programcost.program_cost`);
    ``distinct_fraction`` estimates how much of the stacked width
    survives compaction (Table 4: a Zipf-skewed batch touching few
    distinct rows compacts far below its size).  ``batch=1`` skips
    compaction entirely — the plain per-update path.
    """
    if batch <= 1:
        return float(refresh_cost(rank))
    effective = max(1, int(round(batch * rank * distinct_fraction)))
    per_flush = (
        compaction_cost(be, rows, cols, batch * rank)
        + float(refresh_cost(effective))
    )
    return per_flush / batch


#: Per-update bookkeeping overhead of the heavy-light split (the column
#: nonzero scan, the heavy-set dict probe, the sketch update) as a
#: fraction of one backend call overhead — pure Python work, far below
#: a kernel dispatch but not free.  Keeps ``heavy-light`` priced
#: strictly above the best uniform width on streams with no skew to
#: exploit, so it stays unchosen there.
HL_BOOKKEEPING_CALL_FRACTION = 0.25

#: Longest deferral window (updates between light-tail folds) the cost
#: model will credit — a read/staleness horizon, not a correctness
#: bound (reads always fold first).
HL_MAX_FOLD_PERIOD = 4096.0


def heavy_light_unit_cost(
    be,
    refresh_cost,
    rows: int,
    cols: int,
    budget: int,
    rank: int = 1,
    heavy_share: float = 0.0,
    light_fraction: float = 1.0,
    rank_bound: int = 64,
) -> float:
    """Predicted per-*update* cost of heavy-light partitioned maintenance.

    Prices :class:`repro.runtime.heavylight.HeavyLightMaintainer`:
    heavy-hitter columns (observed mass ``heavy_share``) merge into
    preallocated dense accumulator rows — ``O(cols)`` per hit, zero
    marginal refresh rank — and the heavy block is folded as one
    rank-``budget`` refresh only at the read/staleness horizon
    (``HL_MAX_FOLD_PERIOD``), not per light fold.  Light indicator
    columns merge by row the same exact way; the light tail folds when
    its distinct merged rank reaches ``rank_bound``.  ``refresh_cost``
    is the same ``rank -> flops`` closure :func:`batch_unit_cost`
    takes; ``light_fraction`` is the sketch's distinct share of tail
    draws (:meth:`~repro.planner.plan.StreamSketch.light_fraction`),
    the light-rank growth rate that sets the fold period

        T  =  rank_bound / (light_mass * rank * light_fraction).

    Per update that is: an ``O(cols * rank)`` accumulate plus the
    bookkeeping overhead, ``1/T``-th of a rank-``rank_bound`` light
    fold, and the horizon-amortized heavy fold.  With no skew
    (``heavy_share`` near 0) the tail carries the full mass with
    ``light_fraction`` near 1, and the price lands at-or-above uniform
    batching at the same width — the planner keeps ``uniform``.
    """
    share = min(max(float(heavy_share), 0.0), 1.0)
    light_mass = 1.0 - share
    accumulate = (2.0 * cols * rank
                  + HL_BOOKKEEPING_CALL_FRACTION * be.est_call_overhead_flops)
    per_update = accumulate
    if share > 0.0:
        per_update += (float(refresh_cost(max(int(budget), 1)))
                       / HL_MAX_FOLD_PERIOD)
    light_rate = light_mass * rank * min(max(float(light_fraction), 0.0), 1.0)
    if light_rate > 0.0:
        period = min(HL_MAX_FOLD_PERIOD, max(float(rank_bound) / light_rate, 1.0))
        light_rank = max(1, min(int(round(light_rate * period)), int(rank_bound)))
        per_fold = (float(refresh_cost(light_rank))
                    + 2.0 * be.est_call_overhead_flops)
        per_update += per_fold / period
    return per_update


# -- fault tolerance ------------------------------------------------------
#
# Checkpointing is priced in the same flop-equivalent ranking units as
# maintenance: a snapshot streams every stored byte once through
# serialization + checksum + write, which on the machines the planner
# models costs a small constant per byte relative to one dense flop.

#: Flop-equivalents charged per checkpoint byte written (serialize +
#: SHA-256 + buffered write, amortized).
CHECKPOINT_BYTE_FLOPS = 4.0
#: Fixed per-snapshot overhead (header encode, fsync, rename).
CHECKPOINT_BASE_FLOPS = 1.0e6
#: Default tolerated write-path overhead of auto-cadenced checkpointing.
CHECKPOINT_TARGET_OVERHEAD = 0.05
#: Cadence clamp: even tiny sessions checkpoint no more than every
#: update, and huge ones at least once per this many updates.
CHECKPOINT_MAX_EVERY = 1_000_000


def checkpoint_write_cost(views_bytes: float) -> float:
    """Predicted cost of cutting one snapshot of ``views_bytes`` state."""
    return CHECKPOINT_BASE_FLOPS + CHECKPOINT_BYTE_FLOPS * max(views_bytes, 0.0)


def recommend_checkpoint_every(
    views_bytes: float,
    refresh_flops: float,
    target_overhead: float = CHECKPOINT_TARGET_OVERHEAD,
) -> int:
    """Snapshot cadence keeping checkpoint cost under ``target_overhead``.

    Amortizes one :func:`checkpoint_write_cost` over enough updates
    that the write path pays at most ``target_overhead`` of its
    maintenance work to durability — the ``every="auto"`` policy of
    :class:`repro.runtime.checkpoint.Checkpointer`.  Larger views or
    cheaper refreshes stretch the cadence (more replay on recovery);
    the clamp keeps degenerate inputs sane.
    """
    if target_overhead <= 0.0:
        raise ValueError("target_overhead must be positive")
    per_update = target_overhead * max(refresh_flops, 1.0)
    every = checkpoint_write_cost(views_bytes) / per_update
    return int(min(max(every, 1.0), CHECKPOINT_MAX_EVERY))


__all__ = [
    "CHECKPOINT_BASE_FLOPS",
    "CHECKPOINT_BYTE_FLOPS",
    "CHECKPOINT_MAX_EVERY",
    "CHECKPOINT_TARGET_OVERHEAD",
    "CostEstimate",
    "HL_BOOKKEEPING_CALL_FRACTION",
    "HL_MAX_FOLD_PERIOD",
    "checkpoint_write_cost",
    "recommend_checkpoint_every",
    "batch_unit_cost",
    "compaction_cost",
    "general_cost",
    "heavy_light_unit_cost",
    "power_density",
    "powers_cost",
    "sums_density",
]
