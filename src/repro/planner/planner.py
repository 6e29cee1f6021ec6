"""Cost-driven maintenance planning: pick the cheapest admissible plan.

The Section 5 analysis answers "which strategy and iterative model
should I run?" for the dense closed forms; after the backend refactor
the real decision space also has a physical axis (dense vs sparse
state) and an execution axis (interpreted vs generated triggers).
:func:`plan_powers`, :func:`plan_general` and :func:`plan_program` rank
the full grid with the nnz-aware cost model
(:mod:`repro.cost.estimate`, :mod:`repro.planner.programcost`) and
return the winner as a :class:`~repro.planner.plan.MaintenancePlan` —
what F-IVM does for rings of aggregates, done here for LINVIEW's
strategy x model x backend x mode space.

Setup costs are amortized over ``stats.refresh_count``, so short-lived
workloads plan toward plain re-evaluation while long-lived streams
accept expensive view building for cheap refreshes.
"""

from __future__ import annotations

from functools import cache
from typing import Mapping

from ..backends import admissible_backends, calibrated, get_backend
from ..compiler.program import Program
from ..cost.estimate import batch_unit_cost, heavy_light_unit_cost
from ..runtime.executor import infer_dims, resolve_dim
from .plan import (
    CODEGEN_MIN_REFRESHES,
    INCR,
    REEVAL,
    MaintenancePlan,
    WorkloadStats,
    resolve_distinct_fraction,
    session_mode,
)

#: Candidate update-batch widths the planner grids over (capped or
#: extended by ``WorkloadStats.batch_hint``).
BATCH_GRID = (1, 2, 4, 8, 16, 32)


def _batch_widths(batch_hint: int | None) -> tuple[int, ...]:
    if batch_hint is None:
        return BATCH_GRID
    cap = max(int(batch_hint), 1)
    widths = [w for w in BATCH_GRID if w <= cap]
    if cap not in widths:
        widths.append(cap)
    return tuple(widths)


def program_cost(*args, **kwargs):
    """:func:`repro.planner.programcost.program_cost`, imported on first
    call: only program plans price a trigger list, so a driver plan
    never compiles the list pricer (see :func:`recommend_powers`)."""
    from .programcost import program_cost as priced

    return priced(*args, **kwargs)


def _refresh_cost_memo(be, strategy: str, program: Program, dims, densities,
                       update_input: str | None, nodes: int = 1):
    """Memoized ``update_rank -> CostEstimate`` and ``-> refresh flops``
    closures for one cell (on ``nodes`` row-shard nodes).

    Shared by the batch-width and partition recommenders so each
    (strategy, backend) cell is priced once per distinct rank, not once
    per candidate — and, kept in a caller's ``memo``
    (:func:`rank_program`), once per distinct rank for as long as what
    they close over holds.
    """

    @cache
    def cost_at(r: int):
        return program_cost(be, strategy, program, dims, densities,
                            rank=r, update_input=update_input, nodes=nodes)

    return cost_at, lambda r: cost_at(r).refresh


def _recommend_batch(
    be,
    rows: int,
    cols: int,
    rank: int,
    fractions: Mapping[int, float],
    refresh_cost,
) -> tuple[int, float]:
    """Cheapest per-update batch width for this (strategy, backend) cell.

    Prices :meth:`BatchCollector.flush`'s QR+SVD compaction against the
    per-unit-width propagation it saves (Table 4): a width-``m`` batch
    pays one compaction plus one rank-``m·rank`` refresh instead of
    ``m`` rank-``rank`` refreshes — amortizing both per-call overhead
    and, for REEVAL, the whole re-evaluation.

    ``refresh_cost`` maps an update rank to the cell's per-refresh
    flops (:func:`_refresh_cost_memo`).  ``fractions`` maps each
    candidate width to how much of a stacked batch of it survives
    compaction (:func:`_stream_statistics`): 1.0 is the conservative
    no-compression default, a
    :class:`~repro.planner.sketch.StreamSketch` gives each width the
    observed stream's target skew (the Zipf knob of Table 4).

    Returns ``(width, per_update_cost)`` — the winning width and its
    predicted per-*update* cost (equal to the plain refresh cost when
    width 1 wins).
    """

    def unit_cost(m: int) -> float:
        return batch_unit_cost(
            be, refresh_cost, rows, cols, m, rank=rank,
            distinct_fraction=fractions[m],
        )

    best = min(fractions, key=unit_cost)
    return int(best), unit_cost(best)


def _recommend_partition(
    be,
    rows: int,
    cols: int,
    rank: int,
    refresh_cost,
    splits,
    uniform_unit: float,
) -> tuple[str, int | None, float]:
    """Cheapest partition mode for this (strategy, backend) cell.

    Prices each ``(budget, heavy_share, light_fraction)`` of ``splits``
    (:func:`_stream_statistics`: the heavy-set budgets of
    :data:`~repro.runtime.heavylight.HEAVY_BUDGET_GRID` the sketch sees
    a heavy set for) through
    :func:`~repro.cost.estimate.heavy_light_unit_cost`, charging eager
    cost on the observed heavy mass and deferred-fold cost on the tail,
    against ``uniform_unit`` — the best uniform-batching per-update
    cost from :func:`_recommend_batch`.  ``heavy-light`` is recommended
    only when a budget prices strictly below uniform; with no splits —
    no skew-measuring sketch, or one that sees a uniform stream — the
    recommendation stays ``uniform``.

    Returns ``(partition, heavy_budget, per_update_cost)``.
    """
    best: tuple[str, int | None, float] = ("uniform", None, float(uniform_unit))
    for budget, share, light_fraction, rank_bound in splits:
        unit = heavy_light_unit_cost(
            be, refresh_cost, rows, cols, budget, rank=rank,
            heavy_share=share, light_fraction=light_fraction,
            rank_bound=rank_bound,
        )
        if unit < best[2]:
            best = ("heavy-light", int(budget), unit)
    return best


def _stream_statistics(distinct, batch_hint: int | None, rank: int):
    """What the recommenders read off the stream, once per ranking.

    None of it depends on the cell: ``fractions`` (candidate batch
    width -> distinct fraction of a batch that wide) feeds
    :func:`_recommend_batch`, ``splits`` (one ``(budget, heavy_share,
    light_fraction, rank_bound)`` per heavy budget with a non-empty
    heavy set) feeds :func:`_recommend_partition`.  ``distinct`` is
    :attr:`WorkloadStats.distinct_fraction`; only a sketch (anything
    with ``heavy_split``) yields splits.
    """
    fractions = {
        width: resolve_distinct_fraction(distinct, width * rank)
        for width in _batch_widths(batch_hint)
    }
    splits = []
    if hasattr(distinct, "heavy_split"):
        from ..runtime.heavylight import DEFAULT_RANK_BOUND, HEAVY_BUDGET_GRID

        for budget in HEAVY_BUDGET_GRID:
            share, light_fraction = distinct.heavy_split(
                budget, DEFAULT_RANK_BOUND)
            if share > 0.0:
                splits.append(
                    (budget, share, light_fraction, DEFAULT_RANK_BOUND))
    return fractions, splits


def _driver_plan(recommend, stats: WorkloadStats, backend, *shape,
                 **extra) -> MaintenancePlan:
    """The cheapest of ``recommend``'s cells for ``stats``; a ``backend``
    the driver runs on is the only one priced (resolved here, so one
    that cannot load raises its own error)."""
    best = recommend(
        *shape, gamma=stats.gamma, memory_budget=stats.memory_budget,
        density=stats.density, rank=stats.update_rank,
        refreshes=stats.refresh_count,
        backends=None if backend is None else (get_backend(backend),),
        **extra)[0]
    return MaintenancePlan(best.strategy, best.model, best.s, best.backend,
                           "interpret", best.time, best.space)


def recommend_powers(*args, **kwargs):
    """:func:`repro.cost.advisor.recommend_powers`, imported on first
    call: only driver plans rank the iterative-family grid, so a program
    open never compiles the advisor."""
    from ..cost.advisor import recommend_powers as ranked

    return ranked(*args, **kwargs)


def recommend_general(*args, **kwargs):
    """:func:`repro.cost.advisor.recommend_general`, imported on first
    call (see :func:`recommend_powers`)."""
    from ..cost.advisor import recommend_general as ranked

    return ranked(*args, **kwargs)


def plan_powers(stats: WorkloadStats, backend=None) -> MaintenancePlan:
    """Cheapest plan for maintaining ``A^k`` (Section 5.2 workloads)."""
    return _driver_plan(recommend_powers, stats, backend, stats.n, stats.k)


def plan_general(stats: WorkloadStats, backend=None) -> MaintenancePlan:
    """Cheapest plan for ``T_{i+1} = A T_i + B`` (Section 5.3 workloads)."""
    return _driver_plan(recommend_general, stats, backend,
                        stats.n, stats.p, stats.k, has_b=stats.has_b)


def rank_program(
    program: Program,
    inputs: Mapping | None = None,
    stats: WorkloadStats | None = None,
    dims: Mapping[str, int] | None = None,
    update_input: str | None = None,
    backends=None,
    strategies=(REEVAL, INCR),
    calibration="auto",
    amortize_setup: bool = True,
    price_batching: bool = False,
    nodes=(1,),
    memo: dict | None = None,
) -> list[MaintenancePlan]:
    """Every admissible session plan, cheapest first.

    The grid is (strategy in {INCR, REEVAL}) x backend x node-count;
    ``nodes`` lists the node counts to price: ``(1,)`` keeps the
    single-process grid, and counts all ``> 1`` price only sharded
    cells (what ``open_session(nodes=(N,))`` forces), raising
    :class:`~repro.runtime.session.UnsupportedCombinationError` when
    there are none.  ``backends=None`` is the admissible grid: the
    backends that would store at least one program input in their
    own format (:func:`repro.backends.admissible_backends` — a backend
    that stores none runs the dense kernels on dense state and cannot
    change a decision); a caller who names backends gets exactly those
    cells, which is how :class:`~repro.runtime.drift.ReplanMonitor`
    keeps the running backend priced whatever its inputs have become.
    Sharded cells (``N > 1``) exist only for
    dense INCR over programs whose lowered trigger lists the tile
    kernels can run (:func:`repro.distributed.sharded.unshardable`,
    asked of the lists every session on the program runs), priced
    from the trigger list they run
    (:func:`~repro.planner.programcost.program_cost` with ``nodes``):
    tile ops at the largest shard's share of their FLOPs plus the
    traffic the engine models for them.  Tiny views, one tile held by
    node 0, lose to single-process on the IPC tax while large dense
    chains win.
    ``inputs``
    (initial values) supply the dimension bindings and measured
    densities; ``stats`` supplies the update rank (every cell carries it
    as ``rank``, the trigger compilation width) and expected refresh
    count.  ``calibration`` feeds machine-measured cost constants into
    the backends' ``est_*`` hooks (``"auto"`` loads the
    :mod:`repro.calibrate` cache, ``None`` keeps the class constants, a
    :class:`~repro.calibrate.Calibration` is used verbatim).

    With ``amortize_setup=False`` each candidate's ``predicted_time`` is
    the bare per-refresh cost — what an *already-built* session would
    pay.  Online re-planning ranks on this form: mid-stream the views
    exist, so setup is sunk and only refresh cost (plus the explicit
    switch cost) matters.

    With ``price_batching=True`` each cell's refresh is priced at its
    recommended batch width's per-*update* cost instead of the plain
    per-refresh cost.  Sessions honor ``batch_size`` by default, so a
    monitor comparing live configurations must compare what the cells
    will actually run — otherwise it switches away from a cell whose
    batched form is the real winner (CSR-merge amortization being the
    canonical case).  The default ``False`` keeps opening-plan
    rankings on the conservative unbatched form.

    ``memo`` is a dict the caller owns and passes to every ranking of
    one program: the calibrated backends and the per-cell ``rank ->
    cost`` prices of the program are kept in it and reused while
    dimensions, measured densities, update input and calibration are
    what they were, and dropped when one moves — so a periodic
    re-ranking of an unchanged workload prices nothing twice and returns
    the same floats.
    """
    inputs = dict(inputs or {})
    resolved_dims = dict(dims or {})
    for name, size in infer_dims(program, inputs).items():
        resolved_dims.setdefault(name, size)

    densities = {
        name: WorkloadStats.measure_density(inputs[name])
        for name in program.input_names
        if inputs.get(name) is not None
    }
    stats = stats or WorkloadStats(n=1)
    rank = stats.update_rank
    refreshes = stats.refresh_count

    if backends is None:
        backends = admissible_backends(
            (resolve_dim(sym.shape.rows, resolved_dims),
             resolve_dim(sym.shape.cols, resolved_dims),
             densities.get(sym.name, 1.0))
            for sym in program.inputs)

    memo = {} if memo is None else memo
    valid_for = (program, resolved_dims, densities, update_input, calibration)
    if memo.get("valid_for") != valid_for:
        memo.clear()
        memo["valid_for"] = valid_for

    fractions, splits = _stream_statistics(
        stats.distinct_fraction, stats.batch_hint, rank)

    node_counts = sorted({max(int(count), 1) for count in nodes}) or [1]
    shardable = False
    if node_counts[-1] > 1:
        from ..distributed.sharded import unshardable

        shardable = unshardable(program) is None
    target = update_input or program.input_names[0]
    target_n = resolve_dim(program.input(target).shape.rows, resolved_dims)
    target_cols = resolve_dim(program.input(target).shape.cols, resolved_dims)

    def priced(be, strategy: str, count: int):
        cell = (be.name, strategy, count)
        if cell not in memo:
            memo[cell] = _refresh_cost_memo(
                be, strategy, program, resolved_dims, densities,
                update_input, count)
        return memo[cell]

    candidates = []
    for backend_name in backends:
        be = memo.get(("backend", backend_name))
        if be is None:
            try:
                be = calibrated(backend_name, calibration)
            except (ValueError, RuntimeError):
                continue
            memo["backend", backend_name] = be
        for strategy in strategies:
            # Sharded cells: dense INCR over programs the tile kernels
            # can run.
            counts = [count for count in node_counts if count == 1 or (
                strategy == INCR and be.name == "dense" and shardable)]
            if not counts:
                continue
            mode = session_mode(strategy, stats)
            cost_at, refresh_fn = priced(be, strategy, 1)
            batch, batched_unit = _recommend_batch(
                be, target_n, target_cols, rank, fractions, refresh_fn)
            partition, heavy_budget, hl_unit = _recommend_partition(
                be, target_n, target_cols, rank, refresh_fn, splits,
                batched_unit,
            )
            unit = hl_unit if partition == "heavy-light" else batched_unit
            for count in counts:
                cost = priced(be, strategy, count)[0](rank)
                if count == 1:
                    refresh = unit if price_batching else cost.refresh
                    split = dict(partition=partition,
                                 heavy_budget=heavy_budget)
                else:  # priced unbatched, partitioned uniformly
                    refresh, split = cost.refresh, {}
                predicted = ((cost.setup + refreshes * refresh)
                             / max(refreshes, 1)
                             if amortize_setup else refresh)
                candidates.append(MaintenancePlan(
                    strategy, "linear", None, be.name, mode,
                    predicted, cost.space, batch_size=batch, nodes=count,
                    rank=rank, **split,
                ))
    if not candidates and node_counts[0] > 1:
        from ..runtime.session import UnsupportedCombinationError

        raise UnsupportedCombinationError(
            f"no sharded cell for nodes={tuple(node_counts)}: "
            f"{unshardable(program) or 'sharded cells are dense INCR'}")
    if not candidates:
        raise RuntimeError("no execution backend available to plan over")
    return sorted(candidates,
                  key=lambda c: (c.predicted_time, c.predicted_space,
                                 c.backend != "dense", c.nodes))


def plan_program(
    program: Program,
    inputs: Mapping | None = None,
    stats: WorkloadStats | None = None,
    dims: Mapping[str, int] | None = None,
    update_input: str | None = None,
    backends=None,
    strategies=(REEVAL, INCR),
    calibration="auto",
    nodes=(1,),
) -> MaintenancePlan:
    """Cheapest plan for maintaining a compiled program in a session.

    Sessions have no iterative-model axis, so the grid is (strategy in
    {INCR, REEVAL}) x backend, with the execution mode chosen from the
    expected refresh count.  ``inputs`` (initial values) supply the
    dimension bindings and measured densities; ``stats`` supplies the
    update rank and expected refresh count (its other fields are not
    consulted here — densities always come from the inputs).  See
    :func:`rank_program` for the ``calibration`` axis and the full
    ranked grid.
    """
    return rank_program(
        program, inputs, stats=stats, dims=dims, update_input=update_input,
        backends=backends, strategies=strategies, calibration=calibration,
        nodes=nodes,
    )[0]


__all__ = [
    "CODEGEN_MIN_REFRESHES",
    "plan_general",
    "plan_powers",
    "plan_program",
    "rank_program",
]
