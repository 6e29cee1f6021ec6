"""Maintenance plans and workload statistics (the planner's vocabulary).

A :class:`MaintenancePlan` names one point in the full configuration
space LINVIEW exposes after the backend refactor:

* **strategy** — REEVAL / INCR / HYBRID (Section 5);
* **model** / **s** — the iterative model: linear, exponential or
  skip-``s`` (Section 3.2);
* **backend** — the execution backend (``repro.backends``);
* **mode** — lowered-list execution: ``"interpret"`` (a loop over the
  records) or ``"codegen"`` (generated Python, sessions only);
* **rank** — the update width the triggers are compiled for.

A plan is the whole recipe of a session: every session carries the one
it was built from as ``session.plan`` (docs/invariants.md, "One build
path").

A :class:`WorkloadStats` carries the input statistics the cost model
ranks on: problem dimensions, input nnz density, update rank, and the
expected number of refreshes (which amortizes one-time view building —
the lever that makes high-update-rate workloads prefer incremental
configurations with expensive setup).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..iterative.models import Model

#: Strategy names (shared with the advisor and iterative layer).
REEVAL = "REEVAL"
INCR = "INCR"
HYBRID = "HYBRID"

#: Expected refresh count one-time view building is amortized over when
#: the caller gives none (:attr:`WorkloadStats.refresh_count`, and the
#: advisor's ``refreshes`` default).
DEFAULT_REFRESHES = 100


@dataclass(frozen=True)
class MaintenancePlan:
    """One maintenance configuration across every decision axis.

    ``predicted_time`` is the planner's amortized per-refresh operation
    count (ranking unit, not wall-clock); ``predicted_space`` the
    predicted stored entries.  Both are ``nan`` for a plan that was not
    priced: a hand-built one, or one :func:`determined_plan` wrote down
    because the caller's arguments left nothing to rank.
    """

    strategy: str
    model: str = "linear"
    s: int | None = None
    backend: str = "dense"
    mode: str = "interpret"
    predicted_time: float = float("nan")
    predicted_space: float = float("nan")
    #: Recommended update-batch width: collect this many rank-1 updates
    #: in a :class:`~repro.delta.batch.BatchCollector` and flush one
    #: compacted refresh.  ``None`` when batching was not planned (or
    #: does not pay); 1 means "apply per update".
    batch_size: int | None = None
    #: Node count: 1 runs single-process; N > 1 shards row tiles over
    #: the coordinator (node 0) and N - 1 shared-memory workers
    #: (:class:`~repro.distributed.sharded.ShardedEngine`), priced from
    #: the trigger list it runs: tile ops at the largest shard's share,
    #: plus the traffic the engine models for them
    #: (:func:`repro.planner.programcost.program_cost`).
    nodes: int = 1
    #: Update-target partitioning: ``"uniform"`` treats every target the
    #: same (per-update or width-batched maintenance), ``"heavy-light"``
    #: splits targets into a small heavy-hitter set merged eagerly into
    #: dense accumulator rows and a light tail deferred into a compacted
    #: low-rank pending block (:mod:`repro.runtime.heavylight`).  Priced
    #: by :func:`repro.cost.estimate.heavy_light_unit_cost` from
    #: sketch-derived skew; stays ``"uniform"`` when the stream shows no
    #: exploitable skew.
    partition: str = "uniform"
    #: Heavy-set budget for ``partition="heavy-light"``: at most this
    #: many targets are maintained eagerly.  ``None`` when partitioning
    #: is uniform (or left to the runtime default).
    heavy_budget: int | None = None
    #: Trigger compilation width: the expected rank of incoming factored
    #: updates (``rank_program`` cells carry ``stats.update_rank``).
    rank: int = 1

    def __post_init__(self):
        if self.strategy not in (REEVAL, INCR, HYBRID):
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.mode not in ("interpret", "codegen"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.partition not in ("uniform", "heavy-light"):
            raise ValueError(f"unknown partition {self.partition!r}")
        if self.heavy_budget is not None and self.heavy_budget < 1:
            raise ValueError(
                f"heavy_budget must be >= 1, got {self.heavy_budget}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    @property
    def label(self) -> str:
        """Paper-style label with the backend/mode axes appended."""
        model = {"linear": "LIN", "exponential": "EXP"}.get(self.model)
        if model is None:
            model = f"SKIP-{self.s}"
        label = f"{self.strategy}-{model}@{self.backend}/{self.mode}"
        if self.nodes > 1:
            label += f"/x{self.nodes}"
        if self.partition == "heavy-light":
            label += f"/hl{self.heavy_budget or ''}"
        return label

    def iterative_model(self) -> Model:
        """The plan's model as an :class:`~repro.iterative.models.Model`."""
        from ..iterative.models import Model

        if self.model == "linear":
            return Model.linear()
        if self.model == "exponential":
            return Model.exponential()
        if self.model == "skip":
            if self.s is None:
                raise ValueError("skip plan has no skip size")
            return Model.skip(self.s)
        raise ValueError(f"unknown model {self.model!r}")

    def with_overrides(self, **axes) -> "MaintenancePlan":
        """A copy with user-forced axes replacing the planned ones.

        ``None`` entries defer to the plan, an unknown axis name is a
        ``TypeError``, and a call that changes nothing returns ``self``.
        """
        changes = {k: v for k, v in axes.items()
                   if v is not None and getattr(self, k, None) != v}
        return replace(self, **changes) if changes else self

    def as_dict(self) -> dict:
        """JSON-friendly form (CLI output): every field, plus ``label``."""
        return asdict(self) | {"label": self.label}


@dataclass(frozen=True)
class WorkloadStats:
    """Input statistics the planner ranks configurations on."""

    n: int                                   #: operator order (A is n x n)
    p: int = 1                               #: iterate width (general form)
    k: int = 1                               #: iteration count / chain depth
    density: float = 1.0                     #: input nnz density in [0, 1]
    update_rank: int = 1                     #: width of incoming updates
    refresh_count: int = DEFAULT_REFRESHES   #: expected updates to amortize
    gamma: float = 3.0                       #: matmul exponent (dense closed
    #: forms only; the density-aware grid prices the classical kernels
    #: the backends actually run)
    memory_budget: float | None = None       #: max stored entries, if any
    has_b: bool = True                       #: general form carries a B term
    #: Largest update-batch width the application tolerates (a latency
    #: bound: updates queued in a BatchCollector are invisible to reads
    #: until flushed).  ``None`` leaves the planner its default grid;
    #: the chosen width lands on ``MaintenancePlan.batch_size``.
    batch_hint: int | None = None
    #: How much of a stacked batch survives QR+SVD compaction (Table 4:
    #: a Zipf-skewed batch touching few distinct rows compacts far
    #: below its size).  ``None`` = the conservative no-compression
    #: default (1.0); a float is used as a constant for every width; a
    #: :class:`StreamSketch` (anything with a ``fraction(width)``
    #: method) prices each candidate width from the observed stream.
    distinct_fraction: "float | StreamSketch | None" = None

    @staticmethod
    def measure_density(*matrices) -> float:
        """Size-weighted nnz density of the given matrices."""
        nnz = 0
        size = 0
        for m in matrices:
            if m is None:
                continue
            try:  # scipy sparse
                nnz += int(m.nnz)
            except AttributeError:
                nnz += int(np.count_nonzero(m))
            size += int(m.shape[0]) * int(m.shape[1])
        return float(nnz) / size if size else 1.0

    @classmethod
    def from_matrix(cls, a, **kwargs) -> "WorkloadStats":
        """Stats for an operator matrix, measuring ``n`` and ``density``."""
        kwargs.setdefault("density", cls.measure_density(a))
        return cls(n=int(a.shape[0]), **kwargs)


#: Refresh count at or above which sessions print and ``exec`` each
#: trigger's lowered form once (``mode="codegen"``) instead of looping
#: over it per update — both run the same kernels on the same buffers,
#: so the rule only trades a ~1 ms ``exec`` against per-record loop
#: overhead, which one-shot sessions never earn back.
CODEGEN_MIN_REFRESHES = 32


def session_mode(strategy: str, stats: WorkloadStats) -> str:
    """The trigger execution mode of a session cell (a rule, not a
    priced axis): INCR compiles once the stream is long enough."""
    if strategy == INCR and stats.refresh_count >= CODEGEN_MIN_REFRESHES:
        return "codegen"
    return "interpret"


def determined_plan(matrices, stats: WorkloadStats, strategies, nodes,
                    batch_forced: bool, backend=None) -> MaintenancePlan | None:
    """The session plan the arguments alone determine, or ``None``.

    :func:`~repro.planner.planner.rank_program` prices the grid
    strategy x admissible backend x node count and recommends a batch
    width per cell.  When one strategy is asked for, the caller names
    the ``backend`` or ``matrices`` (the program's initial inputs) admit
    one (:func:`repro.backends.admissible_backends`), one node count is
    given and the caller forces the batch width, that grid has one cell
    and nothing of its pricing is read (``partition`` stays
    ``"uniform"`` without a stream sketch, which no opening call has) —
    so the cell is written down unpriced and the pricing stack is never
    imported.  A sharded cell (one count ``N > 1``) is dense INCR; a
    REEVAL-only request keeps its strategy, for the build to refuse.
    Anything else returns ``None``: price it.
    """
    from ..backends import admissible_backends, get_backend

    counts = {max(int(count), 1) for count in nodes}
    if not batch_forced or len(counts) != 1:
        return None
    count, = counts
    if count > 1:
        strategies = (INCR,) if INCR in strategies else strategies[:1]
        backend = backend or "dense"
    if len(strategies) != 1:
        return None
    backends = [get_backend(backend).name] if backend is not None else (
        admissible_backends((*m.shape, WorkloadStats.measure_density(m))
                            for m in matrices if m is not None))
    if len(backends) != 1:
        return None
    strategy, = strategies
    return MaintenancePlan(
        strategy, backend=backends[0], mode=session_mode(strategy, stats),
        rank=stats.update_rank, nodes=count)


class StreamSketch:
    """Online distinct-target sketch of an update stream (Zipf-aware).

    The Table 4 knob is how many *distinct* targets a batch of updates
    hits: a Zipf-skewed stream of 1000 row updates touching 10 rows
    compacts to a rank-10 refresh.  This sketch tracks per-target hit
    frequencies from the live stream (one bounded counter per observed
    target key) and answers the planner's question directly:
    :meth:`fraction` estimates the expected distinct share of a
    width-``m`` batch under the observed frequencies,

        E[distinct] / m  =  sum_i (1 - (1 - p_i)^m) / m

    — the occupancy formula for ``m`` draws from the empirical
    distribution.  :class:`~repro.runtime.drift.ReplanMonitor` feeds a
    sketch from the stream it supervises and hands it to the planner
    through :attr:`WorkloadStats.distinct_fraction`, so re-planning
    re-prices every candidate batch width from what the stream actually
    does instead of the conservative no-compression default.

    Target keys are derived per factor column (the dominant row of the
    ``u`` column — exact for row/cell updates, a stable proxy for dense
    factors).  At most ``capacity`` keys are tracked; hits beyond that
    are assumed distinct (conservative: overflow never inflates the
    compression estimate).
    """

    def __init__(self, capacity: int = 4096):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._counts: dict[int, int] = {}
        self.total = 0
        self.overflow = 0

    def observe_key(self, key: int) -> None:
        """Record one hit on an abstract target key."""
        count = self._counts.get(key)
        if count is not None:
            self._counts[key] = count + 1
        elif len(self._counts) < self.capacity:
            self._counts[key] = 1
        else:
            self.overflow += 1
        self.total += 1

    def observe(self, update) -> None:
        """Record a :class:`~repro.runtime.updates.FactoredUpdate`.

        One key per factor column: the dominant row of the column (the
        updated row for indicator columns).
        """
        u = np.asarray(update.u_block)
        for col in range(u.shape[1]):
            column = u[:, col]
            if column.size:
                self.observe_key(int(np.argmax(np.abs(column))))

    def distinct_targets(self) -> int:
        """Distinct target keys observed so far (tracked + overflow)."""
        return len(self._counts) + self.overflow

    def fraction(self, width: int) -> float:
        """Expected distinct fraction of a ``width``-update batch.

        1.0 before any observation (the conservative no-compression
        default) and for width 1; never below ``1/width`` (a batch hits
        at least one target).
        """
        m = max(int(width), 1)
        if m <= 1 or self.total == 0:
            return 1.0
        total = float(self.total)
        expected = sum(
            1.0 - (1.0 - count / total) ** m
            for count in self._counts.values()
        )
        # Untracked (overflow) mass: assume every draw is distinct.
        expected += (self.overflow / total) * m
        return float(min(1.0, max(expected / m, 1.0 / m)))

    def _heavy_threshold(self, budget: int, factor: float) -> float:
        """Minimum hit count for a key to qualify as a heavy hitter.

        A key is heavy when its observed share clears both
        ``1/(2*budget)`` (it matters relative to the eager capacity) and
        ``factor`` times the uniform share over the distinct targets
        seen (it is genuinely hotter than a flat stream — on a uniform
        stream no key clears this, so the heavy set collapses to empty).
        The share bar is capped at 0.5 so a degenerate one- or
        two-target stream still qualifies, and a key needs at least two
        hits (one hit is not a hitter).
        """
        distinct = max(self.distinct_targets(), 1)
        share = min(max(1.0 / (2.0 * budget), factor / distinct), 0.5)
        return max(share * self.total, 2.0)

    def heavy_keys(self, budget: int, factor: float = 4.0) -> list[int]:
        """The top-``budget`` target keys qualifying as heavy hitters.

        Sorted by descending hit count; empty before any observation and
        on uniform streams (see :meth:`_heavy_threshold`).  Feeds both
        the planner's heavy-light pricing and the
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer`'s
        adaptive heavy-set membership.
        """
        if self.total == 0 or budget < 1:
            return []
        threshold = self._heavy_threshold(int(budget), factor)
        qualified = sorted(
            ((count, key) for key, count in self._counts.items()
             if count >= threshold),
            reverse=True,
        )
        return [key for _, key in qualified[:int(budget)]]

    def heavy_share(self, budget: int, factor: float = 4.0) -> float:
        """Observed hit-mass fraction of the heavy set for ``budget``.

        0.0 on empty/uniform streams (no heavy set), approaching 1.0
        when a few targets dominate — the planner charges eager cost on
        this mass and deferred-fold cost on the remainder.
        """
        return self.heavy_split(budget, 1, factor)[0]

    def light_fraction(self, budget: int, width: int,
                       factor: float = 4.0) -> float:
        """Expected distinct fraction of ``width`` *light-tail* draws.

        Same occupancy estimate as :meth:`fraction`, but conditioned on
        the stream with the heavy set (for ``budget``) removed — the
        distribution the deferred pending block actually sees.  Repeats
        in the tail compact across the (long) deferral window, so this
        is the planner's light-rank growth rate.  1.0 when the tail is
        empty or nothing has been observed.
        """
        return self.heavy_split(budget, width, factor)[1]

    def heavy_split(self, budget: int, width: int,
                    factor: float = 4.0) -> tuple[float, float]:
        """``(heavy_share, light_fraction)`` for ``budget`` from one
        :meth:`heavy_keys` — what the planner prices a split on."""
        if self.total == 0:
            return 0.0, 1.0
        heavy = self.heavy_keys(budget, factor)
        share = (float(sum(self._counts[key] for key in heavy))
                 / float(self.total) if heavy else 0.0)
        m = max(int(width), 1)
        if m <= 1:
            return share, 1.0
        heavy = set(heavy)
        light_counts = [count for key, count in self._counts.items()
                        if key not in heavy]
        light_total = float(sum(light_counts) + self.overflow)
        if light_total <= 0:
            return share, 1.0
        expected = sum(
            1.0 - (1.0 - count / light_total) ** m for count in light_counts
        )
        # Untracked (overflow) mass: assume every draw is distinct.
        expected += (self.overflow / light_total) * m
        return share, float(min(1.0, max(expected / m, 1.0 / m)))

    def capture(self) -> dict:
        """The sketch's counters, JSON-ready (what a checkpoint stores)."""
        return {
            "capacity": self.capacity,
            "total": self.total,
            "overflow": self.overflow,
            "counts": [[int(k), int(v)] for k, v in self._counts.items()],
        }

    def restore(self, state: dict) -> None:
        """Re-enter the counters :meth:`capture` recorded."""
        self.capacity = int(state["capacity"])
        self.total = int(state["total"])
        self.overflow = int(state["overflow"])
        self._counts = {int(k): int(v) for k, v in state["counts"]}

    def __repr__(self) -> str:
        return (
            f"StreamSketch(total={self.total}, "
            f"distinct={self.distinct_targets()})"
        )


def resolve_distinct_fraction(distinct, width: int) -> float:
    """Resolve a :attr:`WorkloadStats.distinct_fraction` for one width.

    ``None`` is the conservative no-compression default (1.0); a float
    applies to every width; anything with a ``fraction(width)`` method
    (a :class:`StreamSketch`) is asked per width.  The result is
    clamped into ``[1/width, 1]``.
    """
    m = max(int(width), 1)
    if distinct is None:
        return 1.0
    if hasattr(distinct, "fraction"):
        value = float(distinct.fraction(m))
    else:
        value = float(distinct)
    return float(min(1.0, max(value, 1.0 / m)))


def resolve_driver_strategy(strategy, model, default_model, auto_plan):
    """Shared resolution of the analytics drivers' ``strategy`` argument.

    ``strategy`` may be a strategy name, ``"auto"`` (``auto_plan`` is
    called with :mod:`repro.planner.planner`, imported only then) or a
    plan.  Returns ``(strategy_or_plan, model, plan_or_none)`` for the
    iterative factories: names get ``default_model`` when no model was
    given, plans keep ``model=None`` so the factory takes theirs.
    """
    if strategy == "auto":
        from . import planner

        strategy = auto_plan(planner)
    if isinstance(strategy, str):
        return strategy, model or default_model, None
    return strategy, model, strategy


__all__ = [
    "CODEGEN_MIN_REFRESHES",
    "HYBRID",
    "INCR",
    "MaintenancePlan",
    "REEVAL",
    "StreamSketch",
    "WorkloadStats",
    "determined_plan",
    "resolve_distinct_fraction",
    "resolve_driver_strategy",
    "session_mode",
]
