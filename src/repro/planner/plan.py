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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

if TYPE_CHECKING:
    from ..iterative.models import Model
    from .sketch import StreamSketch

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


class WorkloadStats(NamedTuple):
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
    #: :class:`~repro.planner.sketch.StreamSketch` (anything with a
    #: ``fraction(width)`` method) prices each candidate width from the
    #: observed stream.
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


def resolve_distinct_fraction(distinct, width: int) -> float:
    """Resolve a :attr:`WorkloadStats.distinct_fraction` for one width.

    ``None`` is the conservative no-compression default (1.0); a float
    applies to every width; anything with a ``fraction(width)`` method
    (a :class:`~repro.planner.sketch.StreamSketch`) is asked per width.
    The result is clamped into ``[1/width, 1]``.
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
    "WorkloadStats",
    "determined_plan",
    "resolve_distinct_fraction",
    "resolve_driver_strategy",
    "session_mode",
]
