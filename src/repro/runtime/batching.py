"""Deferral: one slot, one protocol, resolved in one place.

LINVIEW's batch-update result (Table 4: collect ``m`` rank-1 updates,
compact, propagate one rank-``r`` delta) and the heavy-light split
(:mod:`repro.runtime.heavylight`) are the same idea — *defer, merge,
then fire the trigger once*.  A :class:`~repro.runtime.session.Session`
therefore has exactly one deferral slot, holding ``None`` (unit-at-a-
time) or a policy object with this surface:

* ``absorb(sink, update)`` — take one update, applying per policy;
* ``flush(sink) -> (size, rank, dropped)`` — apply everything pending;
* ``pending`` — update events absorbed but not yet applied;
* ``stats`` — achieved compression counters;
* ``capture() -> dict`` / ``restore(dict)`` — the value-affecting state
  that survives a flush (what a checkpoint stores), JSON-ready;
* ``partition`` — ``"uniform"`` or ``"heavy-light"``: the row split
  the policy runs.  Callers ask this, never ``isinstance``, so that
  nothing but building a split loads :mod:`repro.runtime.heavylight`
  (under ``"heavy-light"``, ``shadowed`` is the displaced uniform
  policy or ``None``).

The *sink* is any callable that applies one compacted
:class:`~repro.runtime.updates.FactoredUpdate` — a session's
``_apply_now``, or :class:`DeferredRefresher`'s bridge onto a
``refresh(u, v)`` maintainer — so the two policies,
:class:`SessionBatcher` (uniform batches) and
:class:`~repro.runtime.heavylight.HeavyLightMaintainer` (row split),
serve sessions and analytics drivers alike.

What a caller *asked for* lives in one frozen :class:`DeferralSpec`;
:func:`resolve_deferral` is the only function that turns a spec and a
plan cell into the active policy.  ``open_session``,
``Session.with_plan``, ``set_batching`` / ``set_partition``,
``ReplanMonitor`` re-tuning and checkpoint restore all go through it
(via :meth:`Session.install_deferral
<repro.runtime.session.Session.install_deferral>`, which flushes
first — the flush-before-switch convention — unless a re-resolution of
the standing spec would rebuild the running policy as it is:
:func:`still_resolved`).

Both policies keep the semantics exact with the same flushes: on
*width* / *rank bound* (bounded memory, the planner's amortization
unit), on *read* (``session[...]`` / ``view()`` / ``output()`` /
``revalidate()`` flush first, so no caller observes state that lags the
updates it already issued), on *staleness* (``max_staleness`` bounds
the pending update count), and on a *target change* (pending updates
always address one input, so cross-input ordering is preserved).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..backends.base import DEFAULT_RTOL
from .updates import FactoredUpdate


def _split(policy) -> bool:
    """Whether ``policy`` (``None`` included) runs the heavy-light split."""
    return policy is not None and policy.partition == "heavy-light"


@dataclass
class BatchStats:
    """Achieved batching/compression counters of one session."""

    #: Update events absorbed through the batched path.
    updates: int = 0
    #: Flushes that actually carried updates.
    flushes: int = 0
    #: Total stacked factor width across all flushed batches.
    stacked_width: int = 0
    #: Total compacted width actually propagated.
    compacted_width: int = 0
    #: Spectral mass dropped by rank_cap truncation (0.0 normally).
    dropped_mass: float = 0.0
    #: Per-flush log of (batch_size, compacted_rank, dropped).
    log: list[tuple[int, int, float]] = field(default_factory=list)

    @property
    def compression(self) -> float:
        """Stacked-to-compacted width ratio (1.0 = nothing saved)."""
        if self.compacted_width == 0:
            return float(self.stacked_width) if self.stacked_width else 1.0
        return self.stacked_width / self.compacted_width

    def as_dict(self) -> dict:
        """Counters as a JSON-ready dict (the bench/CLI schema)."""
        return {
            "updates": self.updates,
            "flushes": self.flushes,
            "stacked_width": self.stacked_width,
            "compacted_width": self.compacted_width,
            "compression": self.compression,
            "dropped_mass": self.dropped_mass,
        }


class SessionBatcher:
    """The uniform-batch deferral policy (Table 4's loop).

    ``width`` pending updates flush as one QR+SVD-compacted refresh;
    ``max_staleness`` optionally caps the pending count below it.
    Whether the width is plan-derived — and thus re-tunable by online
    re-planning — is the :class:`DeferralSpec`'s concern, not this
    object's.
    """

    partition = "uniform"

    def __init__(
        self,
        width: int,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        backend=None,
    ):
        from ..delta.batch import BatchCollector

        if width < 2:
            raise ValueError("a batching width below 2 is per-update application")
        if max_staleness is not None and max_staleness < 1:
            raise ValueError("max_staleness must be positive (or None)")
        self.width = int(width)
        self.max_staleness = max_staleness
        self.rtol = rtol
        self.collector = BatchCollector(rtol=rtol, backend=backend)
        self.target: str | None = None
        self.stats = BatchStats()

    @property
    def trigger(self) -> int:
        """Pending-update count at which a flush fires."""
        if self.max_staleness is None:
            return self.width
        return min(self.width, self.max_staleness)

    @property
    def pending(self) -> int:
        """Update events absorbed but not yet applied."""
        return len(self.collector)

    def absorb(self, sink, update) -> None:
        """Queue one update, flushing into ``sink`` per policy."""
        if self.target is not None and update.target != self.target:
            # Cross-input ordering is preserved by construction: one
            # batch never spans two targets.
            self.flush(sink)
        self.target = update.target
        self.collector.add(update.u_block, update.v_block)
        self.stats.updates += 1
        if len(self.collector) >= self.trigger:
            self.flush(sink)

    def flush(self, sink) -> tuple[int, int, float]:
        """Apply the pending batch through ``sink`` as one compacted update.

        Returns ``(batch_size, compacted_rank, dropped)``; flushing an
        empty batcher is a no-op.  A batch that cancels to numerical
        rank 0 is dropped outright — the zero update changes nothing.
        """
        if not len(self.collector):
            return 0, 0, 0.0
        size = len(self.collector)
        stacked = self.collector.pending_width
        left, right, dropped = self.collector.compacted()
        self.collector.clear()
        target, self.target = self.target, None
        if left.shape[1] > 0:
            sink(FactoredUpdate(target, left, right))
        self.stats.flushes += 1
        self.stats.stacked_width += stacked
        self.stats.compacted_width += left.shape[1]
        self.stats.dropped_mass += dropped
        self.stats.log.append((size, left.shape[1], dropped))
        return size, left.shape[1], dropped

    def capture(self) -> dict:
        """Nothing value-affecting survives a uniform batch's flush."""
        return {}

    def restore(self, state: dict) -> None:
        """Counterpart of :meth:`capture` (nothing to restore)."""


@dataclass(frozen=True)
class DeferralSpec:
    """What the caller *asked for* — ``"auto"``/``None`` or forced.

    One rule, applied by :func:`resolve_deferral`: **a value the caller
    gave is never re-tuned; only ``"auto"``/``None`` values follow the
    plan.**  ``max_staleness`` and ``rtol`` are one setting shared by
    both policies (only one is ever active).
    """

    #: ``"auto"`` (the plan's ``batch_size``), a forced width ``>= 2``,
    #: or ``None`` (no uniform batching).
    batch: int | str | None = None
    #: ``"auto"`` (the plan's ``partition``), ``"uniform"`` or
    #: ``"heavy-light"``.
    partition: str = "uniform"
    #: Bound on pending update events (``None``: width / rank only).
    max_staleness: int | None = None
    #: Heavy-set capacity; ``None`` follows the plan, then the default.
    heavy_budget: int | None = None
    #: Relative singular-value threshold of QR+SVD compaction.
    rtol: float = DEFAULT_RTOL
    #: Light-tail pending-rank bound (``None``: the runtime default).
    rank_bound: int | None = None
    #: Heavy-set membership re-check cadence (``None``: the default).
    retune_every: int | None = None

    def __post_init__(self):
        batch, partition = self.batch, self.partition
        if batch is True:
            batch = "auto"
        elif batch is None or batch is False or batch == "off":
            batch = None
        elif isinstance(batch, int):
            if batch < 1:
                raise ValueError(f"batch width must be >= 1, got {batch!r}")
            batch = batch if batch > 1 else None
        elif batch != "auto":
            raise ValueError(
                f"batch must be 'auto', 'off', None or a width >= 1, "
                f"got {batch!r}"
            )
        if partition is True:
            partition = "auto"
        elif partition is None or partition is False or partition == "off":
            partition = "uniform"
        elif partition not in ("auto", "uniform", "heavy-light"):
            raise ValueError(
                f"partition must be 'auto', 'uniform' or 'heavy-light', "
                f"got {partition!r}"
            )
        object.__setattr__(self, "batch", batch)
        object.__setattr__(self, "partition", partition)


@dataclass(frozen=True)
class _Resolved:
    """What a spec resolves to — the decision, before anything is built
    (``None`` stands for unit-at-a-time).

    ``width`` is the uniform batch width (under ``split``: that of the
    shadowed policy, ``None`` for no batching); the heavy-light fields
    are ``None`` unless ``split``.  Two equal values build interchangeable
    policies (:func:`still_resolved`).
    """

    width: int | None
    max_staleness: int | None
    rtol: float
    backend: object
    split: bool = False
    budget: int | None = None
    rank_bound: int | None = None
    retune_every: int | None = None
    sketch: object = None
    observe: bool | None = None

    @classmethod
    def wanted(cls, spec: DeferralSpec, cell, prior, sketch, observe, backend):
        """``spec`` resolved against ``cell`` (and ``prior``'s carry-overs)."""
        width, mode = spec.batch, spec.partition
        if width == "auto":
            width = getattr(cell, "batch_size", None)
        if mode == "auto":
            mode = getattr(cell, "partition", None)
        batching = width is not None and width > 1
        uniform = cls(int(width) if batching else None,
                      spec.max_staleness, spec.rtol, backend)
        if mode != "heavy-light":
            return uniform if batching else None
        from .heavylight import (
            DEFAULT_HEAVY_BUDGET,
            DEFAULT_RANK_BOUND,
            DEFAULT_RETUNE_EVERY,
        )

        held = prior if _split(prior) else None
        if sketch is None and held is not None:
            sketch = held.sketch
            if observe is None:
                observe = held.observe_stream
        return replace(
            uniform, split=True,
            budget=int(spec.heavy_budget or getattr(cell, "heavy_budget", None)
                       or (held.budget if held is not None
                           else DEFAULT_HEAVY_BUDGET)),
            rank_bound=spec.rank_bound or DEFAULT_RANK_BOUND,
            retune_every=spec.retune_every or DEFAULT_RETUNE_EVERY,
            sketch=sketch, observe=True if observe is None else bool(observe))

    @classmethod
    def running(cls, policy):
        """What ``policy`` runs at (``None``: unit-at-a-time)."""
        if policy is None:
            return None
        if not _split(policy):
            return cls(policy.width, policy.max_staleness, policy.rtol,
                       policy.collector.backend)
        shadowed = policy.shadowed
        return cls(
            shadowed.width if shadowed is not None else None,
            policy.max_staleness, policy.rtol, policy.collector.backend,
            split=True, budget=policy.budget, rank_bound=policy.rank_bound,
            retune_every=policy.retune_every, sketch=policy.sketch,
            observe=policy.observe_stream)


def resolve_deferral(spec: DeferralSpec, cell=None, prior=None, sketch=None,
                     observe: bool | None = None, backend=None):
    """The active policy for ``spec`` under plan cell ``cell`` (or ``None``).

    The one place the deferral decision is spelled:

    * forced spec values win; ``"auto"``/``None`` values are read from
      ``cell`` — anything with ``batch_size`` / ``partition`` /
      ``heavy_budget`` (a :class:`~repro.planner.plan.MaintenancePlan`;
      ``None`` plans nothing);
    * heavy-light wins when both resolve on; the uniform policy it
      displaces rides along idle as ``shadowed`` (it keeps answering
      ``batch_size`` / ``batch_stats`` and resumes, stats intact, if the
      split switches off);
    * stats, occupancy sketch, heavy-set membership and re-tune phase
      carry forward from ``prior`` (a *flushed* policy of either kind);
      a moved budget re-derives membership at once.

    ``sketch`` hands in an already-warm
    :class:`~repro.planner.plan.StreamSketch` (it wins over the prior
    policy's); ``observe=False`` marks it externally fed, so the
    maintainer reads occupancy without double-counting the stream.
    """
    wanted = _Resolved.wanted(spec, cell, prior, sketch, observe, backend)
    if wanted is None:
        return None
    split = prior if _split(prior) else None
    uniform = None
    if wanted.width is not None:
        uniform = SessionBatcher(wanted.width, wanted.max_staleness,
                                 wanted.rtol, wanted.backend)
        shadowed = split.shadowed if split is not None else prior
        if shadowed is not None:
            uniform.stats = shadowed.stats
    if not wanted.split:
        return uniform
    from .heavylight import HeavyLightMaintainer

    policy = HeavyLightMaintainer(
        budget=wanted.budget, rank_bound=wanted.rank_bound,
        retune_every=wanted.retune_every, max_staleness=wanted.max_staleness,
        rtol=wanted.rtol, backend=wanted.backend, sketch=wanted.sketch,
        observe=wanted.observe,
    )
    policy.shadowed = uniform
    if split is not None:
        policy.stats = split.stats
        policy.seed(split.heavy_rows, split.since_retune)
        if policy.budget != split.budget:
            policy.retune()
    return policy


def still_resolved(spec: DeferralSpec, cell, running, sketch=None,
                   observe: bool | None = None, backend=None) -> bool:
    """Whether ``running`` already is what :func:`resolve_deferral` would
    build from the same arguments (same width, mode, budget, bounds,
    backend and sketch) — so a re-resolution may leave it alone, pending
    updates and all."""
    return (_Resolved.wanted(spec, cell, running, sketch, observe, backend)
            == _Resolved.running(running))


class DeferredRefresher:
    """Flush-on-read front end: a policy over a ``refresh(u, v)`` maintainer.

    Analytics maintainers (pagerank, markov, expm, ...) expose
    ``refresh(u, v)``; this wrapper routes those updates through any
    deferral ``policy`` — the same objects sessions use.  Reads stay
    fresh: any attribute access that falls through to the wrapped
    maintainer (``result()``, ``beta``, ``revalidate()``, ...) flushes
    first, so a caller can never observe state that lags the updates it
    already issued.

    ``apply`` replaces ``maintainer.refresh`` as what a compacted
    update is finally handed to (a maintainer's raw apply step).
    ``transpose=True`` keys the policy on the **right** factor: drivers
    like :class:`~repro.analytics.pagerank.IncrementalPageRank` issue
    ``refresh(delta, e_s)`` — a dense left factor times a source
    *column* indicator — so the repeated hot targets live in ``v``.
    The pending state then accumulates transposed and the factors swap
    back on the way out, which is exact: ``(L R')' = R L'``.
    """

    def __init__(self, maintainer, policy, apply=None, transpose: bool = False):
        self.maintainer = maintainer
        self.policy = policy
        self.transpose = bool(transpose)
        self._apply = apply if apply is not None else maintainer.refresh

    @property
    def stats(self):
        """The policy's achieved compression counters."""
        return self.policy.stats

    def _sink(self, update) -> None:
        if self.transpose:
            self._apply(update.v_block, update.u_block)
        else:
            self._apply(update.u_block, update.v_block)

    def refresh(self, u, v) -> None:
        """Absorb one factored update; flushes fire per policy."""
        if self.transpose:
            u, v = v, u
        self.policy.absorb(self._sink, FactoredUpdate("input", u, v))

    def flush(self) -> tuple[int, int, float]:
        """Apply everything pending to the maintainer now."""
        return self.policy.flush(self._sink)

    def __getattr__(self, name: str):
        if name in ("maintainer", "policy", "transpose", "_apply"):
            # __init__ hasn't run (copy/pickle): avoid infinite recursion.
            raise AttributeError(name)
        # Reads must never observe pending lag: flush before delegating.
        self.flush()
        return getattr(self.maintainer, name)


def deferred(maintainer, batch=None, partition=None, heavy_budget=None,
             backend=None, apply=None, transpose: bool = False):
    """``maintainer`` behind the policy its driver's arguments ask for.

    The analytics drivers' spelling of :func:`resolve_deferral`:
    ``batch`` / ``partition`` / ``heavy_budget`` are forced values (no
    plan cell); a request that resolves to unit-at-a-time returns the
    maintainer unwrapped.
    """
    spec = DeferralSpec(batch=batch, partition=partition,
                        heavy_budget=heavy_budget)
    policy = resolve_deferral(spec, backend=backend)
    if policy is None:
        return maintainer
    return DeferredRefresher(maintainer, policy, apply=apply,
                             transpose=transpose)


__all__ = [
    "BatchStats",
    "DeferralSpec",
    "DeferredRefresher",
    "SessionBatcher",
    "deferred",
    "resolve_deferral",
    "still_resolved",
]
