"""Drift monitoring for long-lived incremental views.

Incremental maintenance compounds floating-point error: each refresh
adds a delta computed from already-slightly-stale views, so after many
updates the maintained result drifts from what re-evaluation would
produce.  The paper sidesteps this operationally (inputs are
"preconditioned appropriately for numerical stability"); a production
deployment needs a policy.  :class:`DriftMonitor` wraps any maintainer
exposing ``refresh(u, v)`` plus a drift probe, and re-validates every
``check_every`` refreshes:

* drift within ``tolerance``   -> nothing happens (the common case);
* drift beyond ``tolerance``   -> the configured action runs —
  ``"rebuild"`` (call the maintainer's rebuild hook and keep going) or
  ``"raise"`` (:class:`DriftExceededError` for caller-controlled
  recovery).

Probes are cheap relative to their period: one re-evaluation amortized
over ``check_every`` refreshes, the same trade Table 3 makes explicit
for memory.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from ..backends import calibrated


class MaintainerWithDrift(Protocol):
    """What the monitor needs: refresh plus a drift probe."""

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None: ...

    def revalidate(self) -> float: ...


class DriftExceededError(RuntimeError):
    """Raised by the ``"raise"`` policy when drift passes tolerance."""

    def __init__(self, drift: float, tolerance: float, refreshes: int):
        super().__init__(
            f"view drift {drift:.3e} exceeded tolerance {tolerance:.3e} "
            f"after {refreshes} refreshes"
        )
        self.drift = drift
        self.tolerance = tolerance
        self.refreshes = refreshes


@dataclass
class DriftReport:
    """One probe outcome."""

    refreshes: int
    drift: float
    rebuilt: bool


class _ProbePolicy:
    """The re-validation policy both monitors share.

    A subclass names the attribute holding what it wraps (``_wraps``)
    and says how a rebuild lands (:meth:`_recover`); attribute access
    falls through to the wrapped object.
    """

    _wraps: str

    def __init__(self, wrapped, check_every, tolerance, action, rebuild):
        if check_every < 1:
            raise ValueError("check_every must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if action not in ("raise", "rebuild"):
            raise ValueError(f"unknown action {action!r}")
        setattr(self, self._wraps, wrapped)
        self.check_every = check_every
        self.tolerance = tolerance
        self.action = action
        self._rebuild = rebuild
        self.refreshes = 0
        self.reports: list[DriftReport] = []

    def probe(self) -> DriftReport:
        """Re-validate now, applying the policy if drift is excessive."""
        drift = getattr(self, self._wraps).revalidate()
        rebuilt = drift > self.tolerance
        if rebuilt and self.action == "raise":
            self.reports.append(DriftReport(self.refreshes, drift, False))
            raise DriftExceededError(drift, self.tolerance, self.refreshes)
        if rebuilt:
            self._recover()
        report = DriftReport(self.refreshes, drift, rebuilt)
        self.reports.append(report)
        return report

    @property
    def last_drift(self) -> float | None:
        """Drift at the most recent probe (None before the first)."""
        return self.reports[-1].drift if self.reports else None

    @property
    def rebuild_count(self) -> int:
        """How many times the policy rebuilt what it wraps."""
        return sum(1 for report in self.reports if report.rebuilt)

    def __getattr__(self, name: str):
        if name == self._wraps:
            # __init__ hasn't run (copy/pickle): avoid infinite recursion.
            raise AttributeError(name)
        return getattr(getattr(self, self._wraps), name)


class DriftMonitor(_ProbePolicy):
    """Wraps a maintainer with a periodic re-validation policy.

    ``rebuild`` is a zero-argument callable returning a *fresh*
    maintainer built from current ground truth; it is required for the
    ``"rebuild"`` action.  The monitor delegates attribute access to
    the wrapped maintainer, so ``monitor.result()`` etc. keep working.
    """

    _wraps = "maintainer"

    def __init__(
        self,
        maintainer: MaintainerWithDrift,
        check_every: int = 100,
        tolerance: float = 1e-6,
        action: str = "raise",
        rebuild: Callable[[], MaintainerWithDrift] | None = None,
    ):
        super().__init__(maintainer, check_every, tolerance, action, rebuild)
        if action == "rebuild" and rebuild is None:
            raise ValueError("action='rebuild' needs a rebuild callable")

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Refresh the wrapped maintainer; probe on schedule."""
        self.maintainer.refresh(u, v)
        self.refreshes += 1
        if self.refreshes % self.check_every == 0:
            self.probe()

    def _recover(self) -> None:
        self.maintainer = self._rebuild()


class SessionDriftMonitor(_ProbePolicy):
    """Drift monitoring for sessions (the ``apply_update`` interface).

    The session counterpart of :class:`DriftMonitor`: wraps any object
    exposing ``apply_update(update)`` plus ``revalidate()`` (both
    session strategies do) and probes every ``check_every`` updates.
    Unlike maintainers, a session can recover *in place* — its current
    inputs are ground truth — so the default ``"rebuild"`` action calls
    the session's :meth:`~repro.runtime.session.Session.rebuild`, which
    re-evaluates every view from the current inputs; a custom
    ``rebuild`` callable overrides that.

    Attribute access falls through to the wrapped session, so
    ``monitor.output()``, ``monitor["V"]``, ``monitor.plan`` etc. keep
    working — and always describe the *current* session.
    """

    _wraps = "session"

    def __init__(
        self,
        session,
        check_every: int = 100,
        tolerance: float = 1e-6,
        action: str = "rebuild",
        rebuild: Callable[[], None] | None = None,
    ):
        super().__init__(session, check_every, tolerance, action,
                         rebuild if rebuild is not None else session.rebuild)

    def apply_update(self, update) -> None:
        """Apply one update through the session; probe on schedule."""
        self.session.apply_update(update)
        self.refreshes += 1
        if self.refreshes % self.check_every == 0:
            self.probe()

    def apply_updates(self, updates) -> None:
        """Apply a sequence of updates, probing on schedule."""
        for update in updates:
            self.apply_update(update)

    def _recover(self) -> None:
        self._rebuild()

    def __getitem__(self, name: str):
        return self.session[name]

    def close(self) -> None:
        """Close the wrapped session (whichever one is current)."""
        self.session.close()

    # Dunder lookup skips ``__getattr__``: ``with monitor:`` needs these.
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


@dataclass
class ReplanEvent:
    """One re-planning decision (taken or declined)."""

    refreshes: int              #: updates absorbed when the check ran
    from_label: str             #: plan the session was running
    to_label: str               #: cheapest plan at current statistics
    predicted_saving: float     #: ops saved over the remaining horizon
    switch_cost: float          #: predicted ops to convert state
    seconds_per_update: float   #: measured cost since the last check
    switched: bool              #: whether the session actually moved


class ReplanMonitor(SessionDriftMonitor):
    """Online re-planning layered on session drift monitoring.

    :func:`~repro.planner.plan_program` prices the plan grid **once**,
    from the inputs as they look at session open.  Long-lived sessions
    drift away from that snapshot — reachability-style fill-in raises
    density until CSR state costs more than dense BLAS would — so the
    opening plan quietly becomes the wrong one.  This monitor closes the
    loop: every ``check_every`` updates it re-measures the inputs'
    densities and the observed update rank *from the live session
    state*, re-prices the (strategy, backend) grid with setup treated
    as sunk (``rank_program(amortize_setup=False)``; the per-rank
    prices of each cell are kept between checks and redone only
    when a dimension or measured density moves), and switches the
    session via :meth:`Session.with_plan
    <repro.runtime.session.Session.with_plan>` — a state *conversion*,
    never a rebuild — when the cheaper plan's projected savings over the
    remaining horizon exceed ``switch_margin`` times the conversion
    cost.  Numerical drift probing (inherited) runs at the same cadence.

    Parameters beyond :class:`SessionDriftMonitor`:

    probe_every:
        Cadence of the inherited *numerical* drift probe — a probe
        costs a full re-evaluation, so it runs on its own (typically
        sparser) schedule; ``check_every`` only paces re-planning,
        which needs densities, not ground truth.  ``None`` (default)
        disables numerical probing; :func:`open_session` maps a
        ``drift=`` request's ``check_every`` here.
    expected_refreshes:
        Expected total stream length; the remaining horizon prices
        projected savings.  ``None`` assumes the stream runs for at
        least as long again as it already has (the doubling heuristic —
        conservative early, increasingly confident later).
    switch_margin:
        Required ratio of projected savings to switch cost (hysteresis;
        2.0 means "the move must pay for itself twice over").
    calibration:
        Passed to :func:`~repro.planner.rank_program` (``"auto"`` loads
        the :mod:`repro.calibrate` cache).

    Measured per-update wall time is recorded on every
    :class:`ReplanEvent` (``seconds_per_update``), so drifting cost is
    visible alongside the model's predictions.

    Deferral interaction: the monitor keeps a
    :class:`~repro.planner.sketch.StreamSketch` of the stream it
    supervises and hands it to the planner as
    ``WorkloadStats.distinct_fraction``, so every re-planning pass
    re-prices each candidate batch width and the heavy-light split from
    the observed target skew (Table 4's knob).  Between switches the
    session's deferral spec is re-resolved against the freshly ranked
    cell (:meth:`_retune`): ``"auto"`` values follow it, values the
    caller forced never move.  Pending deferred updates flush before
    a switch or a change of policy (the flush-before-switch
    convention), never for a check that changes nothing: a check that
    neither switches nor re-tunes leaves the session exactly as it
    found it, so the deferral policy — not this monitor's cadence —
    decides when a batch ends.
    """

    def __init__(
        self,
        session,
        check_every: int = 50,
        tolerance: float = 1e-6,
        action: str = "rebuild",
        rebuild: Callable[[], None] | None = None,
        probe_every: int | None = None,
        expected_refreshes: int | None = None,
        switch_margin: float = 2.0,
        calibration="auto",
    ):
        super().__init__(session, check_every, tolerance, action, rebuild)
        if switch_margin <= 0:
            raise ValueError("switch_margin must be positive")
        if probe_every is not None and probe_every < 1:
            raise ValueError("probe_every must be positive (or None)")
        self.probe_every = probe_every
        self._custom_rebuild = rebuild is not None
        self.expected_refreshes = (
            None if expected_refreshes is None else int(expected_refreshes)
        )
        self.switch_margin = float(switch_margin)
        self.calibration = calibration
        self.replans: list[ReplanEvent] = []
        self._window_seconds = 0.0
        self._window_updates = 0
        self._observed_rank = 1
        self._update_target: str | None = None
        from ..planner.sketch import StreamSketch

        # The pricing stack, and the deferral policies a re-tune may
        # switch on, load with the monitor, not at its first check: an
        # opening call that had nothing to price or defer never imported
        # them (docs/invariants.md, "Import closures").
        importlib.import_module("..planner.planner", __package__)
        importlib.import_module("..planner.programcost", __package__)
        importlib.import_module(".heavylight", __package__)
        #: Online distinct-target sketch of the observed update stream —
        #: the Zipf-awareness that re-prices each plan's batch width
        #: from what the stream actually hits (Table 4's knob).
        self.stream_sketch = StreamSketch()
        #: ``rank_program``'s ``memo``: calibrated backends and
        #: per-rank cell prices kept across checks, so a check of an
        #: unchanged workload re-prices nothing.
        self._rank_memo: dict = {}

    def apply_update(self, update) -> None:
        """Apply one update; probe drift and re-plan on schedule."""
        start = time.perf_counter()
        self.session.apply_update(update)
        self._window_seconds += time.perf_counter() - start
        self._window_updates += 1
        self._observed_rank = max(self._observed_rank, update.rank)
        self._update_target = update.target
        self.stream_sketch.observe(update)
        self.refreshes += 1
        if self.probe_every and self.refreshes % self.probe_every == 0:
            self.probe()
        if self.refreshes % self.check_every == 0:
            self.replan()

    def _remaining_horizon(self) -> int:
        if self.expected_refreshes is not None:
            return max(self.expected_refreshes - self.refreshes,
                       self.check_every)
        return max(self.refreshes, self.check_every)

    def _switch_cost(self, to_backend: str, to_nodes: int = 1) -> float:
        """Predicted ops to convert the session's state to ``to_backend``.

        Conversion touches what is stored now plus what the target
        representation will store (CSR -> dense materializes the full
        ``n x m`` image, not just the nonzeros), priced at each side's
        ``est_convert_passes_per_entry`` — a constant ``repro
        calibrate`` fits from timed CSR <-> dense conversions on this
        machine (the shipped class default, 2.0 passes, reproduces the
        pre-calibration fixed constant).  A same-backend switch
        (strategy only) shares the arrays outright — its cost is just
        trigger (re)compilation, charged as a few kernel calls.

        A node-count change adds one full pass over every maintained
        view: sharded state lives in shared-memory segments and must be
        copied out (or back in) when the worker fleet changes size —
        the flush-before-switch contract's data movement, priced so the
        IPC-tax fallback only fires when the stream will repay it.
        """
        old = calibrated(self.session.backend, self.calibration)
        new = calibrated(to_backend, self.calibration)
        views = self.session.views
        reshard = 0.0
        if to_nodes != getattr(self.session, "nodes", 1):
            for name in views.names():
                arr = views.get(name)
                rows, cols = old.shape(arr)
                reshard += old.est_entries((rows, cols), old.density(arr))
        if new.name == old.name:
            return 8.0 * new.est_call_overhead_flops + reshard
        cost = reshard
        for name in views.names():
            arr = views.get(name)
            rows, cols = old.shape(arr)
            density = old.density(arr)
            cost += (old.est_convert_passes_per_entry
                     * old.est_entries((rows, cols), density))
            cost += (new.est_convert_passes_per_entry
                     * new.est_entries((rows, cols), density))
        return cost

    def replan(self) -> ReplanEvent | None:
        """Re-price the plan grid from live state; switch if it pays.

        The check disturbs the session only when its decision changes
        something.  It ranks on the *stored* inputs, pending deferred
        updates and all (what is pending is bounded — by
        ``max_staleness``, the batch width or the light rank bound — so
        it moves a measured density by at most that many rank-1 terms);
        only a ranking that says "switch" flushes, and the switch is
        then decided again on the landed state, the state that will
        cross.  Re-tuning flushes only when the policy changes
        (:meth:`_retune`).

        Returns the :class:`ReplanEvent` when the best plan differs from
        the running one (whether or not the switch was taken), ``None``
        when the current plan is still the winner.
        """
        session = self.session
        remaining = self._remaining_horizon()
        seconds = self._window_seconds / max(self._window_updates, 1)
        self._window_seconds = 0.0
        self._window_updates = 0

        current, best, event = self._weigh(remaining, seconds)
        # ``flush()[0]``: how many pending updates just landed.
        if event is not None and event.switched and session.flush()[0]:
            current, best, event = self._weigh(remaining, seconds)
        self._retune(current)
        if event is None:
            return None
        self.replans.append(event)
        if event.switched:
            # The ranked cell is the whole recipe of the new session: it
            # carries the observed rank.
            self.session = session.with_plan(best)
            if not self._custom_rebuild:
                # Rebind the default rebuild hook to the *new* session.
                self._rebuild = self.session.rebuild
        return event

    def _weigh(self, remaining: int, seconds: float):
        """Rank the grid on the session's stored state.

        Returns ``(current, best, event)``: the freshly ranked cell of
        the running configuration (``None`` when the grid has no such
        cell), and — when another cell ranks first — that cell and the
        :class:`ReplanEvent` weighing the move (``switched``: whether
        it pays); both ``None`` while the running cell still wins.
        """
        from ..planner import WorkloadStats, rank_program

        session = self.session
        program = session.program
        inputs = {name: session.views.get(name)
                  for name in program.input_names}
        stats = WorkloadStats(n=1, update_rank=self._observed_rank,
                              refresh_count=remaining,
                              distinct_fraction=self.stream_sketch,
                              batch_hint=session.deferral_spec.max_staleness)
        # Cells are ranked on the unbatched per-refresh cost even though
        # sessions batch: rank_program(price_batching=True) exists, but
        # the batched REEVAL estimate (one recompute amortized over the
        # whole batch) measures over-optimistic against the kernels, and
        # acting on it flips sessions into configurations that lose on
        # the wall clock.  The conservative form under-sells batching
        # equally across cells, which keeps the *comparison* honest.
        # Sharded sessions keep their node count on the grid so the
        # single-process fallback competes head-to-head (the monitor
        # can shrink the fleet, never grow it: switching *into* sharded
        # needs a fresh open_session).
        cur_nodes = getattr(session, "nodes", 1)
        node_grid = (1, cur_nodes) if cur_nodes > 1 else (1,)
        # The running backend's cell is always priced — a session must
        # be able to see its own cell lose — so a backend the
        # admissible grid could drop is named (named cells are ranked
        # as given); dense is in every grid.
        running = session.backend.name
        ranked = rank_program(
            program, inputs, stats=stats, dims=session.views.dims,
            update_input=self._update_target, calibration=self.calibration,
            backends=None if running == "dense" else ("dense", running),
            amortize_setup=False, nodes=node_grid, memo=self._rank_memo,
        )
        current = next(
            (c for c in ranked
             if c.strategy == session.strategy
             and c.backend == running
             and c.nodes == cur_nodes),
            None,
        )
        best = ranked[0]
        if current is None or (best.strategy, best.backend, best.nodes) == (
                current.strategy, current.backend, cur_nodes):
            return current, None, None
        saving = (current.predicted_time - best.predicted_time) * remaining
        cost = self._switch_cost(best.backend, to_nodes=best.nodes)
        return current, best, ReplanEvent(
            self.refreshes, current.label, best.label, saving, cost, seconds,
            switched=saving > self.switch_margin * cost)

    def _retune(self, cell) -> None:
        """Re-resolve the session's deferral spec from live stream stats.

        The freshly ranked ``cell`` for the *running* configuration
        carries the width, partition mode and heavy budget the
        skew-aware estimators (fed by :attr:`stream_sketch`) now
        recommend.  :meth:`Session.install_deferral
        <repro.runtime.session.Session.install_deferral>` resolves:
        only ``"auto"`` spec values move, and a heavy-light policy reads
        this monitor's warm sketch (``observe=False``: the monitor
        feeds it).  A cell that resolves to what already runs — same
        width, partition, budget and sketch — keeps the running policy
        object, pending updates included; anything else flushes first.

        One rule stays here because it is hysteresis, not resolution: a
        width re-tune never switches running batching off.  The width-1
        signal comes from the flop-linear refresh model, which cannot
        see the locality advantage of one rank-``r`` BLAS-3 pass over
        ``r`` rank-1 passes — measured, block propagation keeps winning
        at parity flops — and reads bound staleness either way.
        """
        if cell is None:
            return
        session = self.session
        if (cell.batch_size or 1) <= 1:
            cell = dataclasses.replace(cell, batch_size=session.batch_size)
        session.install_deferral(cell, sketch=self.stream_sketch,
                                 observe=False)

    @property
    def switch_count(self) -> int:
        """How many times re-planning actually moved the session."""
        return sum(1 for event in self.replans if event.switched)


__all__ = [
    "DriftExceededError",
    "DriftMonitor",
    "DriftReport",
    "MaintainerWithDrift",
    "ReplanEvent",
    "ReplanMonitor",
    "SessionDriftMonitor",
]
