"""IVM sessions: compile once, maintain forever.

:class:`Session` is the shared spine — program validation, view
storage, backend resolution, output accessors, revalidation — with two
strategies on top:

* :class:`IVMSession` — incremental maintenance (INCR): compile the
  triggers (Algorithm 1) and repair every view per factored update;
* :class:`ReevalSession` — the re-evaluation baseline (REEVAL): apply
  the update, recompute every statement.

Both take the same constructor surface, so experiments can swap
strategies without touching driver code.  :func:`open_session` is the
planner-driven entry point: ``open_session(program, inputs)`` measures
the inputs, asks :mod:`repro.planner` for the cheapest (strategy,
backend, mode) configuration — unless its arguments already determine
one — and returns the matching session.  Every
session is built by :func:`build_session` from one
:class:`~repro.planner.plan.MaintenancePlan` — the whole recipe, kept
as ``session.plan`` (a directly constructed session synthesizes its
plan from its arguments).

Every update runs one lowered form (:mod:`repro.compiler.codegen.fused`):
a flat kernel list with buffers, hoisted transposes, identical records
merged and the evaluate-all-then-apply-all order made explicit — the
input's trigger under INCR, its REEVAL list under REEVAL, and the
evaluation list for builds, rebuilds and revalidation.  The lists are
compiled once per program at a symbolic update width, which each
session binds to ``plan.rank``
(:func:`~repro.compiler.compile.compiled_program`).  Both execution
modes run them — through the backend's ``*_into`` kernels, into buffers
leased once from the session's :class:`~repro.runtime.workspace.Workspace`,
repairing views **in place** — so they share ops, operand layouts and
association order by construction (bit-for-bit equal on the dense
backend) and a warmed-up dense session performs zero heap allocation
per update in either:

* ``mode="interpret"`` — a loop over the list (the default; bound on a
  trigger's first firing);
* ``mode="codegen"`` — the list printed as one flat Python function and
  ``exec``-compiled once at open (the paper's generated-code path).

Updates whose rank differs from ``plan.rank`` run the same list with
allocating destinations and lease nothing.

A session given a ``counter`` runs on
:func:`~repro.cost.counters.counted`'s copy of its backend, wrapped
once at construction: every kernel call charges the counter, so both
modes — and REEVAL's re-evaluation — report one ledger.  Without one
the session runs on the backend it was handed.

View storage is store-owned and updated **in place in every mode**
(:mod:`repro.runtime.views`): treat matrices returned by
``session[...]``/``session.output()`` as *live* state, valid until the
next update — copy them if you need a snapshot that survives further
updates.  Arrays passed in as ``inputs`` are copied once and never
written through.

Sessions also honor the plan's **deferral recommendation** (Table 4
batching, heavy-light partitioning): a session has one deferral slot —
``None`` applies every update at once, a policy object
(:mod:`repro.runtime.batching`) defers, merges and fires the trigger
once per flush — on width / rank bound, on read (``session[...]``/
``view()``/``output()``/``revalidate()``), on target change, before any
policy or plan switch, and within ``max_staleness`` updates.  What the
caller asked for is kept as one frozen
:class:`~repro.runtime.batching.DeferralSpec`; the active policy is
always what :func:`~repro.runtime.batching.resolve_deferral` makes of
that spec and the current plan.
"""

from __future__ import annotations

import dataclasses
import warnings
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Mapping, Sequence

import numpy as np

from ..backends import get_backend
from ..backends.base import DEFAULT_RTOL
from ..compiler.codegen.fused import (
    compile_fused_trigger,
    compile_trigger_function,
)
# benchmarks/e2e/trace.py patches ``compile_program`` on this module.
from ..compiler.compile import UPDATE_WIDTH, compile_program, compiled_program  # noqa: F401
from ..compiler.program import Program
from ..cost import counters
from .batching import DeferralSpec, resolve_deferral, still_resolved
from .executor import infer_dims, run_list
from .updates import (FactoredUpdate, InvalidUpdateError, SingularUpdateError,
                      validate_finite_inputs)
from .views import ViewStore
from .workspace import Workspace


class UnsupportedCombinationError(ValueError):
    """Arguments that cannot be honored together (typed, not ignored)."""


class Session:
    """Shared state and plumbing of every maintenance session.

    Parameters
    ----------
    program:
        The linear algebra program to maintain.
    inputs:
        Initial values for every declared input matrix (copied; the
        caller's arrays are never written through) — or a live
        :class:`~repro.runtime.views.ViewStore` to *adopt*: the store
        (inputs **and** materialized views) becomes this session's own
        storage, converted first when it was built for another backend,
        and nothing is re-evaluated.  The caller hands the store over
        and must not write to it afterwards.  Adoption is the hand-off
        used by online re-planning (:meth:`with_plan`), checkpoint
        restore and the catalog.
    dims:
        Bindings for symbolic dimension names used in the program.
    counter:
        FLOP/byte counter charged with all maintenance work, by the
        backend's kernels (:func:`~repro.cost.counters.counted`).
    backend:
        Execution backend for view state and trigger math — a name
        (``"dense"``, ``"sparse"``), a
        :class:`~repro.backends.base.Backend` instance, or ``None`` for
        the plan's (dense without one).  See :mod:`repro.backends`.
    plan:
        The :class:`~repro.planner.plan.MaintenancePlan` this session is
        built from (:func:`build_session` passes it); ``None``
        synthesizes one from the constructor's own arguments.  Kept as
        ``session.plan``, its ``backend`` naming the one that runs.
    """

    #: Strategy name reported by plans/monitors (set by subclasses).
    strategy = "ABSTRACT"

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        plan=None,
        **axes,
    ):
        self.program = program
        self.counter = counter
        self.backend = counters.counted(get_backend(
            plan.backend if backend is None and plan is not None else backend
        ), counter)
        if plan is None:
            # ``axes``: the plan fields a subclass's arguments spell.
            from ..planner.plan import MaintenancePlan

            plan = MaintenancePlan(self.strategy, **axes)
        #: The whole recipe; never assigned from outside the session.
        self.plan = plan.with_overrides(backend=self.backend.name)
        self.update_count = 0
        #: The one deferral slot: ``None`` (unit) or a policy object.
        self._deferral = None
        self._deferral_spec = DeferralSpec()
        self._checkpointer = None
        self.mode = self.plan.mode
        #: Triggers and lowered lists, shared per program.
        self.compiled = compiled_program(program)
        #: Scratch buffers of every bound list.
        self.workspace = Workspace()
        #: Input name -> bound executor of its update list.
        self._executors: dict[str, Callable] = {}
        adopted = isinstance(inputs, ViewStore)
        if adopted:
            # Adopt live state: no re-evaluation, and no copy unless
            # the representation has to change.
            same = counters.counted(inputs.backend, counter) is self.backend
            self.views = inputs if same else inputs.converted(self.backend)
            self.views.backend = self.backend
        else:
            self.views = ViewStore(dims, backend=self.backend)
            missing = set(program.input_names) - set(inputs)
            if missing:
                raise ValueError(
                    f"missing initial values for inputs: {sorted(missing)}")
            validate_finite_inputs(inputs, program.input_names)
            for name in program.input_names:
                self.views.set(name, inputs[name])
        # Dimensions the stored inputs bind, once; given ones win.
        self.views.dims = {**infer_dims(self.program, {
            name: self.views.get(name) for name in program.input_names
            if name in self.views}), **self.views.dims}
        if not adopted:
            self._materialize_all()
        if self.mode == "codegen":
            for name in self.compiled.triggers:
                self._executor(name)

    # -- queries ---------------------------------------------------------
    def __getitem__(self, name: str) -> np.ndarray:
        """Current value of a view or input, densely (do not mutate).

        Reads flush any batched pending updates first, so callers never
        observe state that lags the updates they already issued.
        """
        self.flush()
        return self.views.get_dense(name)

    def view(self, name: str) -> np.ndarray:
        """Explicit read accessor: flush pending updates, return densely."""
        return self[name]

    def output(self) -> np.ndarray:
        """Current value of the program's (first) output view, densely."""
        return self[self.program.outputs[0]]

    # -- maintenance -----------------------------------------------------
    def apply_update(self, update: FactoredUpdate) -> None:
        """Maintain the views for one factored update.

        With a deferral policy installed (:meth:`set_batching`,
        :meth:`set_partition`, or a plan recommendation honored by
        :func:`open_session`) the update is absorbed by the policy —
        queued for a compacted batch, or split by target row — and
        applied on a later flush: on width / rank bound, staleness,
        read, or switch.

        Malformed updates — NaN/Inf factor entries, factor shapes the
        target view cannot absorb — are rejected with
        :class:`~repro.runtime.updates.InvalidUpdateError` *before* any
        view, batch or accumulator is touched, so a bad update never
        poisons maintained state.  One that would leave an ``inv`` view
        singular raises
        :class:`~repro.runtime.updates.SingularUpdateError` under either
        strategy, with every input and view as it was.
        """
        self._validate_update(update)
        policy = self._deferral
        if policy is None:
            self._apply_now(update)
        else:
            policy.absorb(self._apply_now, update)
        self.update_count += 1
        if self._checkpointer is not None:
            self._checkpointer.note(update)

    def apply_updates(self, updates: Sequence[FactoredUpdate]) -> None:
        """Maintain the views across a sequence of updates, in order."""
        for update in updates:
            self.apply_update(update)

    #: The :class:`~repro.compiler.compile.CompiledProgram` method
    #: giving an input's update list (set by subclasses).
    _update_list = "lowered"

    def _executor(self, name: str) -> Callable:
        """Bind ``name``'s update list against this session's dims,
        backend and workspace, in the form ``self.mode`` runs."""
        build = (compile_fused_trigger if self.mode == "codegen"
                 else compile_trigger_function)
        fn = self._executors[name] = build(
            getattr(self.compiled, self._update_list)(name),
            self._bound_dims(), self.backend, self.workspace, self._leases)
        return fn

    #: Whether the update lists lease their buffers (else allocate).
    _leases = True

    def _bound_dims(self) -> dict[str, int]:
        """The store's dims and the width."""
        return {**self.views.dims, UPDATE_WIDTH.name: self.plan.rank}

    def _apply_now(self, update: FactoredUpdate) -> None:
        """Apply one (possibly batch-compacted) update immediately.

        The input's update list runs in ``self.mode``; one bound in
        interpret mode is bound on its first firing, so an input that
        is never updated leases nothing.
        """
        fn = self._executors.get(update.target) or self._executor(
            update.target)
        try:
            fn(self.views._arrays, update.u_block, update.v_block)
        except np.linalg.LinAlgError as exc:
            # Only an ``inv`` raises it, and every list evaluates
            # everything before it writes a view.
            raise SingularUpdateError(
                f"update to {update.target!r} makes an inverse singular; "
                f"no input or view changed ({exc})") from exc

    def _check_update_target(self, update: FactoredUpdate) -> None:
        """Raise early for updates no flush could ever apply: only an
        input has an update list."""
        if update.target not in self.compiled.triggers:
            raise KeyError(f"no trigger compiled for input {update.target!r}")

    def _validate_update(self, update: FactoredUpdate) -> None:
        """Reject malformed updates before they can touch any state."""
        update.validate_finite()
        self._check_update_target(update)
        if update.target not in self.views:
            return
        rows, cols = self.backend.shape(self.views.get(update.target))
        if update.u_block.shape[0] != rows or update.v_block.shape[0] != cols:
            raise InvalidUpdateError(
                f"update factors ({update.u_block.shape[0]} x "
                f"{update.v_block.shape[0]}) do not match {update.target!r} "
                f"({rows} x {cols})"
            )

    # -- checkpointing ---------------------------------------------------
    def attach_checkpointer(self, target, **options):
        """Attach a checkpoint policy; every applied update is logged.

        ``target`` is a directory (snapshots land there under a
        :class:`~repro.runtime.checkpoint.CheckpointManager`) or an
        existing :class:`~repro.runtime.checkpoint.Checkpointer` to
        re-point at this session; ``options`` pass through to the
        ``Checkpointer`` constructor (``every``, ``keep``, ``auto``,
        ``delta_limit``).  Returns the attached checkpointer.
        """
        from .checkpoint import Checkpointer

        if isinstance(target, Checkpointer):
            checkpointer = target
            checkpointer.session = self
        else:
            checkpointer = Checkpointer(self, target, **options)
        self._checkpointer = checkpointer
        return checkpointer

    @property
    def checkpointer(self):
        """The attached :class:`Checkpointer`, or ``None``."""
        return self._checkpointer

    def restore(self):
        """Rebuild this session's state from its latest valid snapshot.

        Delegates to the attached checkpointer: the newest valid
        snapshot is loaded, the logged delta tail replays, and the
        returned *fresh* session (bitwise-identical to this one) takes
        over the checkpointer.  Raises
        :class:`~repro.runtime.checkpoint.CheckpointError` when no
        checkpointer is attached.
        """
        from .checkpoint import CheckpointError

        if self._checkpointer is None:
            raise CheckpointError(
                "no checkpointer attached (open_session(checkpoint=...) "
                "or session.attach_checkpointer(directory))"
            )
        return self._checkpointer.restore()

    # -- deferral --------------------------------------------------------
    @property
    def deferral(self):
        """The active deferral policy (``None`` = unit-at-a-time): a
        :class:`~repro.runtime.batching.SessionBatcher` or a
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer`."""
        return self._deferral

    @property
    def deferral_spec(self) -> DeferralSpec:
        """What the caller asked for (``"auto"`` or forced values)."""
        return self._deferral_spec

    @property
    def deferral_cell(self) -> SimpleNamespace:
        """``batch_size`` / ``partition`` / ``heavy_budget`` as they run
        now: what a spec edit re-resolves its untouched ``"auto"`` axes
        against, and what a checkpoint stores."""
        return SimpleNamespace(
            batch_size=self.batch_size, partition=self.partition,
            heavy_budget=getattr(self._deferral, "budget", None))

    def install_deferral(self, cell, spec: DeferralSpec | None = None,
                         sketch=None, observe: bool | None = None) -> None:
        """(Re-)resolve the deferral spec against ``cell``.

        The one install path: :func:`open_session`, :meth:`set_batching`
        / :meth:`set_partition` (``spec`` edits), :meth:`with_plan` and
        :class:`~repro.runtime.drift.ReplanMonitor` re-tuning (a new
        ``cell``) and checkpoint restore all land here, so pending
        updates always flush before the policy changes
        (flush-before-switch) and the decision is always
        :func:`~repro.runtime.batching.resolve_deferral`'s (``sketch``
        / ``observe`` pass through to it).  Without a ``spec`` edit —
        the standing spec re-resolved against a fresh ``cell`` — a
        decision the running policy already embodies
        (:func:`~repro.runtime.batching.still_resolved`) keeps that
        object: nothing changes, so nothing flushes and nothing is
        built.
        """
        if spec is None and still_resolved(
                self._deferral_spec, cell, self._deferral, sketch, observe,
                self.backend):
            return
        self.flush()
        if spec is not None:
            self._deferral_spec = spec
        self._deferral = resolve_deferral(
            self._deferral_spec, cell, prior=self._deferral, sketch=sketch,
            observe=observe, backend=self.backend)

    def set_batching(
        self,
        width: int | None,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        auto: bool = False,
    ) -> None:
        """Enable (``width > 1``) or disable (``None``/``<= 1``) batching.

        A spec edit through :meth:`install_deferral` (pending updates
        flush first).  ``max_staleness`` caps the pending update count
        below the batch width (a read-lag bound; reads always flush
        regardless).  ``auto=True`` marks the width as plan-derived so
        online re-planning may re-price it from live stream statistics
        — a user-forced width is never overridden.  ``max_staleness``
        and ``rtol`` are shared with :meth:`set_partition`.
        ``batch_stats`` survives re-configuration: it keeps describing
        the whole stream, not just the tail segment.
        """
        width = width if width is not None and width > 1 else None
        cell = self.deferral_cell
        cell.batch_size = width
        self.install_deferral(cell, dataclasses.replace(
            self._deferral_spec, batch="auto" if auto else width,
            max_staleness=max_staleness, rtol=rtol))

    def set_partition(
        self,
        mode: str | None,
        heavy_budget: int | None = None,
        rank_bound: int | None = None,
        retune_every: int | None = None,
        max_staleness: int | None = None,
        rtol: float = DEFAULT_RTOL,
        auto: bool = False,
        sketch=None,
        observe: bool | None = None,
    ) -> None:
        """Enable (``"heavy-light"``) or disable (``"uniform"``/``None``)
        heavy-light partitioned maintenance.

        A spec edit through :meth:`install_deferral` (pending updates
        flush first).  The options configure the
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer`
        (``"uniform"`` edits the mode only); ``max_staleness`` and
        ``rtol`` are shared with :meth:`set_batching`.  ``auto=True``
        marks the *mode* as plan-derived so online re-planning may
        re-tune it from live stream statistics — a user-forced mode is
        never overridden, and neither is any option given here
        (``heavy_budget=None`` follows the plan).  ``sketch`` seeds the
        maintainer with an already-warm
        :class:`~repro.planner.plan.StreamSketch`; ``observe=False``
        marks it externally fed (``None`` inherits the prior policy's
        setting, defaulting to self-observed).  ``partition_stats``,
        the sketch and the heavy set survive re-configuration.
        """
        mode = "uniform" if mode is None else mode
        if mode not in ("uniform", "heavy-light"):
            raise ValueError(f"unknown partition mode {mode!r}")
        changes = {"partition": "auto" if auto else mode}
        if mode == "heavy-light":
            changes.update(heavy_budget=heavy_budget, rank_bound=rank_bound,
                           retune_every=retune_every,
                           max_staleness=max_staleness, rtol=rtol)
        cell = self.deferral_cell
        cell.partition = mode
        self.install_deferral(
            cell, dataclasses.replace(self._deferral_spec, **changes),
            sketch=sketch, observe=observe)

    def flush(self) -> tuple[int, int, float]:
        """Apply any deferred pending updates now.

        Returns ``(batch_size, compacted_rank, dropped)`` — ``(0, 0,
        0.0)`` with nothing pending.
        """
        policy = self._deferral
        if policy is None:
            return 0, 0, 0.0
        return policy.flush(self._apply_now)

    def _uniform(self):
        """The uniform-batch policy — active, or shadowed by the split."""
        policy = self._deferral
        if self.partition == "heavy-light":
            return policy.shadowed
        return policy

    @property
    def batch_size(self) -> int:
        """The resolved batching width (1 = per-update application)."""
        uniform = self._uniform()
        return uniform.width if uniform is not None else 1

    @property
    def batch_stats(self):
        """Achieved :class:`~repro.runtime.batching.BatchStats` (or None)."""
        uniform = self._uniform()
        return uniform.stats if uniform is not None else None

    @property
    def partition(self) -> str:
        """The active partition mode (``"uniform"`` or ``"heavy-light"``)."""
        return getattr(self._deferral, "partition", "uniform")

    @property
    def partition_stats(self):
        """Achieved :class:`~repro.runtime.heavylight.HeavyLightStats`
        of the partitioned path (or ``None`` under uniform maintenance)."""
        if self.partition == "heavy-light":
            return self._deferral.stats
        return None

    # -- lifetime --------------------------------------------------------
    def close(self) -> None:
        """Release what the session holds outside this process.

        Nothing for a single-process session (it stays usable); a
        :class:`ShardedSession` stops its workers.  ``nodes=N`` is
        a budget, so one ``open_session`` call may return either — every
        session closes, and works as a context manager, the same way.
        """

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False

    # -- validation ------------------------------------------------------
    #: Buffer -> the array the evaluation list computes in (a sharded
    #: open's segments); empty: each result is a new array.
    _landing: Mapping[str, np.ndarray] = {}

    def _materialize_all(self) -> None:
        """Evaluate every statement, then store the results.

        Nothing is stored until every statement has evaluated, so one
        that raises leaves the store as it was.
        """
        env = run_list(self.compiled.evaluation(), self.views.as_env(),
                       self.views.dims, self.backend, buffers=self._landing)
        for name in self.program.view_names:
            # A result is fresh unless its statement is a bare or
            # transposed reference; adopt() copies exactly those.
            self.views.adopt(name, env[name])

    def rebuild(self) -> None:
        """Recompute every view from the current inputs, in place.

        The drift-recovery hook: maintained values are replaced by a
        fresh evaluation against ground truth (the current inputs), so
        accumulated floating-point drift resets to zero.  Batched
        pending updates flush first — they have not yet reached the
        inputs, and must not be lost to the re-evaluation.
        """
        self.flush()
        self._materialize_all()

    def with_plan(self, plan) -> "Session":
        """A session in ``plan``'s configuration adopting this one's state.

        The online re-planning switch (:class:`ReplanMonitor`): view
        state crosses backends through
        :meth:`ViewStore.converted <repro.runtime.views.ViewStore.converted>`
        (one pass over stored entries — CSR state densifies, dense state
        re-enters the target representation policy), INCR plans
        (re)bind their triggers, and **no view is re-evaluated**.
        ``plan`` is the whole recipe (:func:`build_session`): no axis is
        inherited from this session's plan — a caller keeps one with
        ``dataclasses.replace(plan, rank=self.plan.rank)``.  The update
        counter carries over.  The superseded session is never
        written through:
        on a backend change the new session gets an independent copy of
        the state, and on a same-backend switch the store itself changes
        hands — this session is detached (``views`` becomes ``None``)
        and must not be used again.

        Deferred pending updates **flush before the switch** (the
        flush-before-switch convention): deltas must land in the state
        that crosses the backend boundary.  The deferral spec and the
        flushed policy are handed to the new session, which re-resolves
        them against ``plan`` (:meth:`install_deferral`): ``"auto"``
        values are re-read from the new plan, forced values are kept
        verbatim, and stats, sketch and heavy set carry over.
        """
        self.flush()
        if plan.nodes > 1:
            raise ValueError(
                "cannot switch into a sharded (nodes > 1) plan mid-stream; "
                "open a new session with open_session(..., nodes=N)"
            )
        # A session built around a ViewStore takes it over as-is under
        # the same backend and converts (copies) it under another.
        session = build_session(self.program, self.views, plan,
                                counter=self.counter)
        session.update_count = self.update_count
        # The flushed policy is the prior the re-resolution carries
        # stats, sketch and heavy set from; it is never shared live.
        session._deferral = self._deferral
        session.install_deferral(session.plan, self._deferral_spec)
        # The checkpoint policy follows the live state: the delta log
        # keeps accumulating across the switch (snapshots capture the
        # new configuration), and the old session stops noting.
        if self._checkpointer is not None:
            self._checkpointer.session = session
            session._checkpointer, self._checkpointer = self._checkpointer, None
        if session.views is self.views:
            self.views = None
        return session

    def revalidate(self) -> float:
        """Recompute every view from the current inputs; return max drift.

        Useful for monitoring numerical error accumulated over long
        update streams.  Leaves the maintained values in place.  Acts
        as a read: batched pending updates flush first.
        """
        self.flush()
        be = counters.uncounted(self.backend)  # a check: not charged
        env = run_list(self.compiled.evaluation(), {
            name: self.views.get(name) for name in self.program.input_names
        }, self.views.dims, be)
        return max((be.max_abs(be.sub_into(env[name], self.views.get(name)))
                    for name in self.program.view_names), default=0.0)


class IVMSession(Session):
    """Incrementally maintained program state (the INCR strategy).

    Adds to :class:`Session`:

    rank:
        Expected width of incoming factored updates: the width the
        triggers' buffers are shaped for.  Updates of any other width
        are accepted in both modes, at their true cost (they allocate
        their temporaries).
    mode:
        ``"interpret"`` or ``"codegen"`` (see module docstring).

    A ``plan`` wins over ``rank`` / ``mode``: the triggers are bound
    from ``session.plan`` and nothing else.
    """

    strategy = "INCR"

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        rank: int = 1,
        mode: str = "interpret",
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        plan=None,
    ):
        super().__init__(program, inputs, dims, counter, backend, plan,
                         mode=mode, rank=rank)


class ReevalSession(Session):
    """The re-evaluation baseline (REEVAL): apply the update, recompute.

    Mirrors :class:`IVMSession`'s interface (``mode=`` included) so
    experiments can swap the two strategies without touching driver
    code.  Each input's REEVAL list
    (:meth:`~repro.compiler.compile.CompiledProgram.reevaluated`) runs
    like a trigger: the update lands in a copy of the input, every
    statement evaluates into scratch buffers, and only then are the
    input and the views written, in place.  Batching pays most here: a
    width-``m`` batch is one compaction plus *one* re-evaluation.  The
    buffers are leased on the dense backend only, so sparse state
    never gets a dense square scratch buffer.
    """

    strategy = "REEVAL"
    _update_list = "reevaluated"

    @property
    def _leases(self) -> bool:
        return self.backend.name == "dense"


class ShardedSession(IVMSession):
    """INCR maintenance on a multiprocess shared-memory shard engine.

    An :class:`IVMSession` on a
    :class:`~repro.distributed.sharded.ShardBackend`: the triggers, their
    lowered lists and both execution modes are the single-process ones,
    and only the kernels that touch a stored view differ — views live in
    ``multiprocessing.shared_memory`` segments shared by this process,
    node 0, with ``nodes - 1`` persistent workers
    (:class:`~repro.distributed.sharded.ShardedEngine`), the big
    per-tile dgemms fan out across the nodes and only thin rank-k factors
    cross pipes.  What this class adds is the lifecycle: it spawns the
    workers first and, while they boot, copies each input into its
    segment and evaluates each view into its own; it copies them back
    out on :meth:`close` / :meth:`with_plan`, and survives a lost
    cluster (:meth:`_reeval_recover`).

    Any program whose lowered lists stay inside the tile kernels runs
    (:func:`~repro.distributed.sharded.unshardable` decides, before any
    process starts; every view must be square, of one order, on the
    dense backend).  A ``backend=``
    :class:`~repro.distributed.sharded.ShardBackend` instance is used as
    given (over a :class:`~repro.distributed.sharded.LocalShardEngine`:
    the in-process reference of the differential tests): it must tile
    the inputs' order over ``plan.nodes``, and the arguments that shape
    a spawned engine (``shard`` ... ``supervise``) are refused beside it.

    ``session.views`` aliases the shared segments, so reads are
    zero-copy *live* state — copy what must survive further updates.
    Measured traffic accumulates in ``session.engine.comm``.
    """

    def __init__(
        self,
        program: Program,
        inputs: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        nodes: int = 2,
        shard: str = "range",
        tile_rows: int | None = None,
        timeout: float | None = None,
        supervise: bool = False,
        recover: str = "reeval",
        plan=None,
    ):
        from ..distributed.sharded import ShardBackend, unshardable

        if recover not in ("reeval", "fail"):
            raise ValueError(f"recover must be 'reeval' or 'fail', "
                             f"got {recover!r}")
        if plan is None:
            from ..planner.plan import MaintenancePlan

            plan = MaintenancePlan(self.strategy, nodes=nodes)
        # Every refusal comes before the first process starts.
        missing = [name for name in program.input_names if name not in inputs]
        if missing:
            raise ValueError(f"missing initial values for inputs: {missing}")
        validate_finite_inputs(inputs, program.input_names)
        refusal = unshardable(program)
        if refusal is not None:
            raise UnsupportedCombinationError(
                f"cannot maintain this program on {plan.nodes} nodes: "
                f"{refusal}")
        shapes = sorted({np.shape(inputs.get(name))
                         for name in program.input_names})
        if (len(shapes) != 1 or len(shapes[0]) != 2
                or shapes[0][0] != shapes[0][1]):
            raise UnsupportedCombinationError(
                f"sharded maintenance needs square inputs of one order, "
                f"got shapes {shapes}")
        order = shapes[0][0]
        if isinstance(backend, ShardBackend):
            part = backend.engine.part
            if ((part.n, part.nodes, shard, tile_rows, timeout, supervise)
                    != (order, plan.nodes, "range", None, None, False)):
                raise ValueError(
                    f"a built ShardBackend is used as given: it must tile "
                    f"order {order} over {plan.nodes} nodes (this one: "
                    f"{part.n} over {part.nodes}) and takes no shard / "
                    f"tile_rows / timeout / supervise")
        else:
            given = get_backend(plan.backend if backend is None else backend)
            if given.name != "dense":
                raise UnsupportedCombinationError(
                    f"sharded sessions require the dense backend, "
                    f"got {given.name!r}")
            if plan.nodes < 2:
                raise ValueError(f"nodes must be >= 2 for a sharded "
                                 f"session, got {plan.nodes}")
            from ..distributed.partitioner import RowShardPartitioner
            from ..distributed.sharded import ShardedEngine
            from ..distributed.workers import DEFAULT_TIMEOUT

            # Spawn first: the workers boot (interpreter start, imports)
            # while this process fills the segments below.
            backend = ShardBackend(ShardedEngine(
                RowShardPartitioner(order, plan.nodes, strategy=shard,
                                    tile_rows=tile_rows),
                timeout=DEFAULT_TIMEOUT if timeout is None else timeout,
                supervise=supervise,
            ))
        # Where the shard state lives (``self.backend`` is its counted
        # copy under a counter), kept past ``close`` (``self.backend`` is
        # plain dense by then): traffic and recoveries stay readable.
        self._shards = backend
        self.recover = recover
        #: One record per REEVAL fallback taken after an unrecoverable
        #: worker failure (see :meth:`_reeval_recover`).
        self.fallback_events: list[dict] = []
        self._sharded = False
        try:
            # While the workers boot: the inputs land in their segments,
            # the views are evaluated into theirs, and one ``attach``
            # roundtrip is the fence.
            store, self._landing = backend.open_store(program, inputs, dims)
            super().__init__(program, store, counter=counter,
                             backend=backend, plan=plan)
            self._materialize_all()
            backend.attach(self.views)
        except BaseException:
            backend.close()
            raise
        del self._landing  # rebuilds evaluate, then store
        self._sharded = True

    @property
    def engine(self):
        """The shard engine the views are (were, once closed) stored on."""
        return self._shards.engine

    @property
    def nodes(self) -> int:
        """Worker processes maintaining the views (1 after a fallback)."""
        return self.engine.nodes

    @property
    def recoveries(self) -> list:
        """Supervised worker recoveries logged by the cluster (none on
        the in-process engine)."""
        return getattr(self.engine, "recoveries", [])

    def close(self) -> None:
        """Copy state out of the engine, stop the workers, and carry on
        as a plain dense single-process session."""
        if not self._sharded:
            return
        self._sharded = False
        arrays = self.views._arrays
        for name in arrays:
            arrays[name] = np.array(arrays[name])
        self._shards.close()
        self.views.backend = self.backend = counters.counted(
            get_backend(self.plan.backend), self.counter)

    def _materialize_all(self) -> None:
        """Evaluate in this process; while sharded, land each result in
        its stored array so the workers keep seeing maintained state."""
        super()._materialize_all()
        if self._sharded:
            arrays = self.views._arrays
            for stmt in self.program.statements:
                name = stmt.target.name
                arrays[name] = self._shards.put(name, arrays[name])

    def _apply_now(self, update: FactoredUpdate) -> None:
        if not self._sharded:
            return super()._apply_now(update)
        from ..distributed.workers import WorkerFailedError

        self._shards.clear_log()
        try:
            super()._apply_now(update)
        except WorkerFailedError as error:
            if self.recover != "reeval":
                raise
            self._reeval_recover(update, error)

    def _reeval_recover(self, update: FactoredUpdate,
                        error: Exception) -> None:
        """Recover from an unrecoverable cluster failure mid-update.

        The backend's apply log pins down exactly how far the
        shared-memory state got
        (:class:`~repro.distributed.sharded.ShardBackend`): views in
        ``finished`` absorbed their delta, one begun but not finished
        may hold torn rows, the others are untouched — and a trigger
        applies its input first (Algorithm 1).  Recovery swaps the
        backend onto a single-process
        :class:`~repro.distributed.sharded.LocalShardEngine` (same
        tiles, same kernels):

        * input not yet absorbed → nothing durable changed; the whole
          trigger reruns locally (the INCR path, bitwise-identical
          arithmetic);
        * input absorbed → every derived view is re-evaluated from the
          consistent inputs (the REEVAL path of Section 2 — more
          expensive, erases any torn rows).

        A torn *input* has no consistent basis on either path, so that
        case re-raises — restore from a checkpoint instead.  The
        session continues single-process; re-sharding is a fresh
        ``open_session(nodes=N)``.
        """
        from ..distributed.sharded import LocalShardEngine

        backend = self._shards
        began, finished = backend.began, backend.finished
        torn = began[-1] if len(began) > len(finished) else None
        if torn == update.target:
            raise RuntimeError(
                f"input {torn!r} torn mid-absorption; no consistent basis "
                f"to re-evaluate from — restore from a checkpoint"
            ) from error
        # The shm mappings survive the cluster teardown (the store still
        # references them): the local engine copies each view out.
        failed = backend.engine
        backend.rebind(LocalShardEngine(failed.part))
        arrays = self.views._arrays
        for name in arrays:
            arrays[name] = backend.put(name, arrays[name])
        failed.close()
        if update.target in finished:
            mode = "reeval"
            self._materialize_all()
        else:
            mode = "replay"
            super()._apply_now(update)
        self.fallback_events.append({
            "mode": mode, "torn": torn, "applied": sorted(finished),
            "reason": str(error), "update_count": self.update_count,
        })

    def with_plan(self, plan) -> "Session":
        """Fall back to a single-process configuration.

        Flush-before-switch for node-count changes: pending deltas
        drain into shared memory, the views are copied out, the cluster
        shuts down, then the ordinary switch builds the new session
        from the private state.
        """
        self.flush()
        self.close()
        return super().with_plan(plan)


def build_session(
    program: Program,
    inputs,
    plan,
    dims: Mapping[str, int] | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
    shard: str = "range",
    supervise: bool = False,
) -> Session:
    """Build the session ``plan`` describes — the one build path.

    The only function in ``src/`` that calls a session constructor
    (``tools/check_one_builder.py`` gates it): :func:`open_session`,
    :meth:`Session.with_plan`, checkpoint restore, the catalog and the
    CLI all land here.  ``inputs`` are initial values or a live
    :class:`~repro.runtime.views.ViewStore` to adopt; ``plan.strategy``
    / ``plan.nodes`` pick the class, ``plan.rank`` / ``plan.mode``
    bind the program's triggers, and a ``backend`` *instance*
    wins over the plan's backend name.  The returned session's ``plan``
    is what was actually built: a sharded plan the shared-memory
    budget cannot hold opens single-process with a ``RuntimeWarning``.
    A sharded plan (``nodes > 1``) takes any program whose lowered
    trigger lists the tile kernels can run, in either mode; one they
    cannot — a stored view under ``inv``, a non-dense backend, views
    that are not square matrices of one order — raises
    :class:`UnsupportedCombinationError` before any worker process
    starts (:func:`~repro.distributed.sharded.unshardable`).
    """
    if plan.strategy not in ("INCR", "REEVAL"):
        raise ValueError(
            f"sessions support INCR or REEVAL, not {plan.strategy!r} "
            "(HYBRID exists only for the iterative maintainers)"
        )
    if plan.strategy == "REEVAL":
        if plan.nodes > 1:
            raise UnsupportedCombinationError(
                "sharded (nodes > 1) maintenance is INCR-only")
        return ReevalSession(program, inputs, dims, counter, backend, plan)
    if plan.nodes > 1:
        from ..distributed.shm import SharedMemoryBudgetError

        try:
            return ShardedSession(
                program, inputs, dims, counter=counter, backend=backend,
                shard=shard, supervise=supervise, plan=plan)
        except SharedMemoryBudgetError as exc:
            # Out of /dev/shm: a sharded plan cannot hold its views.
            # Degrade to the single-process configuration instead of
            # failing the open — the planner's grid always prices it.
            warnings.warn(
                f"shared-memory budget exhausted; opening the planned "
                f"{plan.nodes}-node session single-process instead ({exc})",
                RuntimeWarning, stacklevel=3,
            )
            plan = dataclasses.replace(plan, nodes=1)
    return IVMSession(program, inputs, dims, counter=counter,
                      backend=backend, plan=plan)


def open_session(
    program: Program,
    inputs: Mapping[str, np.ndarray],
    dims: Mapping[str, int] | None = None,
    plan="auto",
    backend=None,
    mode: str | None = None,
    rank: int | None = None,
    refresh_count: int | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    drift=None,
    replan=None,
    batch="auto",
    max_staleness: int | None = None,
    partition="auto",
    heavy_budget: int | None = None,
    serve=None,
    nodes=1,
    shard: str = "range",
    supervise: bool = False,
    checkpoint=None,
    catalog=None,
):
    """Open a maintenance session, planning the configuration if asked.

    Parameters
    ----------
    plan:
        ``"auto"`` (default) asks :func:`repro.planner.plan_program`
        for the cheapest (strategy, backend, mode) given the inputs'
        measured shapes and densities; ``"incr"`` / ``"reeval"`` force
        the strategy but still plan the other axes; a
        :class:`~repro.planner.plan.MaintenancePlan` is used verbatim.
        Only what can change the decision is priced: when the arguments
        leave a grid of one — a forced strategy, a given ``backend`` or
        inputs only the dense backend would store in its own format
        (:func:`repro.backends.admissible_backends`), ``nodes`` of 1 and
        a forced ``batch`` (or one forced node count ``(N,)``) — that
        cell is the plan, written down with
        ``predicted_time`` / ``predicted_space`` = ``nan`` ("not
        priced"), and the pricing modules are not imported
        (:func:`repro.planner.plan.determined_plan`).
    backend, mode, rank:
        Explicit overrides that win over whatever the plan says
        (``None`` defers to it — to the planner's cell, or to a
        :class:`~repro.planner.plan.MaintenancePlan` given verbatim).
        A given ``backend`` is the only backend the planner prices.
        A :class:`~repro.backends.base.Backend` instance is the object
        the opened session runs on, thresholds included; the plan keeps
        only its name, so a :meth:`Session.with_plan` switch
        (``replan=``) and a checkpoint restore resolve a default
        instance by that name.  ``rank`` is the expected width of
        incoming factored updates — the planning statistic and, as
        ``plan.rank``, the width the triggers' buffers are bound at.
        It stays on ``session.plan``, so a re-planning switch and a
        checkpoint restore bind the same buffers.
    refresh_count:
        Expected number of updates this session will absorb; amortizes
        setup cost in planning and gates codegen.  ``None`` uses the
        planner default.
    drift:
        ``None`` (no monitoring), ``True`` (defaults), or a dict of
        :class:`~repro.runtime.drift.SessionDriftMonitor` options
        (``check_every``, ``tolerance``, ``action``).  With monitoring
        the return value is the monitor wrapping the session; the
        ``rebuild`` action recomputes all views from current inputs.
    replan:
        ``None`` (static plan), ``True`` (defaults), or a dict of
        :class:`~repro.runtime.drift.ReplanMonitor` options
        (``check_every``, ``switch_margin``, ``expected_refreshes``,
        plus the drift options).  Returns the re-planning monitor
        wrapping the session: the plan grid is re-priced from live
        state every ``check_every`` updates and the session switches
        strategy/backend mid-stream when it pays.  Subsumes ``drift``
        (options given there are folded in underneath).
    batch, max_staleness, partition, heavy_budget:
        The session's deferral request, kept as one frozen
        :class:`~repro.runtime.batching.DeferralSpec` and resolved
        against the plan by
        :func:`~repro.runtime.batching.resolve_deferral` — at open, on
        every :meth:`Session.with_plan` switch and on every
        ``replan=`` re-tune.  One rule throughout: **a value given here
        is never re-tuned; only ``"auto"``/``None`` values follow the
        plan.**

        ``batch``: ``"auto"`` (default) honors the plan's
        ``batch_size`` — above 1 the session queues updates and flushes
        one QR+SVD-compacted refresh per batch (reads, drift probes and
        switches flush early; see :meth:`Session.set_batching`);
        ``"off"``/``None``/``1`` disables batching; an integer forces
        that width.  ``max_staleness``: upper bound on pending update
        events under either policy (a read-lag bound); ``None`` leaves
        width / rank as the only bound.  ``partition``: ``"auto"``
        (default) honors the plan's ``partition`` axis — when the
        planner recommends ``"heavy-light"`` (it needs a skew-measuring
        :class:`~repro.planner.plan.StreamSketch` in
        ``WorkloadStats.distinct_fraction`` to do so, so in practice
        re-planning switches it on), ``apply_update`` routes through a
        :class:`~repro.runtime.heavylight.HeavyLightMaintainer` (see
        :meth:`Session.set_partition`); ``"uniform"`` forces the split
        off, ``"heavy-light"`` forces it on.  The split wins over
        uniform batching when both resolve on.  ``heavy_budget``:
        heavy-set capacity; ``None`` takes the plan's recommendation,
        then :data:`~repro.runtime.heavylight.DEFAULT_HEAVY_BUDGET`.
    serve:
        ``None`` (default) returns the single-threaded session/monitor;
        ``True`` (defaults) or a dict of
        :class:`~repro.runtime.serving.ViewServer` options
        (``max_staleness``, ``max_age``, ``views``, ``max_queue``)
        wraps it in a concurrent view server instead: one writer
        thread drains an ingress queue through ``apply_update`` (and
        runs any ``replan=``/``drift=`` monitor on that thread), while
        readers get lock-free snapshot reads of the last published
        epoch.  Note the server's ``max_staleness`` (its own key in the
        dict) is the *publication* bound, distinct from this
        function's batching ``max_staleness`` parameter.
    nodes:
        Node counts for the planner.  An int ``N > 1`` is a budget: it
        prices ``(1, N)``, and sharding wins only where its price (the
        trigger list's tile ops plus the traffic the engine logs) beats
        single-process, so a tiny view opens single-process.  A
        tuple/list prices exactly those counts: ``(4,)`` forces the
        4-node cell.  When the resolved plan has ``plan.nodes > 1`` the
        session is a :class:`ShardedSession`: the same triggers, in the
        plan's ``mode``, on a
        :class:`~repro.distributed.sharded.ShardBackend` over a spawned
        :class:`~repro.distributed.workers.ProcessCluster` — call
        ``session.close()`` (or use it as a context manager) to copy
        state out of shared memory and stop the workers.  The planner
        offers sharded cells for dense INCR over any program whose
        lowered trigger lists the tile kernels can run
        (:func:`~repro.distributed.sharded.unshardable`: square views of
        one order, stored views only as ``view * thin``, ``view' *
        thin`` and factored applies), any number of inputs; forcing
        ``nodes`` on a program they cannot run (or with ``plan="reeval"``)
        raises :class:`UnsupportedCombinationError` before a process
        starts.
    shard:
        Shard strategy for sharded sessions: ``"range"`` (contiguous
        tile runs) or ``"hash"`` (round-robin tiles).  Maintenance
        results are bitwise identical either way; the axis exists for
        the skew/locality ablation.
    supervise:
        For sharded sessions: run the cluster under worker supervision
        (:class:`~repro.distributed.workers.ProcessCluster` with
        ``supervise=True``) — a killed or hung worker is detected,
        respawned, and its shard re-materialized with the in-flight
        call retried, so ``kill -9`` becomes a logged
        :class:`~repro.distributed.workers.RecoveryEvent` instead of a
        poisoned cluster.  When even supervision cannot save the
        cluster, the session falls back to single-process maintenance
        (:meth:`ShardedSession._reeval_recover`).  If the
        machine's shared-memory budget cannot hold the views at all
        (:class:`~repro.distributed.shm.SharedMemoryBudgetError`), the
        session opens single-process with a ``RuntimeWarning``
        regardless of this flag.
    checkpoint:
        ``None`` (off); a directory path enabling durable
        checkpointing there with default policy; or a dict of
        :class:`~repro.runtime.checkpoint.Checkpointer` options plus
        ``"directory"`` and optionally ``"restore"``: ``restore=True``
        requires a valid snapshot (raises
        :class:`~repro.runtime.checkpoint.CheckpointError` otherwise),
        ``restore="auto"`` resumes from one when present and falls
        through to a fresh planned session when not.  A restored
        session resumes on the checkpointed plan (single-process; pass
        ``nodes=`` on a fresh open to re-shard) and keeps
        checkpointing to the same directory.  With ``serve=`` the
        server's writer thread additionally cuts due snapshots at
        epoch-publish boundaries, so readers never block on a write.
        An existing :class:`~repro.runtime.checkpoint.Checkpointer`
        is re-attached as-is.
    catalog:
        A :class:`~repro.catalog.ViewCatalog` to register this program
        with instead of opening a private session: shared
        subexpressions are maintained once across every tenant on the
        catalog, and the catalog's own maintenance configuration
        (strategy/mode/backend, fixed at its construction) wins over
        this call's planning arguments.  Returns the tenant's
        :class:`~repro.catalog.CatalogSession` — or, with ``serve=``,
        a :class:`~repro.runtime.serving.ViewServer` over it whose
        snapshot captures are atomic against other tenants' writers.
        Session-shaping arguments the catalog cannot honor (``nodes``,
        ``shard``, ``supervise``, ``drift``, ``replan``, ``batch``,
        ``max_staleness``, ``partition``, ``heavy_budget``,
        ``checkpoint``) must be left at their defaults; anything else
        raises :class:`UnsupportedCombinationError`.

    Returns the session (or its monitor, or its view server); ``.plan``
    on any of them is the :class:`~repro.planner.plan.MaintenancePlan`
    the running session was built from (:func:`build_session`).
    """
    if catalog is not None:
        given = {
            "nodes": nodes != 1, "shard": shard != "range",
            "supervise": supervise, "drift": drift, "replan": replan,
            "batch": batch != "auto", "max_staleness": max_staleness,
            "partition": partition != "auto", "heavy_budget": heavy_budget,
            "checkpoint": checkpoint,
        }
        refused = [name for name, is_set in given.items() if is_set]
        if refused:
            raise UnsupportedCombinationError(
                f"open_session(catalog=...) cannot honor "
                f"{', '.join(refused)}: the catalog maintains every tenant "
                f"under its own configuration"
            )
        tenant = catalog.open(program, inputs, dims=dims)
        if serve:
            serve_options = {} if serve is True else dict(serve)
            return tenant.serve(**serve_options)
        return tenant
    # Optional subsystems are imported on the branch that decides to use
    # them, so a session's import closure follows its configuration; all
    # of it is loaded by the time this function returns.
    from ..planner.plan import MaintenancePlan, WorkloadStats, determined_plan

    spec = DeferralSpec(batch=batch, partition=partition,
                        max_staleness=max_staleness, heavy_budget=heavy_budget)
    ckpt_target, ckpt_options, ckpt_restore = checkpoint, {}, False
    if checkpoint is not None:
        from .checkpoint import CheckpointError, Checkpointer, restore_session

        if isinstance(checkpoint, Mapping):
            ckpt_options = dict(checkpoint)
            ckpt_target = ckpt_options.pop("directory", None)
            ckpt_restore = ckpt_options.pop("restore", False)
            if ckpt_target is None:
                raise ValueError("checkpoint dict needs a 'directory' entry")
            if ckpt_restore not in (False, True, "auto"):
                raise ValueError(
                    f"checkpoint restore must be True, False or 'auto', "
                    f"got {ckpt_restore!r}"
                )
        elif not isinstance(checkpoint, (Checkpointer, str, Path)):
            raise ValueError(
                f"checkpoint must be a directory, an options dict or a "
                f"Checkpointer, got {checkpoint!r}"
            )

    session: Session | None = None
    if ckpt_restore and not isinstance(ckpt_target, Checkpointer):
        # Resume on the checkpointed configuration: the snapshot's plan
        # wins over this call's plan/batch/partition arguments (they
        # describe a fresh open, not the state being resumed).
        try:
            session = restore_session(program, ckpt_target, counter=counter)
        except CheckpointError:
            if ckpt_restore is True:
                raise
            # restore="auto": no valid snapshot yet — plan fresh below.

    if session is None:
        if not isinstance(plan, MaintenancePlan):
            if plan in ("auto", None):
                strategies = ("REEVAL", "INCR")
            elif isinstance(plan, str) and plan.upper() in ("INCR", "REEVAL"):
                strategies = (plan.upper(),)
            else:
                raise ValueError(
                    f"plan must be 'auto', 'incr', 'reeval' or a "
                    f"MaintenancePlan, got {plan!r}"
                )
            stats_kwargs = {"update_rank": rank or 1}
            if refresh_count is not None:
                stats_kwargs["refresh_count"] = refresh_count
            if isinstance(nodes, (tuple, list)):
                node_grid = tuple(int(count) for count in nodes) or (1,)
            else:
                node_grid = (1, int(nodes)) if int(nodes) > 1 else (1,)
            stats = WorkloadStats(n=1, **stats_kwargs)
            # A grid of one is written down, not priced (nor is the
            # pricing stack loaded); anything wider is ranked.  A given
            # backend is the only one priced (resolved here, so one that
            # cannot load raises its own error).
            plan = determined_plan(
                [inputs.get(name) for name in program.input_names], stats,
                strategies, node_grid, batch_forced=spec.batch != "auto",
                backend=backend)
            if plan is None:
                from ..planner import plan_program

                plan = plan_program(
                    program, inputs, stats=stats, dims=dims,
                    backends=None if backend is None else (get_backend(backend),),
                    strategies=strategies, nodes=node_grid)
        # The caller's backend is the object the session runs on (an
        # instance keeps its thresholds); the plan records its name.
        session = build_session(
            program, inputs, plan.with_overrides(mode=mode, rank=rank),
            dims, counter, backend, shard, supervise)
        session.install_deferral(session.plan, spec)

    if ckpt_target is not None:
        session.attach_checkpointer(ckpt_target, **ckpt_options)

    result = session
    if replan:
        from .drift import ReplanMonitor

        options = {} if replan is True else dict(replan)
        if drift:
            # Fold a drift= request underneath: its cadence becomes the
            # numerical probe schedule, its policy options pass through.
            drift_options = {} if drift is True else dict(drift)
            options.setdefault(
                "probe_every", drift_options.pop("check_every", 100))
            for key, value in drift_options.items():
                options.setdefault(key, value)
        options.setdefault("expected_refreshes", refresh_count)
        result = ReplanMonitor(session, **options)
    elif drift:
        from .drift import SessionDriftMonitor

        options = {} if drift is True else dict(drift)
        result = SessionDriftMonitor(session, **options)
    if serve:
        # The server's writer thread becomes the session's (and any
        # monitor's) sole owner: replans and drift probes run there.
        from .serving import ViewServer

        serve_options = {} if serve is True else dict(serve)
        return ViewServer(result, **serve_options)
    return result
