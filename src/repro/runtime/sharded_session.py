"""Sharded sessions: INCR maintenance on a multiprocess shard engine.

Only :func:`~repro.runtime.session.build_session` with ``plan.nodes >
1`` imports this module, so a single-process open never compiles the
worker lifecycle below (docs/invariants.md, "Import closures").
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..backends import get_backend
from ..compiler.program import Program
from ..cost import counters
from .session import IVMSession, Session, UnsupportedCombinationError
from .updates import FactoredUpdate, validate_finite_inputs


class ShardedSession(IVMSession):
    """INCR maintenance on a multiprocess shared-memory shard engine.

    An :class:`IVMSession` on a
    :class:`~repro.distributed.sharded.ShardBackend`: the triggers, their
    lowered lists and both execution modes are the single-process ones,
    and only the kernels that touch a stored view differ — views live in
    nameless ``/dev/shm`` segments (:mod:`repro.distributed.shm`) shared
    by this process, node 0, with ``nodes - 1`` persistent workers
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
            from ..distributed.workers import (DEFAULT_TIMEOUT,
                                               cluster_unsupported)

            reason = cluster_unsupported()
            if reason is not None:
                raise UnsupportedCombinationError(
                    f"cannot start shard workers here: {reason}")

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

    def with_plan(self, plan) -> Session:
        """Fall back to a single-process configuration.

        Flush-before-switch for node-count changes: pending deltas
        drain into shared memory, the views are copied out, the cluster
        shuts down, then the ordinary switch builds the new session
        from the private state.
        """
        self.flush()
        self.close()
        return super().with_plan(plan)


__all__ = ["ShardedSession"]
