"""Concurrent view serving: one writer, many snapshot readers (CQRS).

A :class:`~repro.runtime.session.Session` is single-threaded — the same
caller applies updates and reads views, and every read flushes batched
pending work.  That is the right contract for a maintenance *engine*,
but it makes "serving heavy read traffic while the stream keeps
flowing" impossible: readers would serialize behind the writer and
every read would pay a flush.

:class:`ViewServer` splits the two roles (the CQRS pattern, run at
production scale by Snowflake Dynamic Tables' delayed-view model):

* **one writer thread** owns the session outright.  It drains an
  ingress :class:`queue.Queue` of :class:`~repro.runtime.updates
  .FactoredUpdate`\\ s (queue-based load leveling: bursts queue up
  instead of stalling producers) through the session's normal
  ``apply_update`` path — so PR 5 batching, drift probes and
  :class:`~repro.runtime.drift.ReplanMonitor` re-planning all run
  unchanged, **on the writer thread** (the flush-before-switch
  convention is preserved because the writer is the only thread that
  ever touches session state);
* **epoch snapshots** are the read side: when the staleness policy
  fires, the writer flushes the session and publishes an immutable
  copy of the served views under a new epoch number.  Publication is
  one reference assignment (atomic under the GIL), so
* **readers are lock-free**: :meth:`ViewServer.read` returns the last
  published epoch's value without taking any lock and **never forces a
  flush** — a read can lag the stream by at most the staleness bound,
  and never blocks (or is blocked by) the writer.

The staleness policy is explicit: ``max_staleness`` bounds how many
absorbed-but-unpublished updates a snapshot may lag (``None`` = only
publish when the queue idles), ``max_age`` adds a wall-clock bound on
the oldest unpublished update.  Whenever the ingress queue runs dry the
writer publishes immediately, so an idle server is always fresh.

:func:`~repro.runtime.loadgen.run_load` is the shared load generator
(writer pressure + paced reader threads, p50/p99 read latency, achieved
staleness, writer throughput) used by
``benchmarks/bench_serve_latency.py`` — which measures it against the
flush-on-read strawman this layer replaces — and the ``repro serve``
CLI; it lives in its own module, which only they load.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .updates import FactoredUpdate

#: Default bound on absorbed-but-unpublished updates per snapshot.
DEFAULT_MAX_STALENESS = 64

#: Ingress overload policies a bounded server accepts.
OVERLOAD_POLICIES = ("block", "reject", "shed-oldest")

_STOP = object()


class ServerClosedError(RuntimeError):
    """Raised when submitting to (or reading from) a closed server."""


class WriterFailedError(RuntimeError):
    """The writer thread died; the original exception is ``__cause__``."""


class IngressOverflowError(RuntimeError):
    """A bounded ``overload="reject"`` ingress queue refused an update."""


class IngressTimeoutError(RuntimeError):
    """A blocking ingress enqueue exceeded its ``timeout``."""


class Snapshot(NamedTuple):
    """One published epoch: an immutable view of the maintained state.

    ``seq`` counts the update/task events folded in since the server
    started; ``pending`` is how many of those landed since the previous
    epoch (the staleness this publication cleared).  Arrays are
    read-only copies — they never change after publication, so readers
    may hold them indefinitely.
    """

    epoch: int
    seq: int
    views: Mapping[str, np.ndarray]
    pending: int
    published_at: float


@dataclass
class ServerStats:
    """Counters describing one server's lifetime (writer-side unless noted)."""

    #: Updates/tasks accepted into the ingress queue (submitter-side).
    submitted: int = 0
    #: Update/task events the writer has applied to the session.
    applied: int = 0
    #: Epochs published.
    epochs: int = 0
    #: Largest pending count any publication cleared (achieved staleness).
    max_pending_at_publish: int = 0
    #: Per-publication pending counts (the staleness trace).
    pending_log: list[int] = field(default_factory=list)
    #: Total seconds spent flushing + copying snapshots.
    publish_seconds: float = 0.0
    #: Updates dropped by the ``shed-oldest`` overload policy.
    shed: int = 0
    #: Updates refused by the ``reject`` overload policy.
    rejected: int = 0
    #: Queued updates thrown away by ``close(discard=True)`` / deadline.
    discarded: int = 0
    #: Snapshots cut at epoch-publish boundaries (writer thread).
    checkpoints: int = 0

    def as_dict(self) -> dict:
        """Scalar counters as a JSON-ready dict (the bench schema)."""
        return {
            "submitted": self.submitted,
            "applied": self.applied,
            "epochs": self.epochs,
            "max_pending_at_publish": self.max_pending_at_publish,
            "publish_seconds": self.publish_seconds,
            "shed": self.shed,
            "rejected": self.rejected,
            "discarded": self.discarded,
            "checkpoints": self.checkpoints,
        }


# -- engines --------------------------------------------------------------
#
# A ViewServer drives an *engine*: the small surface it needs from
# whatever maintains the state.  Sessions (and their drift/replan
# monitors) get one adapter, the analytics drivers another, so the
# writer loop itself stays agnostic.

class SessionEngine:
    """Adapts a :class:`Session` (or drift/replan monitor) for serving.

    ``target`` may be a bare session or a
    :class:`~repro.runtime.drift.SessionDriftMonitor` /
    :class:`~repro.runtime.drift.ReplanMonitor`; attribute access on
    monitors falls through to the *current* session, so a mid-stream
    :meth:`~repro.runtime.session.Session.with_plan` switch is
    transparent here — the writer keeps calling ``apply_update`` and
    the monitor re-plans underneath it, on the writer thread.
    """

    def __init__(self, target):
        self.target = target
        self.program = target.program

    def default_names(self) -> tuple[str, ...]:
        """Views published when the caller named none: the outputs."""
        return tuple(self.program.outputs)

    def available(self) -> frozenset[str]:
        """Every view name a reader may :meth:`ViewServer.watch`."""
        return frozenset(self.target.views.names())

    def apply(self, update: FactoredUpdate) -> None:
        """Apply one factored update (writer thread only)."""
        self.target.apply_update(update)

    def flush(self) -> None:
        """Land deferred (batched / heavy-light) updates before capture."""
        self.target.flush()

    def capture(self, names: Iterable[str]) -> dict[str, np.ndarray]:
        """Fresh dense copies of ``names`` (caller flushed already).

        ``get_dense`` may return live storage (triggers mutate views in
        place without replacing them), so every published array
        is copied here — copy-on-publish is what makes snapshots
        immutable.
        """
        views = self.target.views
        return {
            name: np.array(views.get_dense(name), dtype=np.float64)
            for name in names
        }

    def checkpointer(self):
        """The served session's attached checkpointer (or ``None``)."""
        return getattr(self.target, "checkpointer", None)

    @property
    def plan(self):
        """The *current* session's plan (monitors delegate to it)."""
        return self.target.plan


class MaintainerEngine:
    """Adapts an analytics driver (pagerank, markov, ...) for serving.

    ``views`` maps served names to zero-argument accessors returning
    the current value (reads on drivers flush their own
    :class:`~repro.runtime.batching.DeferredRefresher` queues, so accessors
    are always current).  ``refresh`` optionally accepts raw factored
    updates — drivers whose mutations are richer than ``u v'`` (edge
    edits, column replacements) route them through
    :meth:`ViewServer.call` instead.
    """

    def __init__(
        self,
        owner,
        views: Mapping[str, Callable[[], np.ndarray]],
        refresh: Callable[[np.ndarray, np.ndarray], None] | None = None,
    ):
        if not views:
            raise ValueError("a MaintainerEngine needs at least one view accessor")
        self.owner = owner
        self._views = dict(views)
        self._refresh = refresh

    def default_names(self) -> tuple[str, ...]:
        """Views published when the caller named none: all accessors."""
        return tuple(self._views)

    def available(self) -> frozenset[str]:
        """Every view name a reader may :meth:`ViewServer.watch`."""
        return frozenset(self._views)

    def apply(self, update: FactoredUpdate) -> None:
        """Route a raw factored update through the driver's refresh."""
        if self._refresh is None:
            raise TypeError(
                f"{type(self.owner).__name__} accepts mutations via "
                "server.call(...), not raw factored updates"
            )
        self._refresh(update.u_block, update.v_block)

    def flush(self) -> None:
        """Land the driver's deferred updates, when it defers any."""
        flush = getattr(self.owner, "flush", None)
        if callable(flush):
            flush()

    def capture(self, names: Iterable[str]) -> dict[str, np.ndarray]:
        """Fresh dense copies from the accessors (copy-on-publish)."""
        return {
            name: np.array(self._views[name](), dtype=np.float64)
            for name in names
        }

    def checkpointer(self):
        """Analytics drivers have no session checkpointer."""
        return None

    @property
    def plan(self):
        """The driver's plan, when it was built from one."""
        return getattr(self.owner, "plan", None)


def _as_engine(target, views=None):
    if isinstance(target, (SessionEngine, MaintainerEngine)):
        return target
    if hasattr(target, "apply_update") and hasattr(target, "views"):
        return SessionEngine(target)
    raise TypeError(
        f"cannot serve {type(target).__name__}: expected a session, a "
        "session monitor, or a serving engine"
    )


class _IngressQueue:
    """Bounded ingress with an explicit overload policy.

    Only :class:`FactoredUpdate` items count against ``maxsize`` —
    control items (flush barriers, tasks, the stop sentinel) always
    enqueue, because shutdown and read barriers must never be refused
    by a full queue.  Overload policies for updates:

    * ``"block"`` — wait for space (bounded by the per-enqueue
      ``timeout``, raising :class:`IngressTimeoutError` on expiry) —
      classic backpressure;
    * ``"reject"`` — raise :class:`IngressOverflowError` immediately,
      pushing the retry decision to the producer;
    * ``"shed-oldest"`` — drop the oldest *queued* update to admit the
      new one (freshness over completeness; sheds are counted).

    :meth:`close_for_updates` wakes every blocked producer with
    :class:`ServerClosedError` so a closing (or failed) server never
    strands a producer in an un-wakeable wait.
    """

    def __init__(self, maxsize: int, policy: str):
        if policy not in OVERLOAD_POLICIES:
            raise ValueError(
                f"overload must be one of {OVERLOAD_POLICIES}, got {policy!r}")
        if maxsize < 0:
            raise ValueError(f"max_queue must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self.policy = policy
        self.shed = 0
        self._items: deque = deque()
        self._updates = 0
        self._closed = False
        self._cond = threading.Condition()

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def _has_space(self) -> bool:
        return self.maxsize <= 0 or self._updates < self.maxsize

    def put_control(self, item) -> None:
        """Enqueue a control item unconditionally (never refused)."""
        with self._cond:
            self._items.append(item)
            self._cond.notify_all()

    def put_update(self, update: FactoredUpdate,
                   timeout: float | None = None) -> None:
        """Enqueue one update under the overload policy."""
        with self._cond:
            if self._closed:
                raise ServerClosedError("this ViewServer is closed")
            if not self._has_space():
                if self.policy == "reject":
                    raise IngressOverflowError(
                        f"ingress queue full ({self.maxsize} updates)")
                if self.policy == "shed-oldest":
                    self._shed_oldest()
                else:
                    deadline = (None if timeout is None
                                else time.monotonic() + timeout)
                    # Re-test closed even once space appears: close()
                    # discards the queue (making space) right after
                    # refusing updates, and an update admitted then
                    # would land behind _STOP and vanish unapplied.
                    while not self._has_space() or self._closed:
                        if self._closed:
                            raise ServerClosedError(
                                "this ViewServer is closed")
                        remaining = None
                        if deadline is not None:
                            remaining = deadline - time.monotonic()
                            if remaining <= 0:
                                raise IngressTimeoutError(
                                    f"no ingress space within {timeout}s "
                                    f"(queue bound {self.maxsize})")
                        self._cond.wait(remaining)
            self._items.append(update)
            self._updates += 1
            self._cond.notify_all()

    def _shed_oldest(self) -> None:
        for index, item in enumerate(self._items):
            if isinstance(item, FactoredUpdate):
                del self._items[index]
                self._updates -= 1
                self.shed += 1
                return
        # No queued update to shed (all control items): admit anyway —
        # control items don't consume update capacity.

    def get(self):
        """Blocking dequeue (writer thread)."""
        with self._cond:
            while not self._items:
                self._cond.wait()
            return self._pop_locked()

    def get_nowait(self):
        """Non-blocking dequeue; raises :class:`queue.Empty` when idle."""
        with self._cond:
            if not self._items:
                raise queue.Empty
            return self._pop_locked()

    def _pop_locked(self):
        item = self._items.popleft()
        if isinstance(item, FactoredUpdate):
            self._updates -= 1
            self._cond.notify_all()  # space freed: wake blocked producers
        return item

    def discard_updates(self) -> int:
        """Drop every queued update (control items survive); return count."""
        with self._cond:
            kept = deque(item for item in self._items
                         if not isinstance(item, FactoredUpdate))
            dropped = len(self._items) - len(kept)
            self._items = kept
            self._updates = 0
            self._cond.notify_all()
            return dropped

    def close_for_updates(self) -> None:
        """Refuse future updates; wake blocked producers to raise."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


class _Flush:
    """Control item: flush + publish, then release the waiter."""

    __slots__ = ("event",)

    def __init__(self):
        self.event = threading.Event()


class _Task:
    """Control item: run ``fn`` on the writer thread (a CQRS command)."""

    __slots__ = ("fn", "event", "error")

    def __init__(self, fn, waitable: bool):
        self.fn = fn
        self.event = threading.Event() if waitable else None
        self.error: BaseException | None = None


class ViewServer:
    """Serve a session's views to many threads at bounded staleness.

    Parameters
    ----------
    target:
        What to serve: a session, a drift/replan monitor wrapping one,
        or a prepared engine (:class:`SessionEngine` /
        :class:`MaintainerEngine`).  The server's writer thread becomes
        the *only* thread allowed to touch it.
    views:
        Names to publish per epoch (default: the program's outputs for
        sessions, every accessor for maintainer engines).  Reading an
        unpublished-but-known name registers it and triggers one
        synchronous publish — copy-on-publish grows to what readers
        actually ask for, nothing more.
    max_staleness:
        Publish whenever this many updates/tasks have been absorbed
        since the last epoch (``None``: no count bound — publish only
        on idle, age, or explicit flush).  Bounds how far any read can
        lag the applied stream.
    max_age:
        Publish whenever the oldest unpublished event is this many
        seconds old (``None``: no wall-clock bound).
    max_queue:
        Ingress queue capacity; ``0`` (default) is unbounded, a
        positive bound applies the ``overload`` policy — queue-based
        load leveling with explicit backpressure.
    overload:
        What a full (bounded) ingress queue does with a new update:
        ``"block"`` (default) waits for space — per-call ``timeout``
        on :meth:`submit` bounds the wait with
        :class:`IngressTimeoutError`; ``"reject"`` raises
        :class:`IngressOverflowError` immediately; ``"shed-oldest"``
        drops the oldest queued update to admit the new one (sheds are
        counted in ``stats.shed``).  Control items — flush barriers,
        :meth:`call` tasks, shutdown — are never refused.

    If the served session has an attached
    :class:`~repro.runtime.checkpoint.Checkpointer`, the writer thread
    additionally cuts any *due* snapshot right after each epoch
    publication — durability rides the epoch cadence, on the writer
    thread, so readers never block on a checkpoint write.

    Use as a context manager, or call :meth:`close` — shutdown drains
    the queue (or discards it: ``close(discard=True)``), publishes the
    final epoch, and joins the writer.
    """

    def __init__(
        self,
        target,
        views: Sequence[str] | None = None,
        max_staleness: int | None = DEFAULT_MAX_STALENESS,
        max_age: float | None = None,
        max_queue: int = 0,
        overload: str = "block",
    ):
        if max_staleness is not None and max_staleness < 1:
            raise ValueError("max_staleness must be positive (or None)")
        if max_age is not None and max_age <= 0:
            raise ValueError("max_age must be positive (or None)")
        self._engine = _as_engine(target, views)
        self.max_staleness = max_staleness
        self.max_age = max_age
        self._queue = _IngressQueue(max_queue, overload)
        self.stats = ServerStats()
        self._submit_lock = threading.Lock()
        self._closed = False
        self._error: BaseException | None = None

        available = self._engine.available()
        names = tuple(views) if views is not None else self._engine.default_names()
        unknown = set(names) - set(available)
        if unknown:
            raise KeyError(f"cannot serve unknown views: {sorted(unknown)}")
        self._names: tuple[str, ...] = names
        self._names_lock = threading.Lock()

        # Writer-thread state (no locks: one owner).
        self._seq = 0
        self._pending = 0
        self._oldest_pending: float | None = None

        # Epoch 0 is published before the writer starts, so reads never
        # race an empty slot.
        self._snapshot = self._make_snapshot(epoch=0)
        self._pub_cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._run, name="repro-view-writer", daemon=True
        )
        self._thread.start()

    # -- the read side (any thread, lock-free) ---------------------------
    @property
    def snapshot(self) -> Snapshot:
        """The last published epoch (one atomic reference read)."""
        return self._snapshot

    @property
    def epoch(self) -> int:
        """Publication count of the snapshot reads currently serve."""
        return self._snapshot.epoch

    @property
    def plan(self):
        """The :class:`~repro.planner.plan.MaintenancePlan` of what is
        served — read through the engine, never a copy, so it follows a
        ``replan=`` switch (racy by one switch off the writer thread)."""
        return self._engine.plan

    def read(self, name: str) -> np.ndarray:
        """``name``'s value at the last published epoch.

        Never flushes, never blocks on the writer: the common case is a
        dict lookup on the current snapshot.  The first read of a view
        that exists but is not yet in the publish set registers it and
        waits for one publication (copy-on-publish of the views a
        reader asked for).
        """
        snap = self._snapshot
        value = snap.views.get(name)
        if value is not None:
            return value
        self._raise_if_failed()
        return self.watch(name)[name]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.read(name)

    def watch(self, *names: str) -> Mapping[str, np.ndarray]:
        """Add ``names`` to the publish set; returns a snapshot with them."""
        unknown = set(names) - set(self._engine.available())
        if unknown:
            raise KeyError(f"no view named {sorted(unknown)}")
        with self._names_lock:
            missing = [n for n in names if n not in self._names]
            if missing:
                self._check_open()
                self._names = self._names + tuple(missing)
        snap = self._snapshot
        if all(n in snap.views for n in names):
            return snap.views
        return self.refresh().views

    # -- the write side (any producer thread) ----------------------------
    def submit(self, update: FactoredUpdate,
               timeout: float | None = None) -> None:
        """Enqueue one factored update for the writer.

        Non-blocking on an unbounded queue; on a bounded one the
        ``overload`` policy decides (block / reject / shed-oldest).
        ``timeout`` bounds a blocking wait — expiry raises
        :class:`IngressTimeoutError` and the update is *not* enqueued,
        so the producer can apply its own shed/retry policy.  A NaN/Inf
        factor raises :class:`~repro.runtime.updates.InvalidUpdateError`
        here, on the caller's thread, and is not enqueued.
        """
        self._check_open()
        update.validate_finite()
        try:
            self._queue.put_update(update, timeout=timeout)
        except ServerClosedError:
            # The writer closed (or died) while we waited for space:
            # surface the richer failure when there is one.
            self._raise_if_failed()
            raise
        except IngressOverflowError:
            with self._submit_lock:
                self.stats.rejected += 1
            raise
        finally:
            self.stats.shed = self._queue.shed
        with self._submit_lock:
            self.stats.submitted += 1

    def submit_many(self, updates: Iterable[FactoredUpdate]) -> None:
        """Enqueue a whole stream in order (convenience over submit)."""
        for update in updates:
            self.submit(update)

    def call(self, fn: Callable, *args, wait: bool = False, **kwargs):
        """Run ``fn(*args, **kwargs)`` on the writer thread, in stream order.

        The command side of CQRS for mutations richer than a factored
        update: analytics edits (``server.call(pr.add_edge, 2, 3)``),
        re-configuration, manual plan switches.  ``wait=True`` blocks
        until the call ran and re-raises its exception here; the
        default is fire-and-forget (a failure poisons the server like
        any writer error).
        """
        self._check_open()
        task = _Task((lambda: fn(*args, **kwargs)), waitable=wait)
        with self._submit_lock:
            self.stats.submitted += 1
        self._queue.put_control(task)
        if wait:
            self._wait(task.event)
            if task.error is not None and task.error is not self._error:
                raise task.error  # the task's own failure, writer survived
            self._raise_if_failed()
        return None

    def refresh(self, timeout: float | None = None) -> Snapshot:
        """Barrier: apply everything queued so far, publish, return it.

        The one read-side verb that *does* synchronize with the writer
        — for tests and callers that need read-your-writes semantics.
        Ordinary reads never need it.
        """
        self._raise_if_failed()
        if self._closed:
            return self._snapshot
        flush = _Flush()
        self._queue.put_control(flush)
        self._wait(flush.event, timeout)
        # The event is also set by the failure drain: re-check before
        # handing back a snapshot that predates the writer's death.
        self._raise_if_failed()
        return self._snapshot

    def close(self, deadline: float | None = None,
              discard: bool = False) -> None:
        """Stop the writer: drain the queue (default) or discard it.

        Idempotent — a second close is a no-op join.  New submissions
        are refused immediately (producers blocked on a full queue wake
        with :class:`ServerClosedError`); queued updates are applied
        and folded into one final epoch before the writer stops, unless
        ``discard=True`` throws them away (counted in
        ``stats.discarded``).  ``deadline`` bounds the drain in
        seconds: on expiry whatever is still queued is discarded so
        close always returns (default: a 60 s deadlock guard).
        Re-raises the writer's exception if it failed.
        """
        if not self._closed:
            self._closed = True
            self._queue.close_for_updates()
            if discard:
                dropped = self._queue.discard_updates()
                with self._submit_lock:
                    self.stats.discarded += dropped
            self._queue.put_control(_STOP)
        self._thread.join(timeout=60.0 if deadline is None else deadline)
        if self._thread.is_alive():
            if deadline is not None:
                # Deadline expired mid-drain: give up on the remaining
                # queue and let the writer hit _STOP promptly.
                dropped = self._queue.discard_updates()
                with self._submit_lock:
                    self.stats.discarded += dropped
                self._thread.join(timeout=60.0)
            if self._thread.is_alive():  # pragma: no cover - deadlock guard
                raise WriterFailedError("writer thread failed to stop")
        self._raise_if_failed()

    def __enter__(self) -> "ViewServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # Surface shutdown errors only when the body didn't raise first.
        if exc_type is None:
            self.close()
        else:
            try:
                self.close()
            except Exception:
                pass

    # -- internals -------------------------------------------------------
    def _check_open(self) -> None:
        self._raise_if_failed()
        if self._closed:
            raise ServerClosedError("this ViewServer is closed")

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            raise WriterFailedError("the writer thread died") from self._error

    def _wait(self, event: threading.Event, timeout: float | None = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while not event.wait(0.05):
            self._raise_if_failed()
            if not self._thread.is_alive():
                raise WriterFailedError("writer thread exited before the barrier")
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("timed out waiting for the writer")

    def _make_snapshot(self, epoch: int) -> Snapshot:
        start = time.perf_counter()
        self._engine.flush()
        with self._names_lock:
            names = self._names
        views = self._engine.capture(names)
        for arr in views.values():
            arr.setflags(write=False)
        pending = self._pending
        snap = Snapshot(
            epoch=epoch, seq=self._seq, views=views, pending=pending,
            published_at=time.monotonic(),
        )
        self._pending = 0
        self._oldest_pending = None
        self.stats.epochs = epoch + 1
        self.stats.publish_seconds += time.perf_counter() - start
        if epoch > 0:
            self.stats.pending_log.append(pending)
            if pending > self.stats.max_pending_at_publish:
                self.stats.max_pending_at_publish = pending
        return snap
    # The first (constructor) snapshot is epoch 0 with nothing pending;
    # it is excluded from the staleness trace.

    def _publish(self) -> None:
        snap = self._make_snapshot(self._snapshot.epoch + 1)
        self._snapshot = snap  # the atomic epoch-pointer swap
        with self._pub_cond:
            self._pub_cond.notify_all()
        # Epoch boundary = durability boundary: cut any due checkpoint
        # *after* the swap, on the writer thread — readers already have
        # the new snapshot and never wait on the disk write.
        checkpointer = self._engine.checkpointer()
        if checkpointer is not None:
            if checkpointer.maybe_checkpoint() is not None:
                self.stats.checkpoints += 1

    def _handle(self, item) -> None:
        if isinstance(item, FactoredUpdate):
            self._engine.apply(item)
            self._note_event()
        elif isinstance(item, _Task):
            try:
                item.fn()
            except BaseException as exc:
                if item.event is None:
                    raise
                item.error = exc
            finally:
                self._note_event()
                if item.event is not None:
                    # Publish before releasing the waiter so wait=True
                    # callers read their own write.
                    self._publish()
                    item.event.set()
        elif isinstance(item, _Flush):
            self._publish()
            item.event.set()
        else:  # pragma: no cover - queue protocol violation
            raise TypeError(f"unexpected queue item {item!r}")

    def _note_event(self) -> None:
        self._seq += 1
        self._pending += 1
        self.stats.applied += 1
        if self._oldest_pending is None:
            self._oldest_pending = time.monotonic()

    def _should_publish(self) -> bool:
        if self._pending <= 0:
            return False
        if self.max_staleness is not None and self._pending >= self.max_staleness:
            return True
        if self.max_age is not None and self._oldest_pending is not None:
            return time.monotonic() - self._oldest_pending >= self.max_age
        return False

    def _run(self) -> None:
        try:
            stop = False
            while not stop:
                item = self._queue.get()
                while True:
                    if item is _STOP:
                        stop = True
                        break
                    self._handle(item)
                    if self._should_publish():
                        self._publish()
                    try:
                        item = self._queue.get_nowait()
                    except queue.Empty:
                        break
                # Queue idle (or shutting down): publish promptly so an
                # unloaded server serves fresh state.
                if self._pending:
                    self._publish()
        except BaseException as exc:  # noqa: BLE001 - reported to callers
            self._error = exc
            self._drain_failed()

    def _drain_failed(self) -> None:
        """Release every waiter after a writer failure (no hangs)."""
        # Producers blocked on a full ingress queue must wake too.
        self._queue.close_for_updates()
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(item, _Flush):
                item.event.set()
            elif isinstance(item, _Task) and item.event is not None:
                item.error = self._error
                item.event.set()


__all__ = [
    "DEFAULT_MAX_STALENESS",
    "IngressOverflowError",
    "IngressTimeoutError",
    "MaintainerEngine",
    "OVERLOAD_POLICIES",
    "ServerClosedError",
    "ServerStats",
    "SessionEngine",
    "Snapshot",
    "ViewServer",
    "WriterFailedError",
]
