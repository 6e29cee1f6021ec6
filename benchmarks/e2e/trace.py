"""In-memory span recorder, the wrappers that feed it, and the ledger.

Layers are measured from outside: the benchmark swaps the public entry
points of each layer (class attributes and a few module-level
functions) for timing wrappers while a traced run lasts and puts the
originals back afterwards.  Nothing under ``src/`` changes.

Backends are traced the same way and not through a ``Backend``
subclass passed as ``backend=``: ``open_session`` resolves a backend
instance to its registry *name* before it builds the session, so a
subclass instance would never reach the triggers.  Fused triggers bind
the backend's kernels when they are compiled, which is why wrappers
must be installed before the traced session is opened.

A span is ``(name, start, end, parent, update id)``; each thread
records into its own buffer, so recording takes no lock, and buffers
are merged — and optionally written out — only when the run has ended.
A span's *self time* is its duration minus the durations of its direct
children.

Recording a span costs about a microsecond, most of it outside the
span's own start and end stamps — that is, inside its *parent's* self
time.  :func:`span_overhead_ns` measures both parts on the spot and
:meth:`Recorder.spans` takes them back out, so a parent with twenty
tiny children is not charged twenty wrapper calls.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass, field

import numpy as np

_now = time.perf_counter_ns


class _Buffer:
    """One thread's spans, as parallel lists (index = span id)."""

    __slots__ = ("name", "start", "end", "parent", "update", "stack",
                 "update_id", "kernel_depth")

    def __init__(self):
        self.name: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.parent: list[int] = []
        self.update: list[int] = []
        self.stack: list[int] = []
        self.update_id = -1
        self.kernel_depth = 0

    def open(self, name_id: int) -> int:
        index = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.update.append(self.update_id)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        self.stack.pop()


@dataclass
class Spans:
    """Merged spans of a finished run (parents index into these arrays)."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    update: np.ndarray
    thread: np.ndarray
    #: Recording overhead taken out, see :func:`span_overhead_ns`.
    overhead: dict | None = None

    def __post_init__(self):
        overhead = self.overhead or {"plain": (0.0, 0.0), "kernel": (0.0, 0.0)}
        kernel = self.mask("backend.")
        #: Per span: recording cost outside and inside its own stamps.
        self.outside = np.where(kernel, overhead["kernel"][0],
                                overhead["plain"][0])
        self.inside = np.where(kernel, overhead["kernel"][1],
                               overhead["plain"][1])
        self.self_ns = self_times(self.start, self.end, self.parent,
                                  self.outside, self.inside)
        # A span's total is the self time of its whole subtree; a child
        # always sits after its parent, so one backward pass sums it.
        total = self.self_ns.copy()
        parent = self.parent.tolist()
        for index in range(len(parent) - 1, -1, -1):
            if parent[index] >= 0:
                total[parent[index]] += total[index]
        self.total_ns = total
        #: Spans that did traced work of their own (have a child span).
        self.has_child = np.zeros(len(parent), dtype=bool)
        self.has_child[self.parent[self.parent >= 0]] = True

    def mask(self, *prefixes: str) -> np.ndarray:
        """Spans whose name starts with any of ``prefixes``."""
        ids = [i for i, name in enumerate(self.names)
               if name.startswith(prefixes)]
        return np.isin(self.name, ids)

    def between(self, t0: int, t1: int) -> np.ndarray:
        """Spans that started inside ``[t0, t1]``."""
        return (self.start >= t0) & (self.start <= t1)

    def outermost(self, *prefixes: str) -> np.ndarray:
        """Matching spans whose parent does not match (kernels nest)."""
        match = self.mask(*prefixes)
        nested = np.zeros(len(match), dtype=bool)
        has_parent = self.parent >= 0
        nested[has_parent] = match[self.parent[has_parent]]
        return match & ~nested

    def mean_ms(self, chosen: np.ndarray) -> float:
        """Mean inclusive duration of the ``chosen`` spans, in ms."""
        return float(self.total_ns[chosen].mean()) * 1e-6 if chosen.any() else 0.0

    def sum_ms(self, chosen: np.ndarray) -> float:
        """Summed inclusive duration of the ``chosen`` spans, in ms."""
        return float(self.total_ns[chosen].sum()) * 1e-6

    def dump(self, path) -> None:
        """Write every span to ``path`` (.npz), after the run."""
        np.savez_compressed(
            path, names=np.array(self.names), name=self.name,
            start=self.start, end=self.end, parent=self.parent,
            update=self.update, thread=self.thread)


def self_times(start, end, parent, outside=0.0, inside=0.0) -> np.ndarray:
    """Each span's duration minus what its direct children cover.

    ``outside`` and ``inside`` (scalars or per-span arrays) are the
    recording cost of a span that falls outside and inside its own
    stamps; the first is taken off the parent once per child, the
    second off the span itself.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    outside = np.broadcast_to(np.asarray(outside, dtype=np.float64),
                              start.shape)
    covered = np.zeros(len(start))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent],
              (end - start + outside)[has_parent])
    return np.maximum(end - start - covered - inside, 0.0)


def span_overhead_ns(calls: int = 20000) -> dict[str, tuple[float, float]]:
    """What recording one span costs, measured on no-ops, in ns.

    ``{"plain": (outside, inside), "kernel": (outside, inside)}``:
    *inside* lies between the span's own stamps, *outside* around them
    (so in its parent's self time).  Kernel wrappers also compute flops
    and bytes from the operand shapes, so they cost more outside.
    """
    recorder = Recorder()
    operand = np.zeros((4, 4))

    def noop(self, a, b, out):
        return out

    def measure(traced) -> tuple[float, float]:
        buffer = recorder.buffer()
        first = len(buffer.name)
        t0 = _now()
        for _ in range(calls):
            noop(None, operand, operand, operand)
        t1 = _now()
        for _ in range(calls):
            traced(None, operand, operand, operand)
        t2 = _now()
        inside = (sum(buffer.end[first:]) - sum(buffer.start[first:])) / calls
        return max(((t2 - t1) - (t1 - t0)) / calls - inside, 0.0), inside

    return {
        "plain": measure(recorder.wrap(noop, "calibrate")),
        "kernel": measure(recorder.wrap_kernel(noop, "backend.calibrate",
                                               _cost_matmul)),
    }


@dataclass
class Recorder:
    """Collects spans and a few exact counts at the same boundaries."""

    names: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._ids: dict[str, int] = {}
        self._local = threading.local()
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            buffer = self._local.buffer = _Buffer()
            with self._lock:
                self._buffers.append(buffer)
            return buffer

    def set_update(self, update_id: int) -> None:
        """Tag spans this thread opens from now on with ``update_id``."""
        self.buffer().update_id = update_id

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (e.g. the parse call)."""
        buffer = self.buffer()
        index = buffer.open(self.name_id(name))
        try:
            yield
        finally:
            buffer.close(index)

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- wrappers --------------------------------------------------------
    def wrap(self, fn, name: str, on_result=None, counts_updates=False):
        """``fn`` timed as one span named ``name``.

        ``on_result(result)`` records a count from the return value;
        ``counts_updates`` numbers the calls on their thread and uses
        the number as the update id (the serving writer thread, which
        the load loop cannot tag).
        """
        name_id = self.name_id(name)
        get_buffer = self.buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = get_buffer()
            if counts_updates:
                buffer.update_id += 1
            index = buffer.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                buffer.close(index)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def wrap_kernel(self, fn, name: str, cost):
        """A backend kernel: a span plus computed flops and bytes.

        Kernels nest (``add_outer_inplace`` calls ``add_outer``, sparse
        kernels fall back to dense ones); only the outermost call of a
        nest is charged, so nothing is counted twice.
        """
        name_id = self.name_id(name)
        get_buffer = self.buffer
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = get_buffer()
            if buffer.kernel_depth == 0 and cost is not None:
                flops, nbytes = cost(*args[1:])
                counts["flops"] = counts.get("flops", 0) + flops
                counts["bytes"] = counts.get("bytes", 0) + nbytes
            buffer.kernel_depth += 1
            index = buffer.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                buffer.close(index)
                buffer.kernel_depth -= 1

        return traced

    # -- results ---------------------------------------------------------
    def spans(self, overhead: dict | None = None) -> Spans:
        """Merge the per-thread buffers (call once the run has ended)."""
        columns = {key: [] for key in
                   ("name", "start", "end", "parent", "update", "thread")}
        offset = 0
        for thread, buffer in enumerate(self._buffers):
            size = len(buffer.name)
            parent = np.asarray(buffer.parent, dtype=np.int64)
            columns["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for key in ("name", "start", "end", "update"):
                columns[key].append(
                    np.asarray(getattr(buffer, key), dtype=np.int64))
            columns["thread"].append(np.full(size, thread, dtype=np.int64))
            offset += size
        merged = {
            key: (np.concatenate(parts) if parts
                  else np.zeros(0, dtype=np.int64))
            for key, parts in columns.items()
        }
        return Spans(names=list(self.names), overhead=overhead, **merged)


# -- kernel cost, computed from operand shapes ----------------------------

def _entries(x) -> int:
    """Stored entries of an operand (nnz for CSR, size for dense)."""
    nnz = getattr(x, "nnz", None)
    return int(nnz) if nnz is not None else int(np.size(x))


def _cost_matmul(a, b, out=None):
    rows, inner = a.shape
    cols = b.shape[1]
    if hasattr(a, "nnz"):
        flops = 2 * _entries(a) * cols
    elif hasattr(b, "nnz"):
        flops = 2 * rows * _entries(b)
    else:
        flops = 2 * rows * inner * cols
    return flops, 8 * (_entries(a) + _entries(b) + rows * cols)


def _cost_elementwise(a, b, out=None):
    entries = max(_entries(a), _entries(b))
    return entries, 24 * entries


def _cost_scale(coeff, a, out=None):
    return _entries(a), 16 * _entries(a)


def _cost_outer(a, u, v):
    rows, cols = a.shape
    width = u.shape[1]
    return (2 * rows * cols * width,
            8 * (2 * rows * cols + (rows + cols) * width))


def _cost_compact(u, v, rtol=None):
    rows, width = np.shape(u)
    cols = np.shape(v)[0]
    # Two thin QRs, the core SVD, two back-multiplications.
    flops = 4 * (rows + cols) * width * width + 12 * width ** 3
    return flops, 8 * 3 * (rows + cols) * width


KERNEL_COSTS = {
    "matmul": _cost_matmul,
    "matmul_into": _cost_matmul,
    "add": _cost_elementwise,
    "sub": _cost_elementwise,
    "add_inplace": _cost_elementwise,
    "add_into": _cost_elementwise,
    "sub_into": _cost_elementwise,
    "scale": _cost_scale,
    "scale_into": _cost_scale,
    "add_outer": _cost_outer,
    "add_outer_inplace": _cost_outer,
    "compact": _cost_compact,
    "hstack_into": None,
    "vstack_into": None,
    "materialize": None,
}


# -- what gets wrapped ----------------------------------------------------

def _targets(recorder: Recorder):
    """``(owner, attribute, wrapper)`` for every traced entry point."""
    import repro.planner as planner_pkg
    import repro.planner.planner as planner_mod
    import repro.runtime.session as session_mod
    from repro.analytics.pagerank import IncrementalPageRank
    from repro.backends.base import Backend
    from repro.backends.dense import DenseBackend
    from repro.backends.sparse import SparseBackend
    from repro.catalog import ViewCatalog
    from repro.delta.batch import BatchCollector
    from repro.distributed.workers import ProcessCluster
    from repro.runtime.batching import SessionBatcher
    from repro.runtime.drift import ReplanMonitor
    from repro.runtime.heavylight import HeavyLightMaintainer
    from repro.runtime.serving import SessionEngine, ViewServer
    from repro.runtime.session import Session
    from repro.runtime.updates import FactoredUpdate
    from repro.runtime.views import ViewStore

    plain = [
        (Session, "apply_update", "session.apply_update"),
        (Session, "flush", "session.flush"),
        (Session, "__getitem__", "session.read"),
        (FactoredUpdate, "validate_finite", "session.validate"),
        (SessionBatcher, "absorb", "deferral.absorb"),
        (SessionBatcher, "flush", "deferral.flush"),
        (HeavyLightMaintainer, "absorb", "deferral.absorb"),
        (HeavyLightMaintainer, "flush", "deferral.flush"),
        (HeavyLightMaintainer, "retune", "deferral.retune"),
        (BatchCollector, "compacted", "deferral.compact"),
        (ReplanMonitor, "apply_update", "drift.apply_update"),
        (ReplanMonitor, "replan", "drift.replan"),
        (ViewStore, "add_outer", "views.add_outer"),
        (ViewStore, "add_in_place", "views.add_in_place"),
        (ViewStore, "get_dense", "views.get_dense"),
        (ViewServer, "submit", "serving.submit"),
        (ViewServer, "read", "serving.read"),
        (SessionEngine, "flush", "serving.flush"),
        (SessionEngine, "capture", "serving.capture"),
        (ProcessCluster, "roundtrip", "ipc.roundtrip"),
        (ViewCatalog, "apply_update", "catalog.apply_update"),
        (ViewCatalog, "read", "catalog.read"),
        (IncrementalPageRank, "add_edge", "analytics.add_edge"),
        (IncrementalPageRank, "remove_edge", "analytics.remove_edge"),
        (session_mod, "compile_program", "compiler.compile"),
        (session_mod, "compile_trigger_function", "compiler.compile"),
        (session_mod, "compile_fused_trigger", "compiler.fused"),
    ]
    for owner, attr, name in plain:
        yield owner, attr, recorder.wrap(getattr(owner, attr), name)
    yield (SessionEngine, "apply", recorder.wrap(
        SessionEngine.apply, "serving.apply", counts_updates=True))

    # The planner is reached through two module attributes that hold
    # the same functions; both must point at one wrapper.
    def cells(result):
        recorder.add("planner.cells", len(result))

    for attr in ("rank_program", "recommend_general"):
        wrapped = recorder.wrap(getattr(planner_mod, attr), "planner." + attr,
                                on_result=cells)
        yield planner_mod, attr, wrapped
        if hasattr(planner_pkg, attr):
            yield planner_pkg, attr, wrapped

    for cls in (Backend, DenseBackend, SparseBackend):
        for attr, cost in KERNEL_COSTS.items():
            if attr in vars(cls):
                yield cls, attr, recorder.wrap_kernel(
                    vars(cls)[attr], "backend." + attr, cost)


@contextlib.contextmanager
def installed(recorder: Recorder):
    """Swap every traced entry point for its wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, wrapper in _targets(recorder):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# -- the ledger -----------------------------------------------------------

#: Layer = module: the span-name prefixes behind each ``<layer>.share``.
LAYERS = {
    "session": ("session.",),
    "views": ("views.",),
    "deferral": ("deferral.",),
    "drift": ("drift.", "planner."),
    "serving": ("serving.",),
    "catalog": ("catalog.",),
    "analytics": ("analytics.",),
}


@dataclass
class Ledger:
    """Per-span-name totals of a traced window ``[t0, t1]``."""

    #: The traced window less the recording cost of its spans.
    wall_ns: float
    updates: int
    rows: dict[str, dict]
    #: Time the load loop's thread spent inside any span.
    root_ns: float = 0.0

    def total_us(self, name: str) -> float:
        """Inclusive microseconds per update of span ``name``."""
        row = self.rows.get(name)
        return row["total_ns"] / 1e3 / self.updates if row else 0.0

    def self_us(self, *prefixes: str) -> float:
        """Self-time microseconds per update over matching span names."""
        return sum(row["self_ns"] for name, row in self.rows.items()
                   if name.startswith(prefixes)) / 1e3 / self.updates

    def share(self, *prefixes: str) -> float:
        """Self time of matching spans as a share of the traced wall."""
        return sum(row["self_ns"] for name, row in self.rows.items()
                   if name.startswith(prefixes)) / self.wall_ns

    def count(self, name: str) -> int:
        row = self.rows.get(name)
        return row["count"] if row else 0

    @property
    def unattributed_share(self) -> float:
        """Share of the wall no span covers (root wall minus all self)."""
        return max(0.0, 1.0 - self.root_ns / self.wall_ns)

    def table(self) -> str:
        lines = [f"{'span':34} {'calls':>9} {'self us/upd':>12} "
                 f"{'total us/upd':>13} {'share':>7}"]
        ordered = sorted(self.rows.items(),
                         key=lambda item: -item[1]["self_ns"])
        for name, row in ordered:
            lines.append(
                f"{name:34} {row['count']:9d} "
                f"{row['self_ns'] / 1e3 / self.updates:12.2f} "
                f"{row['total_ns'] / 1e3 / self.updates:13.2f} "
                f"{row['self_ns'] / self.wall_ns:7.1%}")
        return "\n".join(lines)


def ledger(spans: Spans, t0: int, t1: int, updates: int) -> Ledger:
    """Aggregate the spans that started inside ``[t0, t1]`` by name.

    Thread 0 is the load loop's (it records first, during set-up); its
    root spans are what tiles the traced wall.
    """
    inside = spans.between(t0, t1)
    rows: dict[str, dict] = {}
    for name_id in np.unique(spans.name[inside]):
        chosen = inside & (spans.name == name_id)
        rows[spans.names[name_id]] = {
            "count": int(chosen.sum()),
            "total_ns": float(spans.total_ns[chosen].sum()),
            "self_ns": float(spans.self_ns[chosen].sum()),
        }
    loop = inside & (spans.thread == 0)
    wall = (t1 - t0) - (spans.outside + spans.inside)[loop].sum()
    return Ledger(wall_ns=max(wall, 1.0), updates=max(updates, 1), rows=rows,
                  root_ns=float(spans.total_ns[loop & (spans.parent < 0)].sum()))


def top_level_kernels(spans: Spans, t0: int, t1: int) -> dict[str, dict]:
    """Outermost backend spans by kernel: ``{name: {count, total_ns}}``."""
    chosen = spans.outermost("backend.") & spans.between(t0, t1)
    out: dict[str, dict] = {}
    for name_id in np.unique(spans.name[chosen]):
        rows = chosen & (spans.name == name_id)
        out[spans.names[name_id]] = {
            "count": int(rows.sum()),
            "total_ns": float(spans.total_ns[rows].sum()),
        }
    return out


def spans_with_work_under(spans: Spans, name: str, ancestor: str,
                          t0: int, t1: int) -> int:
    """How many ``name`` spans inside an ``ancestor`` span did real work
    (have at least one child span) — e.g. flushes a replan forced."""
    above = spans.mask(ancestor)
    count = 0
    for index in np.flatnonzero(spans.mask(name) & spans.has_child
                                & spans.between(t0, t1)):
        parent = spans.parent[index]
        while parent >= 0 and not above[parent]:
            parent = spans.parent[parent]
        count += parent >= 0
    return int(count)
