"""Multi-view catalog: common-subexpression sharing across tenant sessions.

Serving many tenants means many sessions over *overlapping* programs —
``A^2`` feeding ``A^3``, OLS regressions sharing one Gram matrix.  Run
independently, N tenants pay N maintenance bills; the whole point of
factored propagation is lost the moment the same intermediate is kept
fresh N times.  A :class:`ViewCatalog` collapses that: it structurally
hashes every registered subprogram (canonicalized through the ``expr``
simplifier, so ``A + A`` and ``2*A`` collide — see
:mod:`repro.expr.structural`), keeps one **lineage DAG node** per
distinct subexpression, and maintains each node exactly once per
update through a single merged inner session.  Tenants hold
:class:`CatalogSession` handles whose view names alias DAG nodes.

Memory is cache-aside under ``memory_budget``: when the admitted
footprint exceeds the budget, frontier nodes (no admitted dependents)
are flushed first and then demoted to REEVAL-on-demand — reads
recompute them from the maintained state and are charged
:func:`repro.cost.estimate.catalog_demand_cost`; once a node's
accumulated demand charges exceed its hit-priced admission cost it is
re-admitted and pinned again.  The exactness contract
(docs/invariants.md):

* **No eviction**: a read through the statement whose spelling
  *created* a node is bitwise identical to the same program maintained
  by its own independent session — same kernels, same order, per
  distinct node only once.  Any other statement folded into that node
  by its canonical key — from a later tenant or the same one — reads
  the creator's spelling: exact by algebra, allclose numerically.
* **Evicted**: reads are bitwise equal to re-evaluating the node's
  expression against the maintained admitted state (exact REEVAL);
  re-admission pins that re-evaluated value and resumes incremental
  maintenance from it.

Thread-safety: one re-entrant lock serializes every mutation, so any
number of tenant writer threads (e.g. one :class:`ViewServer
<repro.runtime.serving.ViewServer>` per tenant, via
:meth:`CatalogSession.serve`) can share a catalog; readers only touch
published immutable epoch snapshots and are never blocked — not even
by eviction, which runs on writer threads under the lock.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .backends import get_backend
from .compiler.program import Program, Statement
from .cost import counters
from .expr import Expr, MatrixSymbol, matrix_symbols, structural_key, substitute_symbol
from .runtime.executor import evaluate
from .runtime.serving import SessionEngine, ViewServer
from .runtime.session import build_session
from .runtime.updates import FactoredUpdate
from .runtime.views import ViewStore

#: Name prefix of internal DAG node symbols.  Tenant programs parsed by
#: the frontend cannot produce identifiers starting with ``_``, so node
#: names never collide with tenant view or input names.
NODE_PREFIX = "_S"


class CatalogError(ValueError):
    """Raised for invalid catalog registrations."""


class CatalogInputMismatchError(CatalogError):
    """A tenant declared a shared input inconsistently with the catalog.

    Shared base tables must agree across tenants — same shape and, when
    a later tenant supplies initial values for an input the catalog
    already maintains, bitwise-equal current contents (pass the value
    of :meth:`ViewCatalog.read` for mid-stream registration).
    """


@dataclass
class CatalogStats:
    """Work and sharing counters of one :class:`ViewCatalog`.

    ``node_refreshes`` counts admitted DAG nodes maintained per update
    (each exactly once) — the quantity the differential harness asserts
    scales with *distinct* subexpressions, not with tenant count.
    """

    tenants: int = 0
    registered_views: int = 0
    shared_hits: int = 0
    updates: int = 0
    node_refreshes: int = 0
    demand_reads: int = 0
    evictions: int = 0
    readmissions: int = 0

    def as_dict(self) -> dict:
        """Plain-dict form (for CLI/bench JSON reports)."""
        return dataclasses.asdict(self)


@dataclass
class CatalogNode:
    """One distinct subexpression in the lineage DAG.

    ``expr`` is the form of the statement that created the node, over
    base inputs and earlier node symbols (the form actually maintained
    — never rewritten, so that statement's bitwise trajectory is
    preserved; every other statement hitting ``key`` is allclose);
    ``resolved`` substitutes node references away down to base inputs
    and is what ``key`` digests, so later tenants spelling the same
    value through a different chain of intermediate names still collide
    here.
    """

    name: str
    symbol: MatrixSymbol
    expr: Expr
    resolved: Expr
    key: str
    deps: tuple[str, ...]
    admitted: bool = True
    tenants: int = 1
    demand_reads: int = 0
    demand_flops: float = 0.0
    evicted_at: int = 0


class ViewCatalog:
    """A shared maintenance tier over overlapping tenant programs.

    Parameters
    ----------
    memory_budget:
        Byte budget for admitted node state (``None``: everything stays
        admitted).  Over budget, frontier nodes demote to
        REEVAL-on-demand, cheapest-retention first; flush-first.
    strategy, mode, backend, rank:
        Maintenance configuration of the single inner session every
        admitted node is maintained by (``INCR``/``REEVAL``,
        ``interpret``/``codegen``, execution backend, expected update
        width) — fixed at construction, as
        one :class:`~repro.planner.plan.MaintenancePlan` (``.plan``)
        every rebuild of the inner session goes back to, so every
        tenant shares one trajectory.
    counter:
        FLOP counter charged with all shared maintenance and on-demand
        re-evaluation work, by the backend's kernels
        (:func:`~repro.cost.counters.counted`).
    """

    def __init__(
        self,
        *,
        memory_budget: int | None = None,
        strategy: str = "INCR",
        mode: str = "interpret",
        backend=None,
        rank: int = 1,
        counter: counters.Counter = counters.NULL_COUNTER,
    ):
        from .planner.plan import MaintenancePlan

        if strategy not in ("INCR", "REEVAL"):
            raise ValueError(f"catalog strategy must be INCR or REEVAL, "
                             f"got {strategy!r}")
        if memory_budget is not None and memory_budget < 0:
            raise ValueError("memory_budget must be >= 0 bytes or None")
        self.memory_budget = memory_budget
        self.strategy = strategy
        self.mode = mode
        self.backend = counters.counted(get_backend(backend), counter)
        self.plan = MaintenancePlan(strategy, backend=self.backend.name,
                                    mode=mode, rank=rank)
        self.counter = counter
        self.stats = CatalogStats()
        self.nodes: dict[str, CatalogNode] = {}
        self.sessions: list[CatalogSession] = []
        self._by_key: dict[str, CatalogNode] = {}
        self._order: list[str] = []
        self._input_syms: dict[str, MatrixSymbol] = {}
        #: Base inputs and admitted node state, for the catalog's whole
        #: life: every inner session is built around this one store, so
        #: re-planning the session never copies or moves a view.
        self._store = ViewStore(backend=self.backend)
        self._session = None
        self._next_id = 0
        self._touched_cache: dict[str, int] = {}
        self._lock = threading.RLock()

    # -- registration ----------------------------------------------------
    def open(self, program: Program, inputs: Mapping[str, np.ndarray] | None,
             dims: Mapping[str, int] | None = None) -> "CatalogSession":
        """Register a tenant program; return its :class:`CatalogSession`.

        Each statement is keyed by the structural hash of its resolved
        canonical form: hits alias existing DAG nodes (maintained work
        is shared from this update on), misses create new nodes.  Bare
        references (``F := B``) alias without a node at all.  Inputs
        already known to the catalog may be omitted from ``inputs``;
        when supplied they must match the catalog's current state
        bitwise (:class:`CatalogInputMismatchError` otherwise).
        """
        with self._lock:
            dirty = self._absorb_inputs(program, inputs or {}, dims)
            mapping: dict[str, str] = {}
            created = 0
            for stmt in program.statements:
                expr = stmt.expr
                for view_name in list(mapping):
                    expr = substitute_symbol(
                        expr, view_name, self._symbol_for(mapping[view_name]))
                if isinstance(expr, MatrixSymbol):
                    # A bare alias: no node, no maintenance of its own.
                    mapping[stmt.target.name] = expr.name
                    node = self.nodes.get(expr.name)
                    if node is not None:
                        node.tenants += 1
                        self.stats.shared_hits += 1
                    continue
                resolved = self._resolve(expr)
                key = structural_key(resolved)
                node = self._by_key.get(key)
                if node is not None:
                    node.tenants += 1
                    self.stats.shared_hits += 1
                    if not node.admitted:
                        self._admit(node)
                        dirty = True
                else:
                    node = self._create_node(expr, resolved, key)
                    created += 1
                    dirty = True
                mapping[stmt.target.name] = node.name
            if dirty or created:
                self._rebuild()
            self._enforce_budget()
            session = CatalogSession(self, program, mapping)
            self.sessions.append(session)
            self.stats.tenants += 1
            self.stats.registered_views += len(program.statements)
            return session

    def _symbol_for(self, name: str) -> MatrixSymbol:
        node = self.nodes.get(name)
        if node is not None:
            return node.symbol
        return self._input_syms[name]

    def _absorb_inputs(self, program, inputs, dims) -> bool:
        if dims:
            bound = self._store.dims
            for name, size in dims.items():
                known = bound.get(name)
                if known is not None and known != int(size):
                    raise CatalogInputMismatchError(
                        f"dimension {name!r} is {known} in the catalog, "
                        f"tenant binds {size}")
                bound[name] = int(size)
        dirty = False
        for sym in program.inputs:
            known = self._input_syms.get(sym.name)
            if known is not None:
                if known.shape != sym.shape:
                    raise CatalogInputMismatchError(
                        f"input {sym.name!r} declared {sym.shape}, catalog "
                        f"has {known.shape}")
                if sym.name in inputs:
                    current = self.read(sym.name)
                    offered = np.asarray(inputs[sym.name], dtype=np.float64)
                    if (current.shape != offered.shape
                            or not np.array_equal(current, offered)):
                        raise CatalogInputMismatchError(
                            f"input {sym.name!r} differs from the catalog's "
                            f"maintained state; shared base tables must "
                            f"match bitwise (register with the value of "
                            f"catalog.read({sym.name!r}))")
                continue
            if sym.name not in inputs:
                raise CatalogError(
                    f"missing initial value for new input {sym.name!r}")
            self._store.set(sym.name, inputs[sym.name])
            self._input_syms[sym.name] = sym
            dirty = True
        return dirty

    def _resolve(self, expr: Expr) -> Expr:
        for sym in matrix_symbols(expr):
            node = self.nodes.get(sym.name)
            if node is not None:
                expr = substitute_symbol(expr, sym.name, node.resolved)
        return expr

    def _create_node(self, expr: Expr, resolved: Expr, key: str) -> CatalogNode:
        deps = tuple(sorted(
            sym.name for sym in matrix_symbols(expr) if sym.name in self.nodes))
        for dep in deps:
            if not self.nodes[dep].admitted:
                self._admit(self.nodes[dep])
        name = f"{NODE_PREFIX}{self._next_id}"
        self._next_id += 1
        shape = expr.shape
        node = CatalogNode(
            name=name, symbol=MatrixSymbol(name, shape.rows, shape.cols),
            expr=expr, resolved=resolved, key=key, deps=deps,
        )
        self.nodes[name] = node
        self._by_key[key] = node
        self._order.append(name)
        return node

    def _admit(self, node: CatalogNode) -> None:
        for dep in node.deps:
            if not self.nodes[dep].admitted:
                self._admit(self.nodes[dep])
        node.admitted = True
        node.demand_reads = 0
        node.demand_flops = 0.0

    # -- maintenance -----------------------------------------------------
    def apply_update(self, update: FactoredUpdate) -> None:
        """Fan one factored update out through the lineage DAG.

        The single inner session maintains every admitted node exactly
        once; ``stats.node_refreshes`` is charged with the number of
        admitted nodes downstream of the update's target.
        """
        with self._lock:
            if update.target not in self._input_syms:
                raise KeyError(f"no catalog input named {update.target!r}")
            if self._session is None:
                update.validate_finite()
                self._store.add_outer(
                    update.target, update.u_block, update.v_block)
            else:
                self._session.apply_update(update)
            self.stats.updates += 1
            self.stats.node_refreshes += self._touched_count(update.target)

    def apply_updates(self, updates: Iterable[FactoredUpdate]) -> None:
        """Apply a sequence of factored updates, in order."""
        for update in updates:
            self.apply_update(update)

    def flush(self) -> None:
        """Land any deferred maintenance in the inner session."""
        with self._lock:
            if self._session is not None:
                self._session.flush()

    def _touched_count(self, target: str) -> int:
        count = self._touched_cache.get(target)
        if count is None:
            count = sum(
                1 for name in self._order
                if self.nodes[name].admitted and any(
                    sym.name == target
                    for sym in matrix_symbols(self.nodes[name].resolved))
            )
            self._touched_cache[target] = count
        return count

    # -- reads -----------------------------------------------------------
    def read(self, name: str) -> np.ndarray:
        """Current dense value of a catalog input or DAG node.

        Admitted nodes serve from maintained state (flushed first);
        evicted nodes re-evaluate on demand against the admitted state,
        are charged for it, and re-admit themselves once the accumulated
        charges out-price staying evicted.  Maintained state is returned
        live — valid until the next update, never to be mutated; copy
        what must outlast it.
        """
        with self._lock:
            if self._session is not None:
                self._session.flush()
            if name in self._input_syms:
                return self._store.get_dense(name)
            node = self.nodes.get(name)
            if node is None:
                raise KeyError(f"no catalog view named {name!r}")
            if node.admitted:
                return self._store.get_dense(name)
            value = self._demand_value(node, {})
            self._maybe_readmit(node, value)
            return value

    def _demand_value(self, node: CatalogNode, cache: dict) -> np.ndarray:
        # The pricing names load with the first eviction (at registration,
        # in _retention_score): only a memory_budget makes any reachable.
        from .cost.estimate import catalog_demand_cost

        if node.name in cache:
            return cache[node.name]
        env = self._store.as_env()
        for dep in node.deps:
            dep_node = self.nodes[dep]
            if dep not in env:
                env[dep] = self._demand_value(dep_node, cache)
        value = evaluate(node.expr, env, dims=self._store.dims,
                         backend=self.backend)
        dense = np.asarray(self.backend.materialize(value), dtype=np.float64)
        rows, cols = dense.shape
        node.demand_reads += 1
        node.demand_flops += catalog_demand_cost(rows, cols, rows)
        self.stats.demand_reads += 1
        cache[node.name] = dense
        return dense

    def _maybe_readmit(self, node: CatalogNode, value: np.ndarray) -> None:
        from .cost.estimate import (
            CATALOG_READMIT_HYSTERESIS,
            catalog_admission_cost,
        )

        rows, cols = value.shape
        since = max(self.stats.updates - node.evicted_at, 0)
        per_read = since / node.demand_reads if node.demand_reads else float(since)
        threshold = CATALOG_READMIT_HYSTERESIS * catalog_admission_cost(
            rows, cols, rows, updates_per_read=per_read, rank=self.plan.rank)
        if node.demand_flops < threshold:
            return
        self._admit(node)
        self.stats.readmissions += 1
        self._rebuild()
        # Pin the on-demand value: re-admission resumes incremental
        # maintenance from exactly the REEVAL state the caller just saw.
        self._store.set(node.name, value)
        self._enforce_budget(protect=frozenset({node.name}))

    # -- admission / eviction --------------------------------------------
    def memory_bytes(self) -> int:
        """Bytes of admitted node state (the budgeted footprint)."""
        with self._lock:
            admitted = [n for n in self._order if self.nodes[n].admitted]
            return int(self._store.total_bytes(admitted))

    def _enforce_budget(self, protect: frozenset = frozenset()) -> None:
        if self.memory_budget is None or self._session is None:
            return
        # Eviction is flush-first: deferred deltas land while the node
        # is still maintained, never against a demoted one.
        self._session.flush()
        admitted = [self.nodes[n] for n in self._order if self.nodes[n].admitted]
        footprint = {
            node.name: int(self._store.total_bytes([node.name]))
            for node in admitted
        }
        total = sum(footprint.values())
        evicted = False
        while total > self.memory_budget:
            candidates = [
                node for node in admitted
                if node.admitted and node.name not in protect
                and not any(other.admitted and node.name in other.deps
                            for other in admitted)
            ]
            if not candidates:
                break
            victim = min(
                candidates,
                key=lambda n: self._retention_score(n, footprint[n.name]))
            victim.admitted = False
            victim.evicted_at = self.stats.updates
            victim.demand_reads = 0
            victim.demand_flops = 0.0
            self.stats.evictions += 1
            total -= footprint[victim.name]
            evicted = True
        if evicted:
            self._rebuild()

    def _retention_score(self, node: CatalogNode, nbytes: int) -> float:
        from .cost.estimate import catalog_demand_cost

        arr = self._store.get(node.name)
        rows, cols = self.backend.shape(arr)
        saved = catalog_demand_cost(rows, cols, rows)
        return (node.tenants + node.demand_reads) * saved / max(nbytes, 1)

    # -- the merged inner session ----------------------------------------
    def _rebuild(self) -> None:
        """Build the inner session for the current admitted set.

        The store stays: maintained nodes keep their arrays (and with
        them their bitwise trajectory), demoted nodes are dropped, and
        only genuinely new nodes materialize fresh.
        """
        if self._session is not None:
            self._session.flush()
        store = self._store
        admitted = [name for name in self._order if self.nodes[name].admitted]
        for name in store.names():
            if name in self.nodes and not self.nodes[name].admitted:
                store.drop(name)
        statements = []
        for name in admitted:
            node = self.nodes[name]
            statements.append(Statement(node.symbol, node.expr))
            if name not in store:
                store.adopt(name, evaluate(
                    node.expr, store.as_env(), dims=store.dims,
                    backend=self.backend))
        self._touched_cache = {}
        if not admitted:
            self._session = None
            return
        program = Program(tuple(self._input_syms.values()), tuple(statements),
                          outputs=tuple(admitted))
        self._session = build_session(
            program, store, self.plan, counter=self.counter,
            backend=self.backend)

    # -- introspection ---------------------------------------------------
    def lineage(self) -> list[dict]:
        """The lineage DAG, one record per node (CLI/bench reporting)."""
        with self._lock:
            records = []
            for name in self._order:
                node = self.nodes[name]
                dependents = sorted(
                    other for other in self._order
                    if name in self.nodes[other].deps)
                records.append({
                    "name": name,
                    "expr": repr(Statement(node.symbol, node.expr)),
                    "key": node.key[:12],
                    "deps": list(node.deps),
                    "dependents": dependents,
                    "admitted": node.admitted,
                    "tenants": node.tenants,
                    "demand_reads": node.demand_reads,
                })
            return records

    @property
    def distinct_nodes(self) -> int:
        """Number of distinct subexpressions in the DAG."""
        return len(self.nodes)


#: ISSUE-facing alias: ``Catalog.open(...)`` reads naturally at call sites.
Catalog = ViewCatalog


class CatalogViews:
    """Read facade presenting a tenant's names over the shared DAG.

    Duck-types the slice of :class:`~repro.runtime.views.ViewStore` the
    serving layer reads (``names``/``get_dense``), resolving tenant
    view names through the session's alias mapping.
    """

    def __init__(self, session: "CatalogSession"):
        self._session = session

    def names(self) -> list[str]:
        """Every name this tenant may read: its views and its inputs."""
        return (list(self._session.mapping)
                + list(self._session.program.input_names))

    def get_dense(self, name: str) -> np.ndarray:
        """Current dense value of a tenant view or input (do not mutate)."""
        return self._session[name]


class CatalogSession:
    """One tenant's handle on a shared :class:`ViewCatalog`.

    Mirrors the :class:`~repro.runtime.session.Session` surface the
    rest of the runtime expects — ``apply_update``/``flush``/item reads
    plus ``program`` and ``views`` — so serving, benchmarks and the CLI
    treat catalog-backed tenants exactly like private sessions.  All
    mutation delegates to the catalog (and thus to the one shared inner
    session) under the catalog lock.
    """

    def __init__(self, catalog: ViewCatalog, program: Program,
                 mapping: dict[str, str]):
        self.catalog = catalog
        self.program = program
        self.mapping = dict(mapping)
        self.update_count = 0
        self.views = CatalogViews(self)
        self.plan = catalog.plan

    def __getitem__(self, name: str) -> np.ndarray:
        """Current dense value of a tenant view or input (do not mutate)."""
        target = self.mapping.get(name)
        if target is None:
            if name in self.program.input_names:
                target = name
            else:
                raise KeyError(f"no view or input named {name!r}")
        return self.catalog.read(target)

    def view(self, name: str) -> np.ndarray:
        """Explicit read accessor (alias of item access)."""
        return self[name]

    def apply_update(self, update: FactoredUpdate) -> None:
        """Apply one factored update to the shared base state.

        Every tenant registered on the catalog observes it: shared base
        tables have one state, maintained once per distinct node.
        """
        self.catalog.apply_update(update)
        self.update_count += 1

    def apply_updates(self, updates: Iterable[FactoredUpdate]) -> None:
        """Apply a sequence of factored updates, in order."""
        for update in updates:
            self.apply_update(update)

    def flush(self) -> None:
        """Land any deferred shared maintenance."""
        self.catalog.flush()

    @property
    def checkpointer(self):
        """Catalog tenants have no private checkpointer."""
        return None

    def serve(self, **options) -> ViewServer:
        """Serve this tenant's views concurrently from the catalog.

        Returns a :class:`~repro.runtime.serving.ViewServer` over a
        :class:`CatalogEngine`, whose epoch captures run atomically
        under the catalog lock — concurrent tenants' writers interleave
        *between* captures, never inside one, so every published
        snapshot is an internally consistent flushed state.
        """
        return ViewServer(CatalogEngine(self), **options)


class CatalogEngine(SessionEngine):
    """Serving engine whose snapshot capture is catalog-atomic.

    The stock :class:`~repro.runtime.serving.SessionEngine` copies
    published views one at a time; with several tenants writing to one
    catalog, a foreign update could land between two copies and tear
    the snapshot across epochs.  Holding the catalog lock (and flushing
    under it) for the whole capture closes that window.
    """

    def capture(self, names: Iterable[str]) -> dict[str, np.ndarray]:
        """Fresh dense copies of ``names``, atomically vs other tenants."""
        with self.target.catalog._lock:
            self.target.flush()
            return super().capture(names)


__all__ = [
    "Catalog",
    "CatalogEngine",
    "CatalogError",
    "CatalogInputMismatchError",
    "CatalogNode",
    "CatalogSession",
    "CatalogStats",
    "CatalogViews",
    "NODE_PREFIX",
    "ViewCatalog",
]
