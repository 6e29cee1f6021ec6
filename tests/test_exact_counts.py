"""Exact per-update counts of the reference workloads' programs.

Counts are exact, so this file holds them as a committed table with no
tolerance: a change that moves a number changes :data:`TABLE`, and
says why.  Each kernel the lowered list names counts once — a kernel
that delegates to another (``add_outer_inplace`` to ``add_outer``) is
one call, as in the end-to-end tracer's ``backend.kernel_calls_per_update``.

* the chain ``B := A*A; C := B*B`` (``dense_small`` / ``dense_chain``):
  backend kernel calls per update, in both execution modes;
* the ``catalog_tenants`` family on one :class:`~repro.catalog.ViewCatalog`:
  kernel calls and DAG-node refreshes per update;
* the chain on two row-shard nodes (``sharded_chain``: the coordinator
  as node 0 and one worker): messages and bytes per update in the
  engine's modeled ledger (``engine.model``), which prices only what
  crosses to and from the remote node;
* ``sparse_pagerank``'s driver: the cells its planner prices and the
  plan it resolves;
* the FLOP ledger (:func:`~repro.cost.counters.counted`, keyed by
  kernel) of the chain in both modes, of REEVAL on it, and of the
  iterative powers maintainer running the same algebra — with the
  chain's per-update FLOPs as exact polynomials in ``n``;
* the Section 5.1 OLS program (:func:`~repro.analytics.make_ols`):
  its FLOP ledger per row update under INCR in both modes and under
  REEVAL;
* the bytes REEVAL allocates per update, in both modes: its list runs
  on leased buffers, so only what no buffer holds (``inv``'s result)
  is allocated;
* the planner's INCR and REEVAL prices read off the same lists
  (:func:`~repro.planner.programcost.refresh_ledger`): on the dense
  backend its predicted calls and FLOPs per update are the ledger's.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.analytics import make_ols
from repro.analytics.ols import OLS_SOURCE
from repro.backends.dense import DenseBackend
from repro.catalog import ViewCatalog
from repro.cost.counters import NULL_COUNTER, counted, uncounted
from repro.cost.counters import Counter as Ledger
from repro.distributed import LocalShardEngine, RowShardPartitioner, ShardBackend
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.planner.programcost import program_cost, refresh_ledger
from repro.runtime import FactoredUpdate, ShardedSession, resolve_dim
from repro.runtime.session import build_session, open_session
from stream_helpers import ITERATIVE

CHAIN_SRC = "input A(n, n); B := A * A; C := B * B; output C;"
TENANTS = 8


def tenant_source(index: int) -> str:
    """The ``catalog_tenants`` family's ``index``-th program."""
    return (f"input A(n, n); B := A * A; C := B * B; "
            f"P := {float(index + 2):g} * C + A; output P;")

#: The committed table.
TABLE = {
    "chain": {"calls": 17, "by_kernel": {"matmul_into": 8, "hstack_into": 4,
                                         "add_into": 2,
                                         "add_outer_inplace": 3}},
    "catalog_tenants": {"calls": 42, "node_refreshes": 10},
    "sharded_chain": {"messages": 11, "bytes": 372_736},
    "sparse_pagerank": {"cells": 15, "plan": "REEVAL-LIN@sparse/interpret"},
    "chain_reeval": {"by_kernel": {"add_outer_inplace": 1, "matmul_into": 2},
                     "bytes": 0},
    # OLS at OLS_DIMS: dZ's two outer products, one rank-2 Woodbury step
    # on W (its 2 x 2 core is the one ``inv``), dC and dbeta, then five
    # applies; REEVAL applies to X and runs three products and ``inv``,
    # whose n x n result is the one allocation.
    "ols": {"calls": 27, "flops": 102_500,
            "by_kernel": {"matmul_into": 13, "add_into": 3, "hstack_into": 4,
                          "inv": 1, "scale_into": 1,
                          "add_outer_inplace": 5}},
    "ols_reeval": {"flops": 1_475_200, "bytes": 12_800,
                   "by_kernel": {"add_outer_inplace": 1, "matmul_into": 3,
                                 "inv": 1}},
}

#: The OLS design ``X (m x n)`` and response ``Y (m x p)``.
OLS_DIMS = {"m": 400, "n": 40, "p": 1}

#: The chain's FLOPs per rank-1 update, as integer coefficients of a
#: polynomial in ``n`` (highest degree first).  INCR: three rank-1, -2
#: and -4 applies (14 n^2), eight thin products (12 n^2 + 20 n) and two
#: sums (3 n); REEVAL: the input's apply (2 n^2) and two n x n products.
FLOPS_IN_N = {"incr": (26, 23, 0), "reeval": (4, 2, 0, 0)}

#: The backend kernels counted (those the tracer wraps).
KERNELS = (
    "matmul_into", "add_inplace", "add_into", "sub_into", "scale_into",
    "add_outer_inplace", "compact", "hstack_into", "vstack_into",
    "materialize",
)
UPDATES = 4


class CountingBackend(DenseBackend):
    """The dense backend, logging each outermost kernel call by name."""

    def __init__(self):
        super().__init__()
        self.calls: list[str] = []
        self._depth = 0


def _counted(name: str):
    kernel = getattr(DenseBackend, name)

    def counted(self, *args, **kwargs):
        if not self._depth:
            self.calls.append(name)
        self._depth += 1
        try:
            return kernel(self, *args, **kwargs)
        finally:
            self._depth -= 1

    return counted


for _name in KERNELS:
    setattr(CountingBackend, _name, _counted(_name))


def _input(n: int) -> np.ndarray:
    rng = np.random.default_rng([7, n])
    return 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)


def _updates(n: int, count: int = UPDATES) -> list[FactoredUpdate]:
    rng = np.random.default_rng([8, n])
    return [FactoredUpdate("A", 0.01 * rng.standard_normal((n, 1)),
                           rng.standard_normal((n, 1)))
            for _ in range(count)]


def _per_update(backend: CountingBackend, apply, updates) -> list[list[str]]:
    """Each update's kernel calls, in order."""
    sequences = []
    for update in updates:
        backend.calls.clear()
        apply(update)
        sequences.append(list(backend.calls))
    return sequences


class TestChain:
    N = 32

    def _sequences(self, mode: str) -> list[list[str]]:
        backend = CountingBackend()
        session = open_session(
            parse_program(CHAIN_SRC), {"A": _input(self.N)},
            dims={"n": self.N}, plan="incr", mode=mode, batch="off",
            backend=backend)
        return _per_update(backend, session.apply_update, _updates(self.N))

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_calls_per_update(self, mode):
        for calls in self._sequences(mode):
            assert len(calls) == TABLE["chain"]["calls"]
            assert Counter(calls) == TABLE["chain"]["by_kernel"]

    def test_both_modes_call_the_same_sequence(self):
        interpret = self._sequences("interpret")
        assert self._sequences("codegen") == interpret
        assert all(calls == interpret[0] for calls in interpret)


class TestCatalogTenants:
    N = 32

    def test_calls_and_node_refreshes_per_update(self):
        backend = CountingBackend()
        catalog = ViewCatalog(backend=backend)
        for index in range(TENANTS):
            open_session(parse_program(tenant_source(index)),
                         {"A": _input(self.N)} if index == 0 else None,
                         dims={"n": self.N}, catalog=catalog)
        for update in _updates(self.N):
            refreshes = catalog.stats.node_refreshes
            backend.calls.clear()
            catalog.apply_update(update)
            assert len(backend.calls) == TABLE["catalog_tenants"]["calls"]
            assert (catalog.stats.node_refreshes - refreshes
                    == TABLE["catalog_tenants"]["node_refreshes"])


class TestShardedChain:
    N = 1024

    def test_modeled_messages_and_bytes_per_update(self):
        engine = LocalShardEngine(RowShardPartitioner(self.N, 2))
        session = build_session(
            parse_program(CHAIN_SRC), {"A": _input(self.N)},
            MaintenancePlan("INCR", nodes=2), dims={"n": self.N},
            backend=ShardBackend(engine))
        assert isinstance(session, ShardedSession)
        for update in _updates(self.N, 2):
            engine.model.reset()
            session.apply_update(update)
            assert (engine.model.total_messages
                    == TABLE["sharded_chain"]["messages"])
            assert engine.model.total_bytes == TABLE["sharded_chain"]["bytes"]
        session.close()


def _chain(plan: str, n: int, counter, mode: str = "interpret",
           backend=None):
    session = open_session(
        parse_program(CHAIN_SRC), {"A": _input(n)}, dims={"n": n},
        plan=plan, mode=mode, batch="off", backend=backend, counter=counter)
    counter.reset()
    return session


def _ledgers(counter, apply, updates) -> list[tuple]:
    """Each update's ``(calls, flops, bytes)`` charged to ``counter``."""
    ledgers = []
    for update in updates:
        counter.reset()
        apply(update)
        ledgers.append((dict(counter.calls_by_op), counter.snapshot(),
                        counter.bytes_allocated))
    return ledgers


class TestChainLedger:
    N = 32

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_calls_by_op_are_the_traced_calls(self, mode):
        backend, ledger = CountingBackend(), Ledger()
        session = _chain("incr", self.N, ledger, mode, backend)
        for update in _updates(self.N):
            backend.calls.clear()
            ledger.reset()
            session.apply_update(update)
            assert ledger.calls_by_op == TABLE["chain"]["by_kernel"]
            assert ledger.calls_by_op == Counter(backend.calls)
            assert ledger.bytes_allocated == 0  # every result in a buffer

    def test_off_runs_on_the_backend_handed_over(self):
        backend, ledger = CountingBackend(), Ledger()
        assert _chain("incr", self.N, NULL_COUNTER,
                      backend=backend).backend is backend
        wrapped = _chain("incr", self.N, ledger, backend=backend).backend
        assert wrapped is counted(backend, ledger) is not backend
        assert uncounted(wrapped) is backend

    def test_both_modes_charge_one_ledger(self):
        ledgers = [
            _ledgers(ledger, _chain("incr", self.N, ledger, mode)
                     .apply_update, _updates(self.N))
            for mode, ledger in (("interpret", Ledger()),
                                 ("codegen", Ledger()))]
        assert ledgers[0] == ledgers[1]
        assert all(entry == ledgers[0][0] for entry in ledgers[0])

    def test_reeval_charges_the_input_apply_and_two_products(self):
        ledger = Ledger()
        session = _chain("reeval", self.N, ledger)
        for calls, _, _ in _ledgers(ledger, session.apply_update,
                                    _updates(self.N)):
            assert calls == TABLE["chain_reeval"]["by_kernel"]

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_reeval_allocates_nothing(self, mode):
        """REEVAL's list updates a copy of the input in a buffer and
        evaluates into buffers: a rank-1 update allocates no bytes."""
        ledger = Ledger()
        session = _chain("reeval", self.N, ledger, mode)
        assert session.plan.mode == mode
        for calls, _, nbytes in _ledgers(ledger, session.apply_update,
                                         _updates(self.N)):
            assert calls == TABLE["chain_reeval"]["by_kernel"]
            assert nbytes == TABLE["chain_reeval"]["bytes"]

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("plan", sorted(FLOPS_IN_N))
    def test_flops_are_a_polynomial_in_n(self, plan, mode):
        """Exact counts give exact exponents: INCR is degree 2 in ``n``
        and REEVAL degree 3, with no tolerance."""
        for n in (32, 64, 128):
            ledger = Ledger()
            session = _chain(plan, n, ledger, mode)
            session.apply_update(_updates(n, 1)[0])
            assert ledger.total_flops == np.polyval(FLOPS_IN_N[plan], n)

    def test_a_switch_and_a_restore_charge_each_kernel_once(self, tmp_path):
        ledger = Ledger()
        session = _chain("incr", self.N, ledger)
        switched = session.with_plan(MaintenancePlan("INCR", mode="codegen"))
        assert switched.backend is session.backend
        switched.attach_checkpointer(tmp_path, every=1)
        switched.apply_update(_updates(self.N, 1)[0])
        restored = switched.restore()
        assert restored.backend is switched.backend
        for live in (switched, restored):
            for calls, _, _ in _ledgers(ledger, live.apply_update,
                                        _updates(self.N, 2)):
                assert calls == TABLE["chain"]["by_kernel"]


class TestMaintainerLedger:
    N = 32

    def test_powers_maintainer_charges_what_the_session_charges(self):
        """``IncrementalPowers`` is the session's algebra written by
        hand: the same kernel calls, and the same FLOPs, per refresh."""
        from repro.iterative import IncrementalPowers, Model

        updates = _updates(self.N)
        maintained, opened = Ledger(), Ledger()
        maintainer = IncrementalPowers(_input(self.N), 4, Model.exponential(),
                                       maintained)
        session = open_session(
            parse_program("input A(n, n); P2 := A * A; P4 := P2 * P2; "
                          "output P4;"),
            {"A": _input(self.N)}, dims={"n": self.N}, plan="incr",
            batch="off", counter=opened)
        by_maintainer = _ledgers(
            maintained,
            lambda update: maintainer.refresh(update.u_block,
                                              update.v_block), updates)
        by_session = _ledgers(opened, session.apply_update, updates)
        assert ([entry[:2] for entry in by_maintainer]
                == [entry[:2] for entry in by_session])


class TestOLSLedger:
    """``make_ols`` charges the ledger of the program it opens."""

    @staticmethod
    def _ledgers(plan: str, mode: str = "interpret") -> list[tuple]:
        rng = np.random.default_rng([10, *OLS_DIMS.values()])
        m, n, p = OLS_DIMS.values()
        ledger = Ledger()
        session = make_ols(rng.standard_normal((m, n)),
                           rng.standard_normal((m, p)), plan=plan, mode=mode,
                           batch="off", counter=ledger)
        updates = [FactoredUpdate("X", rng.standard_normal((m, 1)),
                                  0.01 * rng.standard_normal((n, 1)))
                   for _ in range(UPDATES)]
        return _ledgers(ledger, session.apply_update, updates)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_incr_calls_and_flops_per_update(self, mode):
        for calls, flops, _ in self._ledgers("incr", mode):
            assert calls == TABLE["ols"]["by_kernel"]
            assert sum(calls.values()) == TABLE["ols"]["calls"]
            assert sum(flops.values()) == TABLE["ols"]["flops"]

    def test_reeval_calls_and_flops_per_update(self):
        for calls, flops, _ in self._ledgers("reeval"):
            assert calls == TABLE["ols_reeval"]["by_kernel"]
            assert sum(flops.values()) == TABLE["ols_reeval"]["flops"]

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_reeval_allocates_only_the_inverse(self, mode):
        m, n, _ = OLS_DIMS.values()
        assert TABLE["ols_reeval"]["bytes"] == n * n * 8
        for calls, flops, nbytes in self._ledgers("reeval", mode):
            assert calls == TABLE["ols_reeval"]["by_kernel"]
            assert sum(flops.values()) == TABLE["ols_reeval"]["flops"]
            assert nbytes == TABLE["ols_reeval"]["bytes"]


class TestSparsePageRank:
    N = 64

    def test_cells_priced_and_plan_resolved(self, monkeypatch):
        pytest.importorskip("scipy")
        import repro.planner.planner as planner
        from repro.analytics.pagerank import IncrementalPageRank
        from repro.workloads.generators import random_adjacency

        priced = []
        recommend = planner.recommend_general

        def counting(*args, **kwargs):
            ranked = recommend(*args, **kwargs)
            priced.append(len(ranked))
            return ranked

        monkeypatch.setattr(planner, "recommend_general", counting)
        adjacency = random_adjacency(np.random.default_rng([1, self.N, 2]),
                                     self.N, 20.0)
        driver = IncrementalPageRank(adjacency, k=16, strategy="auto",
                                     backend="sparse")
        assert priced == [TABLE["sparse_pagerank"]["cells"]]
        assert driver.plan.label == TABLE["sparse_pagerank"]["plan"]


class TestPricedLedger:
    """The planner prices the list that runs: its predicted kernel calls
    and FLOPs per update equal a counted session's, with no tolerance."""

    @staticmethod
    def _assert_priced_as_charged(source: str, dims: dict, width: int,
                                  mode: str, target: str = "A",
                                  strategy: str = "INCR") -> None:
        """``target`` takes one width-``width`` update; every input is
        shaped by its declaration under ``dims``."""
        program = parse_program(source)
        rng = np.random.default_rng([9, *dims.values(), width])
        shapes = {sym.name: (resolve_dim(sym.shape.rows, dims),
                             resolve_dim(sym.shape.cols, dims))
                  for sym in program.inputs}
        inputs = {name: 0.2 * rng.standard_normal(shape) / np.sqrt(shape[1])
                  for name, shape in shapes.items()}
        ledger = Ledger()
        session = open_session(program, inputs, dims=dims,
                               plan=strategy.lower(), mode=mode, rank=width,
                               batch="off", counter=ledger)
        rows, cols = shapes[target]
        update = FactoredUpdate(target,
                                0.01 * rng.standard_normal((rows, width)),
                                rng.standard_normal((cols, width)))
        ledger.reset()
        session.apply_update(update)
        be = DenseBackend()
        calls, flops = refresh_ledger(be, program, dims, {}, rank=width,
                                      update_input=target, strategy=strategy)
        assert calls == ledger.calls_by_op
        assert flops == ledger.flops_by_op
        # The cell's refresh is that ledger plus one call overhead per
        # kernel call: in place for INCR, out of place for REEVAL.
        assert program_cost(be, strategy, program, dims, {}, rank=width,
                            update_input=target).refresh == (
            sum(flops.values()) + sum(calls.values())
            * be.est_call_overhead(inplace=strategy == "INCR"))

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_chain(self, n, width, mode):
        self._assert_priced_as_charged(CHAIN_SRC, {"n": n}, width, mode)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("family", [*ITERATIVE, "catalog_tenants"])
    def test_program_at_n_32(self, family, mode):
        source = ITERATIVE.get(family) or tenant_source(0)
        self._assert_priced_as_charged(source, {"n": 32}, 1, mode)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_ols(self, mode):
        self._assert_priced_as_charged(OLS_SOURCE, OLS_DIMS, 1, mode,
                                       target="X")

    def test_chain_polynomial(self):
        calls, flops = refresh_ledger(DenseBackend(),
                                      parse_program(CHAIN_SRC), {"n": 128},
                                      {})
        assert sum(calls.values()) == TABLE["chain"]["calls"]
        assert sum(flops.values()) == np.polyval(FLOPS_IN_N["incr"], 128)


class TestPricedReevalLedger:
    """REEVAL is priced from its own list, which both modes run: the
    predicted kernel calls and FLOPs per update are a counted REEVAL
    session's, with no tolerance."""

    check = staticmethod(TestPricedLedger._assert_priced_as_charged)

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("n", [32, 64])
    def test_chain(self, n, width, mode):
        self.check(CHAIN_SRC, {"n": n}, width, mode, strategy="REEVAL")

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("family", [*ITERATIVE, "catalog_tenants"])
    def test_program_at_n_32(self, family, mode):
        source = ITERATIVE.get(family) or tenant_source(0)
        self.check(source, {"n": 32}, 1, mode, strategy="REEVAL")

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_ols(self, mode):
        self.check(OLS_SOURCE, OLS_DIMS, 1, mode, target="X",
                   strategy="REEVAL")

    def test_chain_polynomial(self):
        calls, flops = refresh_ledger(DenseBackend(),
                                      parse_program(CHAIN_SRC), {"n": 128},
                                      {}, strategy="REEVAL")
        assert calls == TABLE["chain_reeval"]["by_kernel"]
        assert sum(flops.values()) == np.polyval(FLOPS_IN_N["reeval"], 128)
