"""Exact per-update counts of the reference workloads' programs.

Counts are exact, so this file holds them as a committed table with no
tolerance: a change that moves a number changes :data:`TABLE`, and
says why.  Each kernel the lowered list names counts once — a kernel
that delegates to another (``add_outer_inplace`` to ``add_outer``) is
one call, as in the end-to-end tracer's ``backend.kernel_calls_per_update``.

* the chain ``B := A*A; C := B*B`` (``dense_small`` / ``dense_chain``):
  backend kernel calls per update, in both execution modes, and at
  ``dense_chain``'s own configuration (n = 512, codegen) its calls and
  FLOPs per update;
* ``served``'s session behind its ``ViewServer``: the same calls and
  FLOPs per submitted update, and one capture per published epoch;
* the ``catalog_tenants`` family on one :class:`~repro.catalog.ViewCatalog`:
  kernel calls and DAG-node refreshes per update, and its set-up —
  registration stores the input and evaluates each new node and
  compiles nothing, and the first update compiles the merged program
  once, however many tenants registered;
* a catalog's demand read of an evicted node: its kernel calls and the
  FLOPs it is charged (``CatalogNode.demand_flops``), which are its
  ledger's, with no tolerance — for the chain top and for a non-square
  Gram product — and a read that re-admits the node evaluates it once;
  its refresh price is its marginal share of the chain's refresh
  (:func:`~repro.planner.programcost.marginal_refresh`), and the shares
  plus the input's own apply are the whole refresh;
* the chain on two row-shard nodes (``sharded_chain``: the coordinator
  as node 0 and one worker): messages and bytes per update in the
  engine's modeled ledger (``engine.model``), which prices only what
  crosses to and from the remote node; the real open's measured traffic
  (``engine.comm``: one ``attach`` roundtrip carrying every segment);
  and a supervised recovery's, which re-attaches every view in one
  message;
* ``sparse_pagerank``'s driver: the cells its planner prices and the
  plan it resolves;
* the FLOP ledger (:func:`~repro.cost.counters.counted`, keyed by
  kernel) of the chain in both modes, of REEVAL on it, of
  ``make_powers("INCR")`` running the same algebra and of
  ``IncrementalExpm`` — with the chain's per-update FLOPs as exact
  polynomials in ``n``;
* the iterative families (``make_powers`` / ``make_sums`` /
  ``make_general``, a session on each family's Table 1 program) under
  REEVAL, INCR and HYBRID: calls and FLOPs per refresh for every family
  and model at n = 64, never above the deleted hand-written
  maintainers' (also committed), and values equal to a plain NumPy
  recurrence (bitwise for REEVAL on dense);
* the Section 5.1 OLS program (:func:`~repro.analytics.make_ols`):
  its FLOP ledger per row update under INCR in both modes and under
  REEVAL;
* the bytes REEVAL allocates per update, in both modes: its list runs
  on leased buffers, so only what no buffer holds (``inv``'s result)
  is allocated;
* the planner's INCR, HYBRID and REEVAL prices read off the same lists
  (:func:`~repro.planner.programcost.refresh_ledger`): on the dense
  backend its predicted calls and FLOPs per update are the ledger's;
* the sharded cell's price read off the same trigger list
  (:func:`~repro.planner.programcost.refresh_traffic`): its predicted
  roundtrips, messages and bytes per update are the engine's op count
  and modeled ledger.
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
from repro.distributed import (
    BROADCAST,
    LocalShardEngine,
    RowShardPartitioner,
    ShardBackend,
)
from repro.distributed.sharded import unshardable
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.planner.programcost import (
    marginal_refresh,
    program_cost,
    refresh_ledger,
    refresh_traffic,
)
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
    # Registering the eight tenants: the input's one stored copy, then
    # the ten new nodes' evaluation (A*A, B*B, and c*C + A per tenant);
    # the merged program compiles at the first update, once.
    "catalog_setup": {"calls": 19,
                      "by_kernel": {"materialize": 1, "matmul_into": 2,
                                    "scale_into": 8, "add_into": 8},
                      "compiles": 0, "first_update_compiles": 1},
    # An evicted read of the chain top at n = 64 under a one-node budget:
    # one B*B product (2 n^3), and the Gram product X'X of a 400 x 40 X
    # (2 * 40 * 400 * 40), each charged what its kernels count.  Keeping
    # the chain top maintained costs its share of the chain's INCR
    # refresh: 26 n^2 + 23 n less B's share and A's own apply (2 n^2).
    "catalog_demand": {"n": 64, "by_kernel": {"matmul_into": 1},
                       "flops": 524_288, "gram_flops": 1_280_000,
                       "refresh": 66_688},
    "sharded_chain": {"messages": 11, "bytes": 372_736, "roundtrips": 7,
                      # ``open_session`` on two real nodes: one attach
                      # out (67 pickled bytes: the three views' names
                      # and shapes, plus the one-byte carrier of their
                      # segments' descriptors), one 29-byte reply back,
                      # measured in ``engine.comm``.
                      "open": {"roundtrips": 1, "messages": 2,
                               "bytes": 97}},
    # n = 512: 26 n^2 + 23 n FLOPs (FLOPS_IN_N) in the chain's 17 calls.
    "dense_chain": {"n": 512, "calls": 17, "flops": 6_827_520},
    # The same session behind a ViewServer: every publish captures the
    # one served view, C.
    "served": {"calls": 17, "flops": 6_827_520, "captures_per_epoch": 1},
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

#: ``make_*("REEVAL")`` per rank-1 refresh at n = 64, k = 16, p = 1 (the
#: iterates' width): ``family-model -> (calls, FLOPs)`` of the REEVAL
#: session on the family's Table 1 program, then of the hand-written
#: REEVAL maintainers it replaced, recorded before their deletion.
#: Powers and linear general cells are equal.  The session is cheaper by
#: one ``A * I`` product wherever a sum starts (``S_2 = A + I``: sums,
#: and general with B under EXP / SKIP), by one apply to a second copy
#: of ``A`` in general under EXP / SKIP, and under SKIP-4 with B by the
#: two ``S_4 * B`` products that repeat T_8's (merged).
REEVAL_FAMILIES = {
    "powers-LIN": ((16, 7_872_512), (16, 7_872_512)),
    "powers-EXP": ((5, 2_105_344), (5, 2_105_344)),
    "powers-SKIP-4": ((6, 2_629_632), (6, 2_629_632)),
    "sums-LIN": ((30, 7_409_664), (31, 7_933_952)),
    "sums-EXP": ((11, 3_170_304), (12, 3_694_592)),
    "sums-SKIP-4": ((12, 3_174_400), (13, 3_698_688)),
    "general-B-LIN": ((33, 140_288), (33, 140_288)),
    "general-B-EXP": ((22, 2_707_776), (24, 3_240_256)),
    "general-B-SKIP-4": ((20, 1_655_168), (24, 2_204_032)),
    "general-noB-LIN": ((17, 139_264), (17, 139_264)),
    "general-noB-EXP": ((9, 1_622_016), (10, 1_630_208)),
    "general-noB-SKIP-4": ((9, 1_105_920), (10, 1_114_112)),
}

#: The iterative families' INCR at n = 64, k = 16, rank 1 (p = 1):
#: ``family-model -> (calls, FLOPs)`` of the INCR session on the
#: family's Table 1 program, then of the hand-written maintainer it
#: replaced (``IncrementalPowers`` / ``IncrementalPowerSums`` /
#: ``IncrementalGeneral``), recorded before its deletion.  Powers, and
#: general without a sum view, are equal.  Where a sum view is read the
#: session is cheaper: ``S_2 = A + I`` has no ``A * S_1`` product, and
#: a shared right factor folds (``FactoredDelta.plus``) where the
#: maintainer stacked one block per summand.
INCR_FAMILIES = {
    "powers-LIN": ((121, 2_258_432), (121, 2_258_432)),
    "powers-EXP": ((33, 522_432), (33, 522_432)),
    "powers-SKIP-4": ((41, 723_904), (41, 723_904)),
    "sums-LIN": ((114, 1_999_680), (115, 2_007_872)),
    "sums-EXP": ((53, 680_512), (56, 688_704)),
    "sums-SKIP-4": ((52, 831_232), (55, 839_424)),
    "general-B-LIN": ((123, 1_049_088), (123, 1_049_088)),
    "general-B-EXP": ((81, 625_088), (84, 633_280)),
    "general-B-SKIP-4": ((71, 536_960), (76, 545_920)),
    "general-noB-LIN": ((123, 1_049_088), (123, 1_049_088)),
    "general-noB-EXP": ((59, 395_008), (59, 395_008)),
    "general-noB-SKIP-4": ((59, 364_288), (59, 364_288)),
}

#: HYBRID, the general form's cells at n = 64, k = 16, p = 1: the
#: HYBRID session (the INCR list with each ``T_i``'s delta dense) and
#: the deleted ``HybridGeneral``.  With ``B`` under EXP / SKIP-4 the
#: session is cheaper by the same ``S_h`` deltas as INCR.
HYBRID_FAMILIES = {
    "general-B-LIN": ((124, 141_952), (124, 141_952)),
    "general-B-EXP": ((88, 464_064), (91, 472_256)),
    "general-B-SKIP-4": ((78, 217_152), (85, 226_880)),
    "general-noB-LIN": ((124, 141_952), (124, 141_952)),
    "general-noB-EXP": ((60, 284_928), (60, 284_928)),
    "general-noB-SKIP-4": ((60, 157_888), (60, 157_888)),
}

#: ``IncrementalExpm`` at order 6, n = 64, per rank-1 refresh: the INCR
#: session on its weighted-sum program — the six power repairs
#: (340,672), ``W``'s apply (172,032) and the five non-unit coefficient
#: scales (1,280) — then the deleted class's charge, which left the
#: ``W`` repair uncounted.
EXPM_ROW = ((49, 513_984), (41, 340_672))

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


class TestDenseChain:
    """``dense_chain``'s and ``served``'s configuration at their n."""

    N = TABLE["dense_chain"]["n"]
    OPTIONS = {"plan": "incr", "mode": "codegen", "batch": "off",
               "partition": "uniform"}

    def _open(self, **options):
        backend, ledger = CountingBackend(), Ledger()
        session = open_session(parse_program(CHAIN_SRC),
                               {"A": _input(self.N)}, dims={"n": self.N},
                               backend=backend, counter=ledger,
                               **self.OPTIONS, **options)
        backend.calls.clear()
        ledger.reset()
        return session, backend, ledger

    def test_calls_and_flops_per_update(self):
        session, backend, ledger = self._open()
        row = TABLE["dense_chain"]
        for calls, flops, nbytes in _ledgers(ledger, session.apply_update,
                                             _updates(self.N)):
            assert calls == TABLE["chain"]["by_kernel"]
            assert sum(calls.values()) == row["calls"]
            assert sum(flops.values()) == row["flops"]
            assert nbytes == 0
        assert row["flops"] == np.polyval(FLOPS_IN_N["incr"], self.N)

    def test_served_session(self):
        server, backend, ledger = self._open(
            serve={"views": ("C",), "max_staleness": 8, "max_queue": 64,
                   "overload": "block"})
        row = TABLE["served"]
        epochs = server.stats.epochs
        updates = _updates(self.N, 16)
        try:
            for update in updates:
                server.submit(update)
            server.refresh()
        finally:
            server.close()
        captures = backend.calls.count("materialize")
        assert Counter(backend.calls) - Counter(materialize=captures) == {
            kernel: count * len(updates)
            for kernel, count in TABLE["chain"]["by_kernel"].items()}
        assert sum(ledger.calls_by_op.values()) == row["calls"] * len(updates)
        assert ledger.total_flops == row["flops"] * len(updates)
        assert captures == (row["captures_per_epoch"]
                            * (server.stats.epochs - epochs))


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

    @staticmethod
    def _count_compiles(monkeypatch) -> list:
        import repro.compiler.compile as compile_mod

        compiles, real = [], compile_mod._compile_for_input
        monkeypatch.setattr(
            compile_mod, "_compile_for_input",
            lambda *args, **kwargs: (compiles.append(args[0]),
                                     real(*args, **kwargs))[1])
        return compiles

    def _register(self, catalog, tenants):
        for index in range(tenants):
            open_session(parse_program(tenant_source(index)),
                         {"A": _input(self.N)} if index == 0 else None,
                         dims={"n": self.N}, catalog=catalog)

    def test_registration_evaluates_and_the_first_update_compiles(
            self, monkeypatch):
        """Registration settles the store — the input's copy and each new
        node's evaluation, nothing else — and builds no session."""
        from repro.runtime.executor import evaluate

        row = TABLE["catalog_setup"]
        compiles = self._count_compiles(monkeypatch)
        backend = CountingBackend()
        catalog = ViewCatalog(backend=backend)
        self._register(catalog, TENANTS)
        assert len(compiles) == row["compiles"]
        assert len(backend.calls) == row["calls"]
        assert Counter(backend.calls) == row["by_kernel"]
        alone, env = CountingBackend(), {"A": _input(self.N)}
        for name in catalog._order:
            env[name] = evaluate(catalog.nodes[name].expr, env,
                                 dims={"n": self.N}, backend=alone)
        assert backend.calls == ["materialize", *alone.calls]

        backend.calls.clear()
        catalog.apply_update(_updates(self.N, 1)[0])
        assert len(compiles) == row["first_update_compiles"]
        assert len(backend.calls) == TABLE["catalog_tenants"]["calls"]

    def test_registration_is_linear_in_tenants(self, monkeypatch):
        """Thirty-two registrations and one update compile one merged
        program, not one per registration."""
        compiles = self._count_compiles(monkeypatch)
        catalog = ViewCatalog()
        self._register(catalog, 32)
        catalog.apply_update(_updates(self.N, 1)[0])
        assert len(compiles) == 1
        assert len(compiles[0].statements) == 2 + 32


class TestCatalogDemand:
    """An evicted read is charged its own ledger."""

    N = TABLE["catalog_demand"]["n"]

    def _chain(self):
        ledger = Ledger()
        catalog = ViewCatalog(memory_budget=self.N * self.N * 8,
                              counter=ledger)
        catalog.open(parse_program(CHAIN_SRC), {"A": _input(self.N)},
                     dims={"n": self.N})
        top = catalog.nodes[catalog._order[-1]]
        assert not top.admitted  # room for B only
        return catalog, top, ledger

    def test_an_evicted_read_of_the_chain_top(self):
        row = TABLE["catalog_demand"]
        catalog, top, ledger = self._chain()
        ledger.reset()
        catalog.read(top.name)
        assert ledger.calls_by_op == row["by_kernel"]
        assert ledger.flops_by_op == {"matmul_into": row["flops"]}
        assert top.demand_flops == ledger.total_flops == row["flops"]

    def test_an_evicted_gram_product(self):
        ledger = Ledger()
        catalog = ViewCatalog(memory_budget=0, counter=ledger)
        catalog.open(parse_program("input X(m, k); Z := X' * X; output Z;"),
                     {"X": np.random.default_rng(3).standard_normal((400, 40))},
                     dims={"m": 400, "k": 40})
        (node,) = catalog.nodes.values()
        assert not node.admitted
        ledger.reset()
        catalog.read(node.name)
        assert node.demand_flops == ledger.total_flops
        assert ledger.total_flops == TABLE["catalog_demand"]["gram_flops"]

    def test_a_readmitting_read_evaluates_once(self, monkeypatch):
        """The read that prices the chain top back in pins its on-demand
        value, so settling the store does not evaluate the node again."""
        import repro.catalog as catalog_mod

        evaluations, real = [], catalog_mod.evaluate
        monkeypatch.setattr(
            catalog_mod, "evaluate",
            lambda *args, **kwargs: (evaluations.append(args[0]),
                                     real(*args, **kwargs))[1])
        catalog, top, ledger = self._chain()
        for update in _updates(self.N, 8):
            catalog.apply_update(update)
            evaluations.clear()
            ledger.reset()
            value = catalog.read(top.name)
            if top.admitted:
                break
        assert catalog.stats.readmissions == 1
        assert (top.demand_price, top.refresh_price) == (
            TABLE["catalog_demand"]["flops"], TABLE["catalog_demand"]["refresh"])
        assert len(evaluations) == 1
        assert ledger.total_flops == TABLE["catalog_demand"]["flops"]
        pinned = catalog._store.get(top.name)
        assert pinned is not value
        np.testing.assert_array_equal(pinned, value)


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

    def test_the_open_is_one_attach_roundtrip(self):
        """Every view sits in its segment before the fence, and one
        message maps them all on the worker."""
        session = open_session(
            parse_program(CHAIN_SRC), {"A": _input(self.N)},
            dims={"n": self.N}, plan="incr", nodes=(2,), batch="off",
            partition="uniform")
        try:
            assert isinstance(session, ShardedSession)
            comm = session.engine.comm
            assert {event.label for event in comm.events} == {"attach"}
            assert {
                "roundtrips": comm.messages_by_kind()[BROADCAST],
                "messages": comm.total_messages,
                "bytes": comm.total_bytes,
            } == TABLE["sharded_chain"]["open"]
        finally:
            session.close()

    def test_a_recovery_reattaches_every_view_in_one_message(self):
        """A respawned worker gets one ``attach`` for all three views,
        then the oplog's refreshes and the retried op: nothing else
        crosses, and the views end bitwise where an unfailed run's do."""
        n, updates = 64, _updates(64, 4)
        program = parse_program(CHAIN_SRC)
        plan = MaintenancePlan("INCR", nodes=2)
        with build_session(program, {"A": _input(n)}, plan,
                           backend=ShardBackend(LocalShardEngine(
                               RowShardPartitioner(n, 2)))) as unfailed, \
                build_session(program, {"A": _input(n)}, plan,
                              supervise=True) as session:
            for index, update in enumerate(updates):
                if index == 2:
                    session.engine.cluster.kill_worker(1)
                session.apply_update(update)
                unfailed.apply_update(update)
            event, = session.recoveries
            recover, = [entry for entry in session.engine.comm.events
                        if entry.label == "recover"]
            assert event.restored_views == 3
            assert recover.messages == 1 + event.replayed + 1
            for name in ("A", "B", "C"):
                assert np.array_equal(session[name], unfailed[name]), name


#: The families a shard engine can maintain.
SHARDABLE = {name: source for name, source in ITERATIVE.items()
             if unshardable(parse_program(source)) is None}


class TestPricedTraffic:
    """The planner prices the sharded cell from the list it runs: its
    predicted roundtrips, messages and bytes per update are the engine's
    op count and ``engine.model`` totals, with no tolerance."""

    @staticmethod
    def _assert_priced_as_logged(source: str, n: int, nodes: int,
                                 width: int, target: str = "A") -> tuple:
        program = parse_program(source)
        rng = np.random.default_rng([10, n, nodes, width])
        inputs = {name: 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
                  for name in program.input_names}
        engine = LocalShardEngine(RowShardPartitioner(n, nodes))
        ops, run = [], engine._run

        def counted_run(op):
            ops.append(op[0])
            return run(op)

        engine._run = counted_run
        session = build_session(
            program, inputs, MaintenancePlan("INCR", nodes=nodes, rank=width),
            dims={"n": n}, backend=ShardBackend(engine))
        engine.model.reset()
        ops.clear()
        session.apply_update(FactoredUpdate(
            target, 0.01 * rng.standard_normal((n, width)),
            rng.standard_normal((n, width))))
        session.close()
        priced = refresh_traffic(DenseBackend(), program, {"n": n}, nodes,
                                 rank=width, update_input=target)
        assert priced == (len(ops), engine.model.total_messages,
                          engine.model.total_bytes)
        return priced

    def test_sharded_chain_row(self):
        row = TABLE["sharded_chain"]
        assert self._assert_priced_as_logged(CHAIN_SRC, 1024, 2, 1) == (
            row["roundtrips"], row["messages"], row["bytes"])

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("nodes", [2, 4])
    def test_chain(self, nodes, width):
        self._assert_priced_as_logged(CHAIN_SRC, 200, nodes, width)

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("nodes", [2, 4])
    @pytest.mark.parametrize("family", SHARDABLE)
    def test_program(self, family, nodes, width):
        program = parse_program(SHARDABLE[family])
        for target in program.input_names:
            self._assert_priced_as_logged(SHARDABLE[family], 200, nodes,
                                          width, target)


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
        """``make_powers("INCR")`` is a session on the family's program:
        the same kernel calls, and the same FLOPs, per refresh as one
        opened on the program written by hand."""
        from repro.iterative import Model, make_powers

        updates = _updates(self.N)
        maintained, opened = Ledger(), Ledger()
        maintainer = make_powers("INCR", _input(self.N), 4, Model.exponential(),
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

    def test_expm_charges_every_kernel_it_runs(self):
        """``IncrementalExpm`` charges its whole refresh: every kernel
        call the backend runs is on the ledger, whose FLOPs are the
        priced list's."""
        from repro.analytics.expm import IncrementalExpm, weighted_program

        n, ledger, backend = 64, Ledger(), CountingBackend()
        driver = IncrementalExpm(_input(n), order=6, counter=ledger,
                                 backend=backend)
        (calls, flops), (old_calls, old_flops) = EXPM_ROW
        for update in _updates(n, 2):
            ledger.reset()
            backend.calls.clear()
            driver.refresh(update.u_block, update.v_block)
            assert sum(ledger.calls_by_op.values()) == len(backend.calls) == calls
            assert ledger.total_flops == flops
        _, priced = refresh_ledger(DenseBackend(),
                                   parse_program(weighted_program(driver.coeffs)),
                                   {"n": n}, {})
        assert sum(priced.values()) == flops
        assert calls > old_calls and flops > old_flops


def _family(cell: str, a, rng, mode: str = "interpret",
            counter=NULL_COUNTER, backend=None, strategy: str = "REEVAL"):
    """``make_*(strategy)`` for a :data:`REEVAL_FAMILIES` cell at k = 16,
    its ``B`` and ``T0`` (p = 1) drawn from ``rng``."""
    from repro.iterative import make_general, make_powers, make_sums
    from repro.iterative.strategies import parse_model

    family, _, label = cell.partition("-")
    if family == "general":
        with_b, _, label = label.partition("-")
    model = parse_model(label)
    plan = MaintenancePlan(strategy, mode=mode, model=model.kind, s=model.s)
    b, t0 = rng.standard_normal((2, a.shape[0], 1))
    if family == "general":
        return make_general(plan, a, b if with_b == "B" else None, t0, 16,
                            counter=counter, backend=backend), b, t0
    make = make_powers if family == "powers" else make_sums
    return make(plan, a, 16, counter=counter, backend=backend), b, t0


def _recurrence(cell: str, a, b, t0, k: int = 16):
    """The cell's ``P_k`` / ``S_k`` / ``T_k`` by plain NumPy, straight
    from the model's schedule (Table 1; ``P_1 = A``, ``S_1 = I``)."""
    from repro.iterative.strategies import parse_model

    family, _, label = cell.partition("-")
    if family == "general":
        with_b, _, label = label.partition("-")
    model = parse_model(label)
    eye = np.eye(len(a))
    powers, sums = {1: a}, {1: eye, 2: a + eye}
    for i in model.schedule(k)[1:]:
        j = model.predecessor(i)
        powers[i] = powers[i - j] @ powers[j]
        if i > 2:
            sums[i] = (a @ sums[i - 1] + eye if model.kind == "linear"
                       else powers[i - j] @ sums[j] + sums[i - j])
    if family != "general":
        return (powers if family == "powers" else sums)[k]
    iterates = {0: t0}
    for i in model.schedule(k):
        j = i - 1 if i == 1 or model.kind == "linear" else model.predecessor(i)
        step = powers[i - j] @ iterates[j]
        if with_b == "B":
            step = step + (b if i - j == 1 else sums[i - j] @ b)
        iterates[i] = step
    return iterates[k]


class TestReevalFamilies:
    """The iterative families' REEVAL is the REEVAL session on their
    Table 1 programs: its calls and FLOPs per refresh are committed
    rows, never above the hand-written maintainers' it replaced, and
    its values are a plain NumPy recurrence's."""

    N = 64

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("cell", list(REEVAL_FAMILIES))
    def test_calls_and_flops_per_refresh(self, cell, mode):
        rng = np.random.default_rng(7)
        ledger = Ledger()
        maintainer, _, _ = _family(cell, 0.2 * _input(self.N), rng,
                                          mode, ledger)
        (calls, flops), (old_calls, old_flops) = REEVAL_FAMILIES[cell]
        for update in _updates(self.N, 2):
            ledger.reset()
            maintainer.refresh(update.u_block, update.v_block)
            assert sum(ledger.calls_by_op.values()) == calls
            assert ledger.total_flops == flops
        assert calls <= old_calls and flops <= old_flops

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("cell", list(REEVAL_FAMILIES))
    def test_values_are_the_numpy_recurrence(self, cell, backend):
        """Bitwise on dense (the same products in the same order);
        allclose on sparse, whose CSR products sum in another order."""
        if backend == "sparse":
            pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        n = self.N
        a = (rng.random((n, n)) < 0.05) * rng.standard_normal((n, n))
        maintainer, b, t0 = _family(cell, a, rng, backend=backend)
        for update in _updates(n, 3):
            maintainer.refresh(update.u_block, update.v_block)
            a = a + update.u_block @ update.v_block.T
            got = maintainer.result()
            got = got.toarray() if hasattr(got, "toarray") else got
            want = _recurrence(cell, a, b, t0)
            if backend == "dense":
                assert np.array_equal(got, want), cell
            else:
                np.testing.assert_allclose(got, want, rtol=1e-10,
                                           atol=1e-12 * np.abs(want).max())


class TestSessionFamilies:
    """The iterative families' INCR and HYBRID are sessions on their
    Table 1 programs: calls and FLOPs per refresh are committed rows,
    never above the hand-written maintainers' they replaced, and the
    values are a plain NumPy recurrence's."""

    N = 64
    CELLS = [("INCR", cell) for cell in INCR_FAMILIES] + [
        ("HYBRID", cell) for cell in HYBRID_FAMILIES]

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("strategy,cell", CELLS)
    def test_calls_and_flops_per_refresh(self, strategy, cell, mode):
        rng = np.random.default_rng(7)
        ledger = Ledger()
        maintainer, _, _ = _family(cell, 0.2 * _input(self.N), rng, mode,
                                   ledger, strategy=strategy)
        rows = INCR_FAMILIES if strategy == "INCR" else HYBRID_FAMILIES
        (calls, flops), (old_calls, old_flops) = rows[cell]
        for update in _updates(self.N, 2):
            ledger.reset()
            maintainer.refresh(update.u_block, update.v_block)
            assert sum(ledger.calls_by_op.values()) == calls
            assert ledger.total_flops == flops
        assert calls <= old_calls and flops <= old_flops

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    @pytest.mark.parametrize("strategy,cell", CELLS)
    def test_values_are_the_numpy_recurrence(self, strategy, cell, backend):
        if backend == "sparse":
            pytest.importorskip("scipy")
        rng = np.random.default_rng(11)
        n = self.N
        a = (rng.random((n, n)) < 0.05) * rng.standard_normal((n, n))
        maintainer, b, t0 = _family(cell, a, rng, backend=backend,
                                    strategy=strategy)
        for update in _updates(n, 3):
            maintainer.refresh(update.u_block, update.v_block)
            a = a + update.u_block @ update.v_block.T
        got = maintainer.result()
        got = got.toarray() if hasattr(got, "toarray") else got
        want = _recurrence(cell, a, b, t0)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-12 * np.abs(want).max())


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
                               plan=MaintenancePlan(strategy, mode=mode,
                                                    rank=width),
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
        # kernel call: in place for INCR and HYBRID, out of place for
        # REEVAL.
        assert program_cost(be, strategy, program, dims, {}, rank=width,
                            update_input=target).refresh == (
            sum(flops.values()) + sum(calls.values())
            * be.est_call_overhead(inplace=strategy != "REEVAL"))

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

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("p", [1, 8])
    @pytest.mark.parametrize("cell", list(HYBRID_FAMILIES))
    def test_hybrid_general(self, cell, p, mode):
        """HYBRID is priced from its own list: each ``T_i``'s dense
        delta, applied by a sum.  With ``B``, an update to ``B`` too."""
        from repro.iterative import program
        from repro.iterative.strategies import parse_model

        _, with_b, label = cell.split("-", 2)
        source = program("general", parse_model(label), 16, with_b == "B")
        for target in ("A", "B")[:1 + (with_b == "B")]:
            self._assert_priced_as_charged(source, {"n": 32, "p": p}, 1, mode,
                                           target=target, strategy="HYBRID")

    def test_chain_polynomial(self):
        calls, flops = refresh_ledger(DenseBackend(),
                                      parse_program(CHAIN_SRC), {"n": 128},
                                      {})
        assert sum(calls.values()) == TABLE["chain"]["calls"]
        assert sum(flops.values()) == np.polyval(FLOPS_IN_N["incr"], 128)

    @pytest.mark.parametrize("strategy", ["INCR", "REEVAL"])
    def test_statement_shares_add_up_to_the_refresh(self, strategy):
        """Each statement's marginal share, priced as the last statement
        of its ancestry, plus the input's own apply is the refresh."""
        n = TABLE["catalog_demand"]["n"]
        be, dims = DenseBackend(), {"n": n}
        chain = parse_program(CHAIN_SRC)
        first = parse_program("input A(n, n); B := A * A; output B;")
        shares = [marginal_refresh(be, program, dims, {}, strategy=strategy)
                  for program in (first, chain)]
        _, flops = refresh_ledger(be, chain, dims, {}, strategy=strategy)
        assert sum(shares) + 2 * n * n == sum(flops.values())
        if strategy == "INCR":
            assert shares[1] == TABLE["catalog_demand"]["refresh"]


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
