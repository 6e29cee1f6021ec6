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
* the chain on two row-shard workers (``sharded_chain``): messages and
  bytes per update in the engine's modeled ledger (``engine.model``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.backends.dense import DenseBackend
from repro.catalog import ViewCatalog
from repro.distributed import LocalShardEngine, RowShardPartitioner, ShardBackend
from repro.frontend import parse_program
from repro.planner import MaintenancePlan
from repro.runtime import FactoredUpdate, ShardedSession
from repro.runtime.session import build_session, open_session

CHAIN_SRC = "input A(n, n); B := A * A; C := B * B; output C;"
TENANTS = 8

#: The committed table.
TABLE = {
    "chain": {"calls": 17, "by_kernel": {"matmul_into": 8, "hstack_into": 4,
                                         "add_into": 2,
                                         "add_outer_inplace": 3}},
    "catalog_tenants": {"calls": 42, "node_refreshes": 10},
    "sharded_chain": {"messages": 22, "bytes": 745_472},
}

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
            source = (f"input A(n, n); B := A * A; C := B * B; "
                      f"P := {float(index + 2):g} * C + A; output P;")
            open_session(parse_program(source),
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
