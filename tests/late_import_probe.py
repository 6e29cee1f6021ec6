"""Which ``repro`` modules does a workload import *after* it is open?

Run by ``tests/test_import_closure.py`` in a fresh interpreter (this
process's ``sys.modules`` is the measurement), once per ``bench_e2e``
workload at smoke size, and once per configuration of
:data:`CONFIGURATIONS` — a session or driver whose optional subsystem
(deferral policy, checkpoint fault hook, catalog eviction pricing) is
imported where its use is decided, not at module level::

    python tests/late_import_probe.py zipf_write
    python tests/late_import_probe.py batch=8

Prints one JSON object; for a configuration, ``exercised`` counts what
proves its subsystem ran (flushes, folds, snapshots, evictions).
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UPDATES = 300
READ_EVERY = 8


def _workload(bench, base: str, cls=None, **options):
    """``base``'s smoke-size workload, as ``cls`` and with ``options``
    replacing its ``open_session`` arguments when given."""
    spec = bench.SPECS[base].smoke()
    w = (cls or bench.WORKLOADS[base])(spec, bench.DEFAULT_SEED)
    if options:
        w.options = options
    w.prepare()
    w.prepare_stream()
    return w


def _batched(bench, scratch):
    w = _workload(bench, "dense_small", plan="incr", batch=8)
    return w, lambda: w.session.batch_stats.flushes


def _heavy_light(bench, scratch):
    w = _workload(bench, "dense_small", plan="incr", batch="off",
                  partition="heavy-light")
    return w, lambda: w.session.partition_stats.folds


def _checkpointed(bench, scratch):
    w = _workload(bench, "dense_small", plan="incr", batch="off",
                  checkpoint={"directory": scratch, "every": 16})
    return w, lambda: w.session.checkpointer.saves


def _evicting_catalog(bench, scratch):
    class EvictingCatalog(bench.CatalogTenants):
        """``catalog_tenants`` on a catalog with room for three nodes."""

        def open(self, recorder=None):
            from repro.catalog import ViewCatalog
            from repro.runtime.session import open_session

            self.catalog = ViewCatalog(memory_budget=3 * 8 * self.n ** 2)
            self.tenants = [
                open_session(
                    self._parse(bench.workloads.tenant_source(index), recorder),
                    {"A": self.a0.copy()} if index == 0 else None,
                    dims={"n": self.n}, catalog=self.catalog)
                for index in range(bench.workloads.TENANTS)
            ]

    w = _workload(bench, "catalog_tenants", EvictingCatalog)
    return w, lambda: w.catalog.stats.evictions


def _batched_pagerank(bench, scratch):
    class BatchedPageRank(bench.SparsePageRank):
        """``sparse_pagerank`` on HYBRID behind a width-4 batcher."""

        def open(self, recorder=None):
            from repro.analytics.pagerank import IncrementalPageRank

            self.driver = IncrementalPageRank(
                self.adjacency.copy(), k=self.K, strategy="HYBRID", batch=4,
                backend="sparse")

    w = _workload(bench, "sparse_pagerank", BatchedPageRank)
    return w, lambda: w.driver._general.stats.flushes


#: Configurations beside the benchmark's own: name -> ``f(bench_e2e,
#: scratch directory)`` returning ``(workload, exercised count)``.
CONFIGURATIONS = {
    "batch=8": _batched,
    "heavy-light": _heavy_light,
    "checkpoint": _checkpointed,
    "evicting catalog": _evicting_catalog,
    "batched pagerank": _batched_pagerank,
}


def main(name: str) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from e2e import bench_e2e

    with tempfile.TemporaryDirectory() as scratch:
        if name in CONFIGURATIONS:
            w, exercised = CONFIGURATIONS[name](bench_e2e, scratch)
        else:
            w = bench_e2e.make_workload(name, bench_e2e.DEFAULT_SEED,
                                        smoke=True)
            exercised = None
        try:
            w.open()
            opened = set(sys.modules)
            op, read = w.op(), w.read()
            for index in range(UPDATES):
                op(index)
                if index % READ_EVERY == READ_EVERY - 1:
                    read(index)
            w.drain()
            late = sorted(module for module in set(sys.modules) - opened
                          if module.split(".")[0] == "repro")
            session = getattr(w, "session", None)
            replans = (getattr(session, "refreshes", 0)
                       // getattr(session, "check_every", 1))
            count = exercised() if exercised is not None else None
        finally:
            w.close()
    print(json.dumps({"late": late, "replans": replans, "exercised": count,
                      "loaded": sum(module.split(".")[0] == "repro"
                                    for module in opened)}))


if __name__ == "__main__":
    main(sys.argv[1])
