"""Ablation — hybrid (row + column) data partitioning (Section 6).

"Linview partitions large matrices both horizontally and vertically
... Although such a hybrid partitioning strategy doubles the memory
consumption, it allows the system to avoid expensive reshuffling of
large matrices."  The incremental trigger needs *both* product
orientations per level (``P U`` and ``P' V``).  Under the row-only
layout that ships, ``P' V`` gathers one ``(n, k)`` partial per row tile
(``n_tiles x`` the thin result); a node that also held a block of
columns would gather the thin result once.

The row-only arm is the ledger the in-process row-shard engine records
for one INCR refresh of ``A^16``.  The hybrid arm re-prices each of its
``P' V`` gathers as one thin gather of ``n k 8`` bytes, at a memory
price of one more ``n x n`` copy per view.
"""

from conftest import POWERS_16, local_shard_session, make_matrix, row_update
from repro.distributed import GATHER
from repro.runtime import FactoredUpdate

N = 240
NODES = 16


def _incr_powers():
    """INCR ``A^16`` over ``NODES`` row tiles, initial build excluded."""
    return local_shard_session(POWERS_16, make_matrix(N), NODES)


def test_partitioning_refresh(benchmark):
    session = _incr_powers()
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        session.apply_update(FactoredUpdate("A", *row_update(N, state["seed"])))

    benchmark.pedantic(call, rounds=3, iterations=1, warmup_rounds=1)
    session.close()


def test_report_ablation_partition(capsys, bench_record):
    session = _incr_powers()
    session.apply_update(FactoredUpdate("A", *row_update(N, seed=3)))
    ledger, tiles = session.engine.model, session.engine.part.n_tiles
    session.close()

    column_gathers = [event.nbytes for event in ledger.events
                      if event.kind == GATHER and event.label == "matT_lowrank"]
    row_only_gather = sum(column_gathers)
    hybrid_gather = sum(nbytes // tiles for nbytes in column_gathers)
    row_only = ledger.total_bytes
    hybrid_bytes = row_only - row_only_gather + hybrid_gather
    extra_mem = N * N * 8

    with capsys.disabled():
        print(f"\n== Ablation: hybrid partitioning "
              f"(A^16 INCR refresh, n={N}, {NODES} workers, {tiles} row tiles) ==")
        print(f"  column-orientation traffic, hybrid:   "
              f"{hybrid_gather:>12,} bytes (thin gather)")
        print(f"  column-orientation traffic, row-only: "
              f"{row_only_gather:>12,} bytes (one partial per row tile)")
        print(f"  total refresh traffic: {hybrid_bytes:,} (hybrid) vs "
              f"{row_only:,} (row-only), {row_only / hybrid_bytes:.2f}x")
        print(f"  memory cost of hybrid: {extra_mem:,} bytes "
              f"(one extra replica of A) per view")
    bench_record({"hybrid_bytes": hybrid_bytes, "row_only_bytes": row_only,
                  "hybrid_gather_bytes": hybrid_gather,
                  "row_only_gather_bytes": row_only_gather,
                  "hybrid_extra_memory_bytes": extra_mem},
                 n=N, nodes=NODES)

    # The Section 6 trade: the column-orientation traffic shrinks by
    # exactly the tile count (thin gather vs one partial per row tile);
    # total refresh traffic shrinks by a diluted but real factor
    # (broadcasts are orientation-independent).
    assert row_only_gather == hybrid_gather * tiles
    assert hybrid_bytes < row_only

    # An INCR refresh never shuffles; it broadcasts factors and gathers
    # thin partials.
    kinds = ledger.bytes_by_kind()
    assert kinds["shuffle"] == 0
    assert kinds["broadcast"] > 0
    assert kinds["gather"] > 0
