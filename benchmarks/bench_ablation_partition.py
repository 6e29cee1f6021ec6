"""Ablation — hybrid (row + column) data partitioning (Section 6).

"Linview partitions large matrices both horizontally and vertically
... Although such a hybrid partitioning strategy doubles the memory
consumption, it allows the system to avoid expensive reshuffling of
large matrices."  The incremental trigger needs *both* product
orientations per level (``P U`` and ``P' V``); with row-only
partitioning the ``P' V`` orientation becomes an all-reduce of
per-worker partials (``workers x`` the gather traffic), while hybrid
partitioning keeps it a thin gather.

The arms replay the comm ledger of one INCR refresh of ``A^16``:
hybrid traffic is measured; the row-only cost is derived by re-pricing
every column-orientation gather at the all-reduce volume.
"""


from conftest import make_matrix, row_update
from repro.distributed import (
    GATHER,
    Cluster,
    ClusterConfig,
    SimulatedBackend,
    hybrid_extra_bytes,
)
from repro.iterative import Model, make_powers

N = 240
K = 16
GRID = 4


def _incr_powers():
    """INCR ``A^16`` on the simulator, initial build excluded."""
    cluster = Cluster(config=ClusterConfig.laptop_scale(GRID))
    maintainer = make_powers("INCR", make_matrix(N), K, Model.exponential(),
                             backend=SimulatedBackend(cluster))
    cluster.reset()
    return maintainer, cluster


def _refresh_ledger():
    """Comm events for one INCR refresh."""
    maintainer, cluster = _incr_powers()
    u, v = row_update(N, seed=3)
    maintainer.refresh(u, v)
    return cluster


def _row_only_bytes(cluster) -> int:
    """Total traffic if column-orientation gathers were all-reduces."""
    workers = cluster.config.grid ** 2
    total = 0
    for event in cluster.comm.events:
        if event.kind == GATHER:
            # Row-only: every worker holds a partial (n x k) sum that
            # must be combined — `workers` times the hybrid gather.
            total += event.nbytes * workers
        else:
            total += event.nbytes
    return total


def test_partitioning_refresh(benchmark):
    maintainer, _ = _incr_powers()
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        u, v = row_update(N, state["seed"])
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=3, iterations=1, warmup_rounds=1)


def test_report_ablation_partition(benchmark, capsys, bench_record):
    assert hybrid_extra_bytes(N, N) == N * N * 8

    cluster = _refresh_ledger()
    workers = GRID * GRID
    hybrid_bytes = cluster.comm.total_bytes
    row_only = _row_only_bytes(cluster)
    hybrid_gather = cluster.comm.gathered_bytes
    row_only_gather = hybrid_gather * workers
    extra_mem = hybrid_extra_bytes(N, N)

    with capsys.disabled():
        print(f"\n== Ablation: hybrid partitioning "
              f"(A^{K} INCR refresh, n={N}, grid {GRID}x{GRID}) ==")
        print(f"  column-orientation traffic, hybrid:   "
              f"{hybrid_gather:>12,} bytes (thin gather)")
        print(f"  column-orientation traffic, row-only: "
              f"{row_only_gather:>12,} bytes (all-reduce of partials)")
        print(f"  total refresh traffic: {hybrid_bytes:,} (hybrid) vs "
              f"{row_only:,} (row-only), {row_only / hybrid_bytes:.2f}x")
        print(f"  memory cost of hybrid: {extra_mem:,} bytes "
              f"(one extra replica of A) per view")
    bench_record({"hybrid_bytes": hybrid_bytes, "row_only_bytes": row_only,
                  "hybrid_gather_bytes": hybrid_gather,
                  "row_only_gather_bytes": row_only_gather,
                  "hybrid_extra_memory_bytes": extra_mem},
                 n=N, grid=GRID)

    # The Section 6 trade: the column-orientation traffic shrinks by
    # exactly the worker count (thin gather vs all-reduce of full
    # partials); total refresh traffic shrinks by a diluted but real
    # factor (broadcasts are orientation-independent).
    assert row_only_gather == hybrid_gather * workers
    assert hybrid_bytes < row_only
    assert row_only / hybrid_bytes > 1.2

    # An INCR refresh never shuffles; it broadcasts factors and gathers
    # thin partials.
    kinds = cluster.comm.bytes_by_kind()
    assert kinds["shuffle"] == 0
    assert kinds["broadcast"] > 0
    assert kinds["gather"] > 0

    maintainer, _ = _incr_powers()
    state = {"seed": 100}

    def call():
        state["seed"] += 1
        u, v = row_update(N, state["seed"])
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=3, iterations=1, warmup_rounds=1)
