"""Fig. 3g distributed — *real* multiprocess scaling.

The paper's Fig. 3g *is* a Spark experiment (n = 30K, k = 16): at p = 1
HYBRID-LIN beats REEVAL-LIN by 16% and INCR-LIN by 53%; REEVAL/HYBRID
grow linearly in p while INCR takes over at large p.  That crossover is
measured in wall-clock time by ``bench_fig3g_general.py`` (and checked
with FLOP counts by ``tests/test_iterative_general.py``); this file
measures the scaling claim in **wall-clock** on the real engine:
``A^2``/``A^3`` chain maintenance by a
:class:`~repro.runtime.session.ShardedSession` (the chain's lowered
triggers on a :class:`~repro.distributed.sharded.ShardBackend`) over
1 / 2 / 4 shared-memory worker processes, with measured comm
traffic, bit-identity across engines and shard strategies, and
modeled-vs-measured broadcast- and gather-bytes checks.

Script mode writes the CI artifact gated by ``check_trend.py dist``::

    python benchmarks/bench_fig3g_distributed.py --json BENCH.json
    python benchmarks/bench_fig3g_distributed.py --smoke   # tiny, fast
"""

import argparse
import os
import sys
import time

import numpy as np

try:
    import pytest
except ImportError:  # script mode does not need pytest
    pytest = None

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from conftest import add_json_flag, make_matrix, row_update, write_bench_json

# -- real multiprocess scaling (wall clock, measured comm) ---------------
#
# Cells share one update stream and one tile decomposition, so every
# engine executes the identical kernel calls: results must be *bitwise*
# equal across single-process / 2-worker / 4-worker / hash-vs-range.

SCALE_N = 2048          # full mode (the acceptance-criteria size)
SCALE_UPDATES = 8
SCALE_TILE_ROWS = 128   # 16 tiles: divisible work for 2 and 4 workers
SMOKE_N = 256           # smoke mode: seconds, not minutes
SMOKE_UPDATES = 4
SMOKE_TILE_ROWS = 32


def _updates(n: int, count: int, base_seed: int = 1):
    return [row_update(n, base_seed + i) for i in range(count)]


CHAIN_SRC = "input A(n, n); P2 := A * A; P3 := A * P2; output P3;"


def _measure_cell(a, updates, *, nodes, strategy, tile_rows, process):
    """One scaling cell: timed refresh loop + comm harvest + results."""
    from repro.distributed import (LocalShardEngine, RowShardPartitioner,
                                   ShardBackend)
    from repro.frontend import parse_program
    from repro.planner import MaintenancePlan
    from repro.runtime import FactoredUpdate, ShardedSession

    # ``process=False`` is the in-process reference engine: same tiles,
    # same kernels, no workers.
    engine = ({"shard": strategy, "tile_rows": tile_rows} if process else
              {"backend": ShardBackend(LocalShardEngine(RowShardPartitioner(
                  a.shape[0], nodes, strategy, tile_rows)))})
    session = ShardedSession(
        parse_program(CHAIN_SRC), {"A": a},
        plan=MaintenancePlan("INCR", mode="codegen", nodes=nodes), **engine)
    try:
        # Warm-up refresh (same for every cell, so parity holds): for
        # process engines this also absorbs any residual spawn latency.
        warm_u, warm_v = row_update(a.shape[0], 999_983)
        session.apply_update(FactoredUpdate("A", warm_u, warm_v))
        session.engine.comm.reset()
        session.engine.model.reset()
        start = time.perf_counter()
        for u, v in updates:
            session.apply_update(FactoredUpdate("A", u, v))
        seconds = time.perf_counter() - start
        cell = {
            "nodes": session.nodes,
            "strategy": strategy,
            "seconds": seconds,
            "updates_per_second": len(updates) / seconds,
            "comm": session.engine.comm.as_dict(),
            "modeled": session.engine.model.as_dict(),
            "worker_seconds": session.engine.worker_seconds(),
            "partition": session.engine.part.describe(),
        }
        results = {name: np.array(session[name]) for name in ("A", "P2", "P3")}
    finally:
        session.close()
    return cell, results


def run_scaling(n: int, updates_count: int, tile_rows: int,
                worker_counts: tuple[int, ...]) -> tuple[dict, dict]:
    """All cells at one size.  Returns ``(payload, results_by_cell)``."""
    a = make_matrix(n)
    updates = _updates(n, updates_count)
    cells: dict[str, dict] = {}
    results: dict[str, dict] = {}
    cells["single"], results["single"] = _measure_cell(
        a, updates, nodes=1, strategy="range", tile_rows=tile_rows,
        process=False)
    for w in worker_counts:
        key = f"w{w}_range"
        cells[key], results[key] = _measure_cell(
            a, updates, nodes=w, strategy="range", tile_rows=tile_rows,
            process=True)
    hash_w = max(worker_counts)
    cells[f"w{hash_w}_hash"], results[f"w{hash_w}_hash"] = _measure_cell(
        a, updates, nodes=hash_w, strategy="hash", tile_rows=tile_rows,
        process=True)

    single = results["single"]
    bitwise = all(
        np.array_equal(single[name], res[name])
        for res in results.values() for name in ("A", "P2", "P3")
    )
    # Ground truth from the maintained input: P3 must still be A^3.
    a_final = results["single"]["A"]
    allclose = bool(np.allclose(results["single"]["P3"],
                                a_final @ a_final @ a_final,
                                rtol=1e-8, atol=1e-10))
    # Modeled-vs-measured broadcast and gather bytes on the widest
    # process cell (pickle framing is the only divergence; thin factors
    # at this n keep it well under the 10% gate).
    wide = cells[f"w{max(worker_counts)}_range"]

    def model_error(kind: str) -> float:
        measured = wide["comm"]["bytes"][kind]
        modeled = wide["modeled"]["bytes"][kind]
        return abs(measured - modeled) / modeled if modeled else 1.0

    payload = {
        "n": n,
        "updates": updates_count,
        "chain_k": 3,
        "tile_rows": tile_rows,
        "cpu_count": os.cpu_count(),
        "cells": cells,
        "parity": {
            "bitwise_all_engines": bool(bitwise),
            "allclose_vs_recompute": allclose,
            "comm_model_error": model_error("broadcast"),
            "gather_model_error": model_error("gather"),
            "measured_broadcast_bytes": wide["comm"]["bytes"]["broadcast"],
        },
        "derived": {
            f"speedup_w{w}": cells["single"]["seconds"]
            / cells[f"w{w}_range"]["seconds"]
            for w in worker_counts
        },
    }
    return payload, results


def _print_scaling(payload: dict) -> None:
    print(f"\n== Fig 3g (real engine): A^2/A^3 maintenance, n={payload['n']}, "
          f"{payload['updates']} updates, tile_rows={payload['tile_rows']}, "
          f"cpu_count={payload['cpu_count']} ==")
    for key, cell in payload["cells"].items():
        comm = cell["comm"]
        print(f"{key:>10}: {cell['seconds'] * 1e3:9.1f} ms  "
              f"({cell['updates_per_second']:7.2f} upd/s, "
              f"{comm['total_bytes']:>10,} comm bytes)")
    for key, value in payload["derived"].items():
        print(f"{key:>10}: {value:.2f}x")
    parity = payload["parity"]
    print(f"    parity: bitwise={parity['bitwise_all_engines']} "
          f"allclose={parity['allclose_vs_recompute']} "
          f"comm_model_error={parity['comm_model_error']:.3%} "
          f"gather_model_error={parity['gather_model_error']:.3%}")


if pytest is not None:
    def test_report_fig3g_scaling(capsys, bench_record):
        """Smoke-scale real-engine scaling: parity must hold even where
        the IPC tax swamps 1-core speedup (speedups are reported, not
        asserted, at this size — check_trend.py dist gates the full
        artifact)."""
        payload, _ = run_scaling(SMOKE_N, SMOKE_UPDATES, SMOKE_TILE_ROWS,
                                 worker_counts=(2,))
        with capsys.disabled():
            _print_scaling(payload)
        bench_record(payload, mode="smoke")
        assert payload["parity"]["bitwise_all_engines"]
        assert payload["parity"]["allclose_vs_recompute"]
        assert payload["parity"]["comm_model_error"] <= 0.10
        assert payload["parity"]["gather_model_error"] <= 0.10
        assert payload["parity"]["measured_broadcast_bytes"] > 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_json_flag(parser)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration (seconds, not minutes)")
    args = parser.parse_args(argv)
    if args.smoke:
        payload, _ = run_scaling(SMOKE_N, SMOKE_UPDATES, SMOKE_TILE_ROWS,
                                 worker_counts=(2,))
    else:
        payload, _ = run_scaling(SCALE_N, SCALE_UPDATES, SCALE_TILE_ROWS,
                                 worker_counts=(2, 4))
    _print_scaling(payload)
    if args.json:
        path = write_bench_json(args.json, "fig3g_distributed", payload,
                                mode="smoke" if args.smoke else "full")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())