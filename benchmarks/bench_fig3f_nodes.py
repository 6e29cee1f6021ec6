"""Fig. 3f — Matrix powers across cluster sizes.

Paper (Spark, n = 30K, k = 16, grids of 9..100 workers): re-evaluation
scales with the number of nodes, while incremental evaluation "is less
susceptible to the number of nodes" (10-26 s across every grid) because
its time is bounded by broadcasting small factors, not compute.

Reproduced at n = 360 on the layout that ships (docs/architecture.md,
"Node-count reports"): INCR maintains ``A^16`` by repeated squaring as a
sharded session on the in-process row-shard engine, one row tile per
virtual worker, and the engine's modeled ledger says what N workers
would ship.  REEVAL is the dense re-evaluation session priced at its
best case: perfectly parallel FLOPs plus one all-gather of the right
operand per ``n x n`` product.  :func:`priced_seconds` turns both into
seconds with three fixed per-worker rates.  pytest-benchmark times the
real in-process execution of one refresh.
"""

import numpy as np
import pytest

from conftest import POWERS_16, local_shard_session, make_matrix, row_update
from repro.cost.counters import NULL_COUNTER, Counter
from repro.frontend import parse_program
from repro.runtime import FactoredUpdate, ReevalSession

N = 360
NODES = [9, 25, 49, 100]  # the paper's 3x3 .. 10x10 grids
PAPER = "Spark n=30K: REEVAL needs the cluster, INCR flat at 10-26s"

# Per-worker rates scaled to n of a few hundred (docs/architecture.md,
# "Node-count reports", says why the findings survive the scaling).
FLOP_RATE = 5.0e7   # FLOP/s
BANDWIDTH = 2.0e7   # bytes/s
LATENCY = 2.0e-5    # seconds per message round


def priced_seconds(flops: float, bytes_per_worker: float,
                   rounds: float) -> float:
    """One worker's share of a refresh, in seconds."""
    return flops / FLOP_RATE + bytes_per_worker / BANDWIDTH + rounds * LATENCY


def _session(strategy: str, nodes: int, counter=NULL_COUNTER):
    """The maintained ``A^16``; the initial build is not counted."""
    a = make_matrix(N)
    if strategy == "INCR":
        return local_shard_session(POWERS_16, a, nodes, counter)
    session = ReevalSession(parse_program(POWERS_16), {"A": a},
                            counter=counter)
    counter.reset()
    return session


def priced_refresh(strategy: str, nodes: int, seed: int = 42):
    """``(seconds, P16)`` of one refresh on ``nodes`` workers."""
    counter = Counter()
    session = _session(strategy, nodes, counter)
    session.apply_update(FactoredUpdate("A", *row_update(N, seed)))
    result = np.array(session["P16"])
    flops = counter.total_flops / nodes
    if strategy == "INCR":
        ledger = session.engine.model
        seconds = priced_seconds(flops, ledger.total_bytes / nodes,
                                 ledger.total_messages / nodes)
    else:
        products = counter.calls_by_op["matmul_into"]
        gathered = products * N * N * 8 * (nodes - 1) / nodes
        seconds = priced_seconds(flops, gathered, products)
    session.close()
    return seconds, result


@pytest.mark.parametrize("nodes", NODES)
@pytest.mark.parametrize("strategy", ["REEVAL", "INCR"])
def test_distributed_refresh(benchmark, strategy, nodes):
    session = _session(strategy, nodes)
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        session.apply_update(FactoredUpdate("A", *row_update(N, state["seed"])))

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)
    session.close()


def test_report_fig3f(benchmark, capsys, bench_record):
    priced = {"REEVAL": [], "INCR": []}
    for nodes in NODES:
        results = {}
        for strategy in priced:
            seconds, results[strategy] = priced_refresh(strategy, nodes)
            priced[strategy].append(seconds)
        np.testing.assert_allclose(results["INCR"], results["REEVAL"],
                                   rtol=1e-9, atol=1e-12)

    session = _session("INCR", NODES[-1])

    def call():
        session.apply_update(FactoredUpdate("A", *row_update(N, 7)))

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)
    session.close()

    with capsys.disabled():
        print(f"\n== Fig 3f: priced view refresh vs workers (paper: {PAPER}) ==")
        print(f"{'workers':>8} {'REEVAL-EXP':>12} {'INCR-EXP':>10} {'speedup':>9}")
        for nodes, reeval, incr in zip(NODES, priced["REEVAL"],
                                       priced["INCR"]):
            print(f"{nodes:>8} {reeval:>11.3f}s {incr:>9.3f}s "
                  f"{reeval / incr:>8.1f}x")
    bench_record({"priced_seconds": priced, "workers": NODES})

    reeval, incr = priced["REEVAL"], priced["INCR"]
    # REEVAL strong-scales with workers.
    assert reeval[0] > 2 * reeval[-1]
    # INCR is far less sensitive to the cluster size than REEVAL.
    assert max(incr) / min(incr) < (reeval[0] / reeval[-1])
    # And INCR wins at every size, against REEVAL's best case.
    assert all(i < r for i, r in zip(incr, reeval))
