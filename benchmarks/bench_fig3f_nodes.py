"""Fig. 3f — Matrix powers across cluster sizes (simulated Spark).

Paper (Spark, n = 30K, k = 16, grids of 9..100 workers): re-evaluation
scales with the number of nodes, while incremental evaluation "is less
susceptible to the number of nodes" (10-26 s across every grid) because
its time is bounded by broadcasting small factors, not compute.

Reproduced on the BSP cluster simulator at n = 360 with the
laptop-calibrated rate configuration (docs/architecture.md, "Simulated
cluster"): the *simulated* wall-clock must show REEVAL strong-scaling
and INCR staying flat.  The maintainers are the ordinary
``make_powers`` ones on a :class:`~repro.distributed.SimulatedBackend`.
pytest-benchmark times the real in-process execution of one refresh.
"""

import numpy as np
import pytest

from conftest import make_matrix
from repro.distributed import Cluster, ClusterConfig, SimulatedBackend
from repro.iterative import Model, make_powers

N = 360
K = 16
GRIDS = [3, 5, 7, 10]  # 9 .. 100 workers, like the paper's sweep
PAPER = "Spark n=30K: REEVAL needs the cluster, INCR flat at 10-26s"


def _maintainer(strategy: str, grid: int):
    """``(maintainer, cluster)`` with the initial build left untimed."""
    cluster = Cluster(ClusterConfig.laptop_scale(grid))
    maintainer = make_powers(strategy, make_matrix(N), K, Model.exponential(),
                             backend=SimulatedBackend(cluster))
    cluster.reset()
    return maintainer, cluster


def _one_update(seed: int):
    rng = np.random.default_rng(seed)
    u = np.zeros((N, 1))
    u[int(rng.integers(0, N)), 0] = 1.0
    return u, 0.01 * rng.standard_normal((N, 1))


@pytest.mark.parametrize("grid", GRIDS)
@pytest.mark.parametrize("strategy", ["REEVAL", "INCR"])
def test_distributed_refresh(benchmark, strategy, grid):
    maintainer, _ = _maintainer(strategy, grid)
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        u, v = _one_update(state["seed"])
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)


def test_report_fig3f(benchmark, capsys, bench_record):
    simulated = {"REEVAL": [], "INCR": []}
    for grid in GRIDS:
        for strategy in ("REEVAL", "INCR"):
            maintainer, cluster = _maintainer(strategy, grid)
            u, v = _one_update(42)
            maintainer.refresh(u, v)
            simulated[strategy].append(cluster.elapsed)

    maintainer, _ = _maintainer("INCR", GRIDS[-1])

    def call():
        u, v = _one_update(7)
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)

    with capsys.disabled():
        print(f"\n== Fig 3f: simulated view refresh vs workers (paper: {PAPER}) ==")
        print(f"{'workers':>8} {'REEVAL-EXP':>12} {'INCR-EXP':>10} {'speedup':>9}")
        for grid, reeval, incr in zip(GRIDS, simulated["REEVAL"],
                                      simulated["INCR"]):
            print(f"{grid * grid:>8} {reeval:>11.3f}s {incr:>9.3f}s "
                  f"{reeval / incr:>8.1f}x")
    bench_record({"simulated_seconds": simulated,
                  "workers": [g * g for g in GRIDS]})

    reeval, incr = simulated["REEVAL"], simulated["INCR"]
    # REEVAL strong-scales with workers.
    assert reeval[0] > 2 * reeval[-1]
    # INCR is far less sensitive to the cluster size than REEVAL.
    assert max(incr) / min(incr) < (reeval[0] / reeval[-1])
    # And INCR wins at every size.
    assert all(i < r for i, r in zip(incr, reeval))
