"""Table 4 — batch updates with Zipf-distributed row frequencies.

Paper (A^16, batch of 1000 row updates): with a high Zipf factor the
batch collapses onto few distinct rows (a low-rank factored update) and
INCR-EXP is an order of magnitude faster than one re-evaluation; as the
factor drops to 0 the batch spreads uniformly, the merged update's rank
approaches min(batch, n), and "IncrExp loses its advantage over
ReevalExp" (Octave 10K: 6.3 s at factor 5 vs 236.5 s at factor 0,
against 99.1 s for one re-evaluation).

Reproduced at n = 384 with batches of 96 row updates (the batch/n ratio
matters, not the absolute count): refresh time must
rise monotonically-ish as theta drops, beating REEVAL at high skew and
losing its advantage at theta = 0.
"""

import numpy as np
import pytest

from conftest import make_matrix
from repro.bench import format_seconds
from repro.iterative import Model, make_powers
from repro.workloads import zipf_batch

import time

N = 384
K = 16
BATCH = 96
THETAS = [5.0, 3.0, 2.0, 1.0, 0.0]
PAPER = "Octave 10K/batch 1000: 6.3s (z=5) .. 236.5s (z=0); one REEVAL = 99.1s"


def _batch_factors(theta: float, seed: int):
    rng = np.random.default_rng(seed)
    rows, deltas = zipf_batch(rng, N, N, BATCH, theta, scale=0.01)
    k = rows.shape[0]
    u = np.zeros((N, k))
    u[rows, np.arange(k)] = 1.0
    return u, deltas.T


@pytest.mark.parametrize("theta", THETAS)
def test_incr_batch_refresh(benchmark, theta):
    maintainer = make_powers("INCR", make_matrix(N), K, Model.exponential())
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        u, v = _batch_factors(theta, state["seed"])
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)


def test_reeval_batch_refresh(benchmark):
    maintainer = make_powers("REEVAL", make_matrix(N), K, Model.exponential())
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        u, v = _batch_factors(1.0, state["seed"])
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)


def test_report_table4(benchmark, capsys, bench_record):
    incr_times = {}
    ranks = {}
    for theta in THETAS:
        maintainer = make_powers("INCR", make_matrix(N), K,
                                 Model.exponential())
        u, v = _batch_factors(theta, 1)  # warm
        maintainer.refresh(u, v)
        u, v = _batch_factors(theta, 2)
        ranks[theta] = u.shape[1]
        start = time.perf_counter()
        maintainer.refresh(u, v)
        incr_times[theta] = time.perf_counter() - start

    reeval = make_powers("REEVAL", make_matrix(N), K, Model.exponential())
    u, v = _batch_factors(1.0, 1)
    reeval.refresh(u, v)
    u, v = _batch_factors(1.0, 2)
    start = time.perf_counter()
    reeval.refresh(u, v)
    reeval_time = time.perf_counter() - start

    maintainer = make_powers("INCR", make_matrix(N), K, Model.exponential())

    def call():
        u, v = _batch_factors(5.0, 9)
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)

    with capsys.disabled():
        print(f"\n== Table 4: INCR-EXP refresh per {BATCH}-update Zipf batch, "
              f"n={N} (paper: {PAPER}) ==")
        print(f"{'zipf':>6} {'batch rank':>11} {'INCR time':>12}")
        for theta in THETAS:
            print(f"{theta:>6.1f} {ranks[theta]:>11} "
                  f"{format_seconds(incr_times[theta]):>12}")
        print(f"{'REEVAL':>6} {'-':>11} {format_seconds(reeval_time):>12}"
              "   (batch-rank independent)")
    bench_record({"incr_seconds": incr_times, "batch_ranks": ranks,
                  "reeval_seconds": reeval_time}, n=N, batch=BATCH)

    # Shape: rank grows as skew drops; cost follows; INCR wins at high
    # skew and loses its advantage in the uniform case.
    assert ranks[5.0] < ranks[1.0] < ranks[0.0]
    assert incr_times[5.0] < incr_times[0.0]
    assert incr_times[5.0] < reeval_time
    assert incr_times[0.0] > 0.4 * reeval_time


def _raw_zipf_updates(theta: float, seed: int):
    """The batch as raw rank-1 updates (no row merging)."""
    rng = np.random.default_rng(seed)
    from repro.workloads.zipf import sample_rows

    rows = sample_rows(rng, N, BATCH, theta)
    updates = []
    for row in rows:
        u = np.zeros((N, 1))
        u[row, 0] = 1.0
        updates.append((u, 0.01 * rng.standard_normal((N, 1))))
    return updates


def test_report_table4_compaction(benchmark, capsys):
    """Batch compaction recovers the Table 4 rank from raw updates.

    Applying a skewed 96-update batch one rank-1 refresh at a time pays
    96 full propagations; collecting and flushing one compacted rank-r
    refresh pays one (r = distinct rows touched).  Both must maintain
    identical views.
    """
    from repro.delta import BatchCollector

    theta = 3.0
    per_update = make_powers("INCR", make_matrix(N), K, Model.exponential())
    batched = make_powers("INCR", make_matrix(N), K, Model.exponential())

    updates = _raw_zipf_updates(theta, seed=4)
    start = time.perf_counter()
    for u, v in updates:
        per_update.refresh(u, v)
    naive_time = time.perf_counter() - start

    collector = BatchCollector()
    for u, v in updates:
        collector.add(u, v)
    start = time.perf_counter()
    size, rank, dropped = collector.flush(batched)
    compacted_time = time.perf_counter() - start

    drift = float(np.max(np.abs(per_update.result() - batched.result())))

    def call():
        fresh = BatchCollector()
        for u, v in _raw_zipf_updates(theta, seed=5):
            fresh.add(u, v)
        fresh.flush(make_powers("INCR", make_matrix(N), K,
                                Model.exponential()))

    benchmark.pedantic(call, rounds=2, iterations=1, warmup_rounds=1)

    with capsys.disabled():
        print(f"\n== Table 4 extension: batch compaction (theta={theta}) ==")
        print(f"  {size} rank-1 refreshes, one at a time: "
              f"{format_seconds(naive_time):>10}")
        print(f"  one compacted rank-{rank} refresh:        "
              f"{format_seconds(compacted_time):>10}")
        print(f"  speedup {naive_time / compacted_time:.1f}x, "
              f"views agree to {drift:.1e}, dropped mass {dropped:g}")

    assert dropped == 0.0
    assert rank < size
    assert drift < 1e-6
    assert compacted_time < naive_time
