"""Table 3 — memory requirements vs refresh-time speedup for A^16.

Paper (Spark): REEVAL-EXP holds ~n^2 state while INCR-EXP materializes
every scheduled power (log k of them, plus hybrid-partitioning copies);
the speedup-to-memory-overhead ratio *grows* with n (2.99 at 20K to
16.00 at 50K) — "the benefit of investing more memory resources
increases with higher dimensionality".

Reproduced at n in {128, 256, 512}: memory is what each maintainer
stores (``memory_bytes()``), time from measured refreshes.  REEVAL here
re-runs the family's program on a REEVAL session, which stores ``A``
and every scheduled power as a view, as INCR does — so the memory
overhead is 1.0x at every n (the paper's REEVAL keeps only the power it
is computing), and speedup per unit of memory is the speedup itself,
which still grows with n.
"""

import pytest

from conftest import make_matrix, refresh_timer, row_update
from repro.bench import time_refresh
from repro.cost.memory import MemoryComparison
from repro.iterative import Model, make_powers

K = 16
SIZES = [128, 256, 512]
PAPER = "Spark: speedup/memory = 2.99 @20K .. 16.00 @50K (ratio grows with n)"


@pytest.mark.parametrize("n", SIZES)
def test_incr_refresh_at_size(benchmark, n):
    maintainer = make_powers("INCR", make_matrix(n), K, Model.exponential())
    benchmark.pedantic(refresh_timer(maintainer, n), rounds=3, iterations=1,
                       warmup_rounds=1)


def test_report_table3(benchmark, capsys, bench_record):
    comparisons = []
    for n in SIZES:
        reeval = make_powers("REEVAL", make_matrix(n), K, Model.exponential())
        incr = make_powers("INCR", make_matrix(n), K, Model.exponential())
        updates = [row_update(n, seed) for seed in range(5)]
        reeval_time = time_refresh(reeval, updates)
        incr_time = time_refresh(incr, list(updates))
        comparisons.append(
            MemoryComparison(
                n=n,
                reeval_bytes=reeval.memory_bytes(),
                incr_bytes=incr.memory_bytes(),
                reeval_time=reeval_time,
                incr_time=incr_time,
            )
        )

    maintainer = make_powers("INCR", make_matrix(SIZES[-1]), K,
                             Model.exponential())
    benchmark.pedantic(refresh_timer(maintainer, SIZES[-1]), rounds=3,
                       iterations=1, warmup_rounds=1)

    with capsys.disabled():
        print(f"\n== Table 3: memory vs speedup, A^16 (paper: {PAPER}) ==")
        print(f"{'n':>6} {'REEVAL MB':>10} {'INCR MB':>9} {'time spdup':>11} "
              f"{'mem cost':>9} {'spdup/mem':>10}")
        for c in comparisons:
            print(f"{c.n:>6} {c.reeval_bytes / 1e6:>9.1f} "
                  f"{c.incr_bytes / 1e6:>8.1f} {c.speedup:>10.1f}x "
                  f"{c.memory_overhead:>8.2f}x {c.speedup_per_memory:>9.2f}")
    bench_record([
        {"n": c.n, "reeval_bytes": c.reeval_bytes,
         "incr_bytes": c.incr_bytes, "speedup": c.speedup,
         "memory_overhead": c.memory_overhead}
        for c in comparisons
    ], k=K)

    # Both store A and the four scheduled powers: the memory overhead is
    # identical across sizes; the speedup/memory ratio must grow with n.
    overheads = [c.memory_overhead for c in comparisons]
    assert max(overheads) - min(overheads) < 0.2
    ratios = [c.speedup_per_memory for c in comparisons]
    assert ratios[-1] > ratios[0]
