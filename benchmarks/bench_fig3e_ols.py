"""Fig. 3e — Ordinary least squares (X'X)^-1 X'Y under row updates.

Paper (Octave, X = (n x n), Y = (n x 1)): INCR beats REEVAL by 3.6x at
n = 4K growing to 11.5x at n = 20K — re-evaluation is dominated by the
O(n^gamma) re-inversion while the Woodbury-maintained inverse stays
O(n^2).  Reproduced with square X at n in {128, 256, 512}: one OLS
session per strategy (``make_ols(..., plan=...)``), unbatched, timed
per ``apply_update``.
"""

import pytest

from conftest import row_update
from repro.analytics import make_ols
from repro.bench import time_refresh_trimmed
from repro.runtime import FactoredUpdate
from repro.workloads import well_conditioned_design

import numpy as np

SIZES = [128, 256, 512]
PAPER = {4000: 3.6, 8000: 5.2, 10000: 6.3, 16000: 10.6, 20000: 11.5}


class _Refresher:
    """``refresh(u, v)`` as an update to the session's design ``X``."""

    def __init__(self, session):
        self.session = session

    def refresh(self, u, v):
        self.session.apply_update(FactoredUpdate("X", u, v))


def _model(strategy: str, n: int) -> _Refresher:
    rng = np.random.default_rng(17)
    x = well_conditioned_design(rng, n, n, ridge=2.0)
    y = rng.standard_normal((n, 1))
    return _Refresher(make_ols(x, y, plan=strategy.lower(), batch="off"))


def _updates(n, count, scale=0.01):
    return [row_update(n, seed, scale) for seed in range(count)]


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("strategy", ["REEVAL", "INCR"])
def test_ols_refresh(benchmark, strategy, n):
    maintainer = _model(strategy, n)
    state = {"seed": 100}

    def call():
        state["seed"] += 1
        u, v = row_update(n, state["seed"], 0.01)
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=3, iterations=1, warmup_rounds=1)


def test_report_fig3e(benchmark, capsys, bench_record):
    speedups = {}
    for n in SIZES:
        times = {}
        for strategy in ("REEVAL", "INCR"):
            maintainer = _model(strategy, n)
            times[strategy] = time_refresh_trimmed(maintainer, _updates(n, 12))
        speedups[n] = times["REEVAL"] / times["INCR"]

    maintainer = _model("INCR", SIZES[-1])
    state = {"seed": 200}

    def call():
        state["seed"] += 1
        u, v = row_update(SIZES[-1], state["seed"], 0.01)
        maintainer.refresh(u, v)

    benchmark.pedantic(call, rounds=3, iterations=1, warmup_rounds=1)

    with capsys.disabled():
        print("\n== Fig 3e: OLS speedup vs n "
              "(paper: 3.6x @4K .. 11.5x @20K) ==")
        for n in SIZES:
            print(f"  n={n:>5}: INCR is {speedups[n]:5.1f}x faster than REEVAL")
    bench_record({"speedups": speedups})

    # Shape: INCR wins and the gap grows with n (asymptotics differ).
    assert speedups[SIZES[-1]] > speedups[SIZES[0]]
    assert speedups[SIZES[-1]] > 3.0
