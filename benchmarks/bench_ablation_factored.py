"""Ablation — factored vs dense delta propagation (Example 4.4).

The paper's central design choice: deltas are kept in factored form
``U V'`` because naive (dense) propagation suffers the avalanche effect
— by ``A^8`` the delta is fully dense and each further statement costs
two extra ``O(n^gamma)`` products, *worse than re-evaluation*.  This
ablation makes that concrete on the ``A^16`` squaring chain:

* INCR (factored)   — the paper's strategy, ``O(n^2 k)``;
* DENSE-INCR        — same delta rules, deltas stored as one matrix:
  ``dP_2i = dP_i P_i + P_i dP_i + dP_i dP_i`` (three dense products per
  level vs re-evaluation's one);
* REEVAL            — one dense product per level.

Expected ordering: factored << reeval <= dense-incr.
"""

import numpy as np
import pytest

from conftest import make_matrix, refresh_timer, row_update
from repro.bench import time_refresh_trimmed
from repro.iterative import Model, make_powers

N = 384
K = 16


class DenseDeltaPowers:
    """Incremental maintenance with *unfactored* deltas (the ablation arm).

    Follows the delta rules of Section 4.1 exactly, but stores every
    ``dP_i`` as a single dense matrix, so each squaring level costs
    three dense ``O(n^gamma)`` products — Example 4.4's anti-pattern.
    """

    def __init__(self, a: np.ndarray, k: int):
        self.k = k
        self.model = Model.exponential()
        self.schedule = self.model.schedule(k)
        self.powers = {1: np.array(a, dtype=np.float64)}
        for i in self.schedule[1:]:
            half = self.powers[i // 2]
            self.powers[i] = half @ half

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        delta = u @ v.T  # dense from the start
        deltas = {1: delta}
        for i in self.schedule[1:]:
            half = self.powers[i // 2]
            d_half = deltas[i // 2]
            deltas[i] = d_half @ half + half @ d_half + d_half @ d_half
        for i in self.schedule:
            self.powers[i] += deltas[i]

    def result(self) -> np.ndarray:
        return self.powers[self.k]


def _maintainer(arm: str):
    a = make_matrix(N)
    if arm == "FACTORED":
        return make_powers("INCR", a, K, Model.exponential())
    if arm == "DENSE-INCR":
        return DenseDeltaPowers(a, K)
    return make_powers("REEVAL", a, K, Model.exponential())


@pytest.mark.parametrize("arm", ["FACTORED", "DENSE-INCR", "REEVAL"])
def test_delta_representation_refresh(benchmark, arm):
    maintainer = _maintainer(arm)
    benchmark.pedantic(refresh_timer(maintainer, N), rounds=3, iterations=1,
                       warmup_rounds=1)


def test_report_ablation_factored(benchmark, capsys, bench_record):
    # The ablation arm is *correct*, just slow — same maintained values.
    factored = _maintainer("FACTORED")
    dense = _maintainer("DENSE-INCR")
    for seed in range(3):
        u, v = row_update(N, seed)
        factored.refresh(u, v)
        dense.refresh(u, v)
    np.testing.assert_allclose(factored.result(), dense.result(), atol=1e-6)

    updates = [row_update(N, seed) for seed in range(12)]
    times = {arm: time_refresh_trimmed(_maintainer(arm), list(updates))
             for arm in ("FACTORED", "DENSE-INCR", "REEVAL")}

    with capsys.disabled():
        print(f"\n== Ablation: delta representation (A^{K}, n={N}) ==")
        for arm, seconds in times.items():
            print(f"  {arm:<11}: {seconds * 1e3:8.2f} ms/refresh")
        print(f"  factored speedup vs dense-incr: "
              f"{times['DENSE-INCR'] / times['FACTORED']:.1f}x")
        print(f"  factored speedup vs reeval:     "
              f"{times['REEVAL'] / times['FACTORED']:.1f}x")
    bench_record({"seconds": times})

    # The paper's claim (Example 4.4): dense incremental propagation is
    # no better than re-evaluation, while factored propagation is far
    # cheaper than either.
    assert times["FACTORED"] < times["REEVAL"] / 2
    assert times["FACTORED"] < times["DENSE-INCR"] / 2
    assert times["DENSE-INCR"] > times["REEVAL"] * 0.8

    # Register the winning arm with pytest-benchmark as well.
    benchmark.pedantic(refresh_timer(_maintainer("FACTORED"), N),
                       rounds=3, iterations=1, warmup_rounds=1)
