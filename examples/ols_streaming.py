"""Streaming ordinary least squares (Section 5.1 / Fig. 3e).

A regression model whose design matrix receives continuous row updates
(e.g. measurements being corrected).  ``make_ols`` opens a session on
the program ``Z := X'X; W := inv(Z); C := X'Y; beta := W C``; the
incremental plan maintains ``inv(X'X)`` by a Woodbury step instead of
re-inverting, keeping every refresh O(n^2 + mn).

Run:  python examples/ols_streaming.py
"""

import time

import numpy as np

from repro.analytics import make_ols
from repro.workloads import regression_data, update_stream


def main() -> None:
    rng = np.random.default_rng(42)
    m, n = 600, 300
    x, y, beta_true = regression_data(rng, m, n, p=1, noise=0.05)

    # make_ols asks the planner, which prices both strategies from the
    # compiled program and picks incremental maintenance here.
    incr = make_ols(x, y, batch="off")  # Example 4.3's maintenance plan
    print(f"planned OLS configuration: {incr.plan.label}")
    reeval = make_ols(x, y, plan="reeval", batch="off")  # rebuild baseline

    updates = list(update_stream(rng, "X", m, n, count=20, scale=0.05))

    seconds = {}
    for name, session in (("incr", incr), ("reeval", reeval)):
        start = time.perf_counter()
        session.apply_updates(updates)
        seconds[name] = (time.perf_counter() - start) / len(updates)

    print(f"OLS with X = ({m} x {n}), Y = ({m} x 1), {len(updates)} row updates")
    print(f"  incremental refresh : {seconds['incr'] * 1e3:8.2f} ms/update")
    print(f"  re-evaluation       : {seconds['reeval'] * 1e3:8.2f} ms/update")
    print(f"  speedup             : {seconds['reeval'] / seconds['incr']:8.1f}x")

    agreement = np.abs(incr["beta"] - reeval["beta"]).max()
    fit = np.abs(incr["beta"] - beta_true).max()
    print(f"  INCR vs REEVAL beta : {agreement:.2e}")
    print(f"  distance to truth   : {fit:.3f} (noise-limited)")
    print(f"  accumulated drift   : {incr.revalidate():.2e}")


if __name__ == "__main__":
    main()
