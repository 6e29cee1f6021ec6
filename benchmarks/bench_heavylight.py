"""Heavy-light partitioned maintenance vs the best uniform-batching plan.

The PR-8 claim: on a Zipf-skewed row-update stream, splitting updates by
target row — heavy hitters merged eagerly into accumulator rows, the
light tail deferred into a compacted pending block — beats uniform
batching at *any* width, because heavy mass stops paying per-window
refresh rank entirely and tail repeats compact across the whole deferral
window instead of one batch.  For each skew theta the same stream drives:

* **unit** — per-update propagation (the floor);
* **uniform w** — plan-driven batched maintenance (the PR-5 pipeline) at
  every width on the planner's grid; the best one is the bar;
* **heavy-light** — ``Session.set_partition`` at the budget the planner
  recommends from a sketch of this stream.

The planner's pricing is demonstrated alongside the measurement: the
ranked plan for the skewed streams must carry ``partition="heavy-light"``
(:func:`repro.cost.estimate.heavy_light_unit_cost` undercuts the uniform
unit cost), while the uniform stream must keep ``partition="uniform"``.
Parity against the unit session is asserted per scenario.

Run as a script (or ``--smoke`` in CI)::

    PYTHONPATH=src python benchmarks/bench_heavylight.py
    PYTHONPATH=src python benchmarks/bench_heavylight.py --smoke --json out.json

``check_trend.py hl`` compares the emitted JSON against the committed
baseline and fails CI on a >25% heavy-light-throughput regression or if
the speedup over the best uniform plan drops below the 2x acceptance bar.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from conftest import add_json_flag, write_bench_json

#: Zipf skews measured (theta = 0 is uniform; 1.2 is the acceptance cell).
THETAS = (0.0, 1.2, 2.0)

#: Script acceptance: heavy-light speedup over the *best* uniform plan
#: on the skewed streams (the ISSUE 8 bar).
MIN_SKEWED_SPEEDUP = 2.0

#: Uniform-batching widths raced to find the bar (the planner's grid).
UNIFORM_WIDTHS = (8, 16, 32)

A2_SOURCE = "input A(n, n); B := A * A; output B;"


def _stream(rng, n: int, count: int, theta: float, scale: float = 0.01):
    from repro.runtime import FactoredUpdate
    from repro.workloads.zipf import sample_rows

    rows = sample_rows(rng, n, count, theta)
    updates = []
    for row in rows:
        u = np.zeros((n, 1))
        u[row, 0] = 1.0
        updates.append(FactoredUpdate("A", u,
                                      scale * rng.standard_normal((n, 1))))
    return updates


def _recommended(program, inputs, updates, count):
    """(partition, heavy_budget) the planner picks after seeing the stream."""
    from repro.planner import StreamSketch, WorkloadStats, rank_program

    sketch = StreamSketch()
    for update in updates:
        sketch.observe(update)
    ranked = rank_program(
        program, inputs,
        stats=WorkloadStats(n=1, refresh_count=count,
                            distinct_fraction=sketch),
        strategies=("INCR",), backends=["dense"], calibration=None,
        price_batching=True,
    )
    return ranked[0].partition, ranked[0].heavy_budget


def _session(program, inputs):
    from repro.runtime import IVMSession

    return IVMSession(program, {k: v.copy() for k, v in inputs.items()},
                      mode="interpret")


def _drive_seconds(session, updates) -> float:
    start = time.perf_counter()
    for update in updates:
        session.apply_update(update)
    session.flush()
    return time.perf_counter() - start


def bench_scenario(program, inputs, theta: float, n: int, count: int,
                   repeats: int, seed: int) -> dict:
    updates = _stream(np.random.default_rng(seed), n, count, theta)
    partition, budget = _recommended(program, inputs, updates, count)

    seconds: dict[str, float] = {"unit": float("inf"),
                                 "heavy_light": float("inf")}
    for width in UNIFORM_WIDTHS:
        seconds[f"uniform_w{width}"] = float("inf")
    outputs = {}
    hl_stats = None
    for _ in range(max(repeats, 1)):
        unit = _session(program, inputs)
        seconds["unit"] = min(seconds["unit"], _drive_seconds(unit, updates))
        outputs["unit"] = unit.output()

        for width in UNIFORM_WIDTHS:
            batched = _session(program, inputs)
            batched.set_batching(width)
            seconds[f"uniform_w{width}"] = min(
                seconds[f"uniform_w{width}"], _drive_seconds(batched, updates))

        split = _session(program, inputs)
        split.set_partition("heavy-light", heavy_budget=budget or 16)
        seconds["heavy_light"] = min(seconds["heavy_light"],
                                     _drive_seconds(split, updates))
        outputs["heavy_light"] = split.output()
        hl_stats = split.partition_stats

    drift = float(np.max(np.abs(outputs["heavy_light"] - outputs["unit"])))
    scale = max(1.0, float(np.max(np.abs(outputs["unit"]))))
    if drift / scale > 1e-8:
        raise AssertionError(
            f"theta={theta}: heavy-light diverged (drift={drift})"
        )

    best_uniform = min(seconds[f"uniform_w{w}"] for w in UNIFORM_WIDTHS)
    per_update = {k: v / max(count, 1) for k, v in seconds.items()}
    return {
        "theta": theta,
        "n": n,
        "updates": count,
        "recommended_partition": partition,
        "recommended_budget": budget,
        "seconds_per_update": per_update,
        "best_uniform_seconds_per_update": best_uniform / max(count, 1),
        "speedup_hl_vs_best_uniform": best_uniform / seconds["heavy_light"],
        "speedup_hl_vs_unit": seconds["unit"] / seconds["heavy_light"],
        "amortization": hl_stats.amortization if hl_stats else 1.0,
        "folds": hl_stats.folds if hl_stats else 0,
        "max_abs_drift": drift,
    }


def run_all(smoke: bool = False) -> dict:
    from repro.frontend import parse_program

    rng = np.random.default_rng(84211)
    n = 128 if smoke else 256
    count = 256 if smoke else 512
    repeats = 3 if smoke else 4

    program = parse_program(A2_SOURCE)
    inputs = {"A": 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)}

    results = {}
    for theta in THETAS:
        key = f"theta{theta:g}"
        results[key] = bench_scenario(program, inputs, theta, n, count,
                                      repeats, seed=int(1000 * theta) + 23)
    return results


def report(results: dict) -> None:
    for scenario in results.values():
        per = scenario["seconds_per_update"]
        print(f"theta={scenario['theta']:<4g} "
              f"plan={scenario['recommended_partition']:<11} "
              f"unit {per['unit'] * 1e6:8.1f} us/upd  "
              f"best-uniform "
              f"{scenario['best_uniform_seconds_per_update'] * 1e6:8.1f}  "
              f"heavy-light {per['heavy_light'] * 1e6:8.1f}  "
              f"-> {scenario['speedup_hl_vs_best_uniform']:5.2f}x over best "
              f"uniform (amortization "
              f"{scenario['amortization']:.1f} cols/rank)")


def check(results: dict) -> list[str]:
    """Acceptance violations (empty = pass)."""
    problems = []
    for theta in THETAS:
        scenario = results[f"theta{theta:g}"]
        if theta == 0.0:
            # No skew: the estimator must keep heavy-light unchosen.
            if scenario["recommended_partition"] != "uniform":
                problems.append(
                    "theta0: planner recommended "
                    f"{scenario['recommended_partition']} on a uniform "
                    "stream (expected uniform)"
                )
            continue
        if scenario["recommended_partition"] != "heavy-light":
            problems.append(
                f"theta{theta:g}: planner recommended "
                f"{scenario['recommended_partition']} (expected heavy-light)"
            )
        if scenario["speedup_hl_vs_best_uniform"] < MIN_SKEWED_SPEEDUP:
            problems.append(
                f"theta{theta:g}: heavy-light speedup over best uniform "
                f"{scenario['speedup_hl_vs_best_uniform']:.2f}x "
                f"< {MIN_SKEWED_SPEEDUP}x"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small fast run for CI harness-rot checks")
    add_json_flag(parser)
    args = parser.parse_args(argv)
    results = run_all(smoke=args.smoke)
    report(results)
    if args.json:
        path = write_bench_json(args.json, "heavylight", results,
                                smoke=args.smoke)
        print(f"\nresults -> {path}")
    problems = check(results)
    for problem in problems:
        print(f"\nWARNING: {problem}")
    if not problems:
        print("\nheavy-light maintenance: planner prices the split, and the "
              "split beats every uniform width on the skewed streams")
    return 1 if problems else 0


def test_report_heavylight(bench_record):
    """Smoke-size run: heavy-light-vs-uniform speedup + parity acceptance."""
    results = run_all(smoke=True)
    report(results)
    bench_record(results, smoke=True)
    problems = check(results)
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    raise SystemExit(main())
