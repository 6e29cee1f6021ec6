"""Plan-driven batched maintenance vs unit-at-a-time propagation (Table 4).

The PR-5 claim: the planner's ``batch_size`` recommendation, now honored
by ``Session.apply_updates``, turns into measured end-to-end throughput.
For each Zipf skew theta the same row-update stream drives two sessions:

* **unit** — ``batch="off"``: every update propagates immediately (the
  pre-PR-5 behavior);
* **batched** — the width the planner recommends for this stream (its
  Zipf-aware ``distinct_fraction`` sketch is primed from the stream's
  row frequencies), flushed as QR+SVD-compacted rank-``r`` refreshes.

Table 4's shape: higher skew -> fewer distinct rows per batch -> smaller
compacted rank -> bigger batched win.  Both INCR (factored trigger
propagation) and REEVAL (re-evaluation amortization: ``m`` updates, one
recompute) scenarios are measured; parity against the unit session is
asserted per scenario.

Run as a script (or ``--smoke`` in CI)::

    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py
    PYTHONPATH=src python benchmarks/bench_batch_pipeline.py --smoke --json out.json

``check_trend.py batch`` compares the emitted JSON against the committed
baseline and fails CI on a >25% batched-throughput regression.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from conftest import add_json_flag, write_bench_json

#: Zipf skews measured (theta = 0 is uniform; the paper sweeps 0..4).
THETAS = (0.0, 1.0, 2.0)

#: Script acceptance: batched speedup over unit at the highest skew.
MIN_SKEWED_SPEEDUP = {"INCR": 1.2, "REEVAL": 2.0}

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


def _recommended_width(program, inputs, strategy, updates, count) -> int:
    """The width the planner picks once it has seen this stream's skew."""
    from repro.planner import StreamSketch, WorkloadStats, rank_program

    sketch = StreamSketch()
    for update in updates:
        sketch.observe(update)
    ranked = rank_program(
        program, inputs,
        stats=WorkloadStats(n=1, refresh_count=count,
                            distinct_fraction=sketch),
        strategies=(strategy,), backends=["dense"], calibration=None,
    )
    return int(ranked[0].batch_size or 1)


def _session(program, inputs, strategy):
    from repro.runtime import IVMSession, ReevalSession

    inputs = {k: v.copy() for k, v in inputs.items()}
    if strategy == "REEVAL":
        return ReevalSession(program, inputs)
    return IVMSession(program, inputs, mode="interpret")


def _drive_seconds(session, updates) -> float:
    start = time.perf_counter()
    for update in updates:
        session.apply_update(update)
    session.flush()
    return time.perf_counter() - start


def bench_scenario(program, inputs, strategy: str, theta: float, n: int,
                   count: int, repeats: int, seed: int) -> dict:
    updates = _stream(np.random.default_rng(seed), n, count, theta)
    width = _recommended_width(program, inputs, strategy, updates, count)

    seconds = {"unit": float("inf"), "batched": float("inf")}
    outputs = {}
    compression = 1.0
    for _ in range(max(repeats, 1)):
        unit = _session(program, inputs, strategy)
        seconds["unit"] = min(seconds["unit"], _drive_seconds(unit, updates))
        outputs["unit"] = unit.output()

        batched = _session(program, inputs, strategy)
        batched.set_batching(width)
        seconds["batched"] = min(seconds["batched"],
                                 _drive_seconds(batched, updates))
        outputs["batched"] = batched.output()
        stats = batched.batch_stats
        compression = stats.compression if stats is not None else 1.0

    drift = float(np.max(np.abs(outputs["batched"] - outputs["unit"])))
    scale = max(1.0, float(np.max(np.abs(outputs["unit"]))))
    if drift / scale > 1e-8:
        raise AssertionError(
            f"{strategy} theta={theta}: batched diverged (drift={drift})"
        )

    per_update = {k: v / max(count, 1) for k, v in seconds.items()}
    return {
        "strategy": strategy,
        "theta": theta,
        "n": n,
        "updates": count,
        "recommended_width": width,
        "seconds_per_update": per_update,
        "speedup_batched_vs_unit": per_update["unit"] / per_update["batched"],
        "achieved_compression": compression,
        "max_abs_drift": drift,
    }


def run_all(smoke: bool = False) -> dict:
    from repro.frontend import parse_program

    rng = np.random.default_rng(14036968)
    n = 128 if smoke else 256
    count = 96 if smoke else 256
    repeats = 2 if smoke else 3

    program = parse_program(A2_SOURCE)
    a0 = 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    inputs = {"A": a0}

    results = {}
    for strategy in ("INCR", "REEVAL"):
        for theta in THETAS:
            key = f"{strategy.lower()}_theta{theta:g}"
            results[key] = bench_scenario(
                program, inputs, strategy, theta, n, count, repeats,
                seed=int(1000 * theta) + 17,
            )
    return results


def report(results: dict) -> None:
    for scenario in results.values():
        per = scenario["seconds_per_update"]
        print(f"{scenario['strategy']:<7} theta={scenario['theta']:<4g} "
              f"width={scenario['recommended_width']:<3} "
              f"unit {per['unit'] * 1e6:9.1f} us/upd  "
              f"batched {per['batched'] * 1e6:9.1f} us/upd  "
              f"-> {scenario['speedup_batched_vs_unit']:5.2f}x  "
              f"(compression {scenario['achieved_compression']:.1f}x)")


def check(results: dict) -> list[str]:
    """Acceptance violations (empty = pass)."""
    problems = []
    top = f"theta{max(THETAS):g}"
    for strategy, floor in MIN_SKEWED_SPEEDUP.items():
        scenario = results[f"{strategy.lower()}_{top}"]
        if scenario["recommended_width"] <= 1:
            problems.append(
                f"{strategy} @ {top}: planner recommended width "
                f"{scenario['recommended_width']} (expected > 1)"
            )
        if scenario["speedup_batched_vs_unit"] < floor:
            problems.append(
                f"{strategy} @ {top}: batched speedup "
                f"{scenario['speedup_batched_vs_unit']:.2f}x < {floor}x"
            )
    # Table 4's shape: skew cannot *hurt* the compacted rank.
    for strategy in ("incr", "reeval"):
        flat = results[f"{strategy}_theta0"]["achieved_compression"]
        skewed = results[f"{strategy}_{top}"]["achieved_compression"]
        if skewed < flat * 0.9:
            problems.append(
                f"{strategy}: compression fell with skew "
                f"({skewed:.2f}x @ {top} vs {flat:.2f}x @ theta0)"
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
        path = write_bench_json(args.json, "batch_pipeline", results,
                                smoke=args.smoke)
        print(f"\nresults -> {path}")
    problems = check(results)
    for problem in problems:
        print(f"\nWARNING: {problem}")
    if not problems:
        print("\nbatched maintenance: planner width honored, batched beats "
              "unit-at-a-time on the skewed stream")
    return 1 if problems else 0


def test_report_batch_pipeline(bench_record):
    """Smoke-size run: batched-vs-unit speedup + parity acceptance."""
    results = run_all(smoke=True)
    report(results)
    bench_record(results, smoke=True)
    problems = check(results)
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    raise SystemExit(main())
