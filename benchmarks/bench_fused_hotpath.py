"""Fused in-place trigger path vs the interpreter / generic codegen.

The PR-4 claim: steady-state maintenance cost should be FLOPs, not
Python dispatch and allocator churn.  Three session scenarios (the same
regimes ``bench_planner_auto.py`` grids over) are driven with identical
update streams under three trigger execution paths:

* **interpret** — the AST executor (the PR 3 default baseline);
* **codegen** — generic generated Python, backend-dispatched
  allocating kernels, in-place applies (``fused=False``);
* **fused** — the specialized in-place path (``mode="codegen"`` default
  since this PR): preallocated workspace buffers, ``out=`` kernels,
  views repaired in place.

Two metrics per path:

* **wall time per update** (best-of-``repeats`` over the stream);
* **allocations per update** — net ``tracemalloc`` bytes and block
  count across a steady-state window (warm-up excluded), plus the
  workspace's own allocation counter.  The fused dense path must
  measure **zero** steady-state allocations.

Acceptance (checked by the script exit code and the pytest entry):

* fused >= ``MIN_DENSE_SPEEDUP`` faster than the interpreter on the
  dense-small scenario;
* zero steady-state workspace allocations and ~zero net traced bytes
  for dense fused sessions;
* parity: all three paths end bit-identical (dense) / close (sparse).

Run as a script (or ``--smoke`` in CI)::

    PYTHONPATH=src python benchmarks/bench_fused_hotpath.py
    PYTHONPATH=src python benchmarks/bench_fused_hotpath.py --smoke --json out.json

``check_trend.py fused`` compares the emitted JSON against the
committed baseline and fails CI on a >25% fused-speedup regression.
"""

from __future__ import annotations

import argparse
import gc
import time
import tracemalloc

import numpy as np

from conftest import add_json_flag, write_bench_json

#: Script acceptance: fused speedup over the interpreter, dense-small.
#: Re-anchored by PR 12, which removed the per-apply view copy from the
#: interpreter (the denominator): 397-410 -> 209-215 us/update at n=192
#: with fused unchanged at 133-138, so the ratio reads 1.56x at full
#: size (1.9-2.0x at --smoke size) where it read 2.9-3.1x.  The floor
#: is the smaller figure less the trend gate's 25% budget.
MIN_DENSE_SPEEDUP = 1.2

#: Net traced bytes per update above which "zero-allocation" fails
#: (tracemalloc's own bookkeeping shows up as a few dozen bytes).
MAX_STEADY_BYTES_PER_UPDATE = 256.0

A4_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"
STREAM_SOURCE = (
    "input A(n, n); input X(n, p); Y := A * X; Z := A * Y; output Z;"
)


def _program(source: str):
    from repro.frontend import parse_program

    return parse_program(source)


def _row_updates(rng, n: int, count: int, target: str = "A",
                 row_density: float = 1.0, scale: float = 0.01):
    from repro.runtime import FactoredUpdate

    updates = []
    for i in range(count):
        u = np.zeros((n, 1))
        u[i % n, 0] = 1.0
        v = scale * rng.standard_normal((n, 1))
        if row_density < 1.0:
            v *= rng.random((n, 1)) < row_density
        updates.append(FactoredUpdate(target, u, v))
    return updates


def _drive_seconds(session, updates) -> float:
    start = time.perf_counter()
    for update in updates:
        session.apply_update(update)
    return time.perf_counter() - start


def _steady_allocations(session, updates) -> dict:
    """Net traced memory and block growth across a steady-state window."""
    for update in updates:  # warm-up: buffers allocate here
        session.apply_update(update)
    ws = getattr(session, "workspace", None)
    ws_alloc_before = ws.allocations if ws is not None else None
    gc.collect()
    tracemalloc.start()
    before_bytes = tracemalloc.get_traced_memory()[0]
    snap_before = tracemalloc.take_snapshot()
    for update in updates:
        session.apply_update(update)
    gc.collect()
    after_bytes = tracemalloc.get_traced_memory()[0]
    snap_after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    # Count only blocks attributable to this repo's code, so the
    # tracemalloc/driver bookkeeping doesn't pollute the metric.
    repo_growth = 0
    for stat in snap_after.compare_to(snap_before, "filename"):
        fname = stat.traceback[0].filename
        if ("repro" in fname or "trigger" in fname) and stat.count_diff > 0:
            repo_growth += stat.count_diff
    return {
        "updates": len(updates),
        "net_bytes": max(after_bytes - before_bytes, 0),
        "net_bytes_per_update": max(after_bytes - before_bytes, 0)
        / max(len(updates), 1),
        "repo_block_growth": repo_growth,
        "workspace_allocations": (
            None if ws is None else ws.allocations - ws_alloc_before
        ),
    }


def bench_scenario(
    label: str,
    source: str,
    inputs: dict,
    dims: dict,
    updates,
    backend: str,
    repeats: int = 3,
    alloc_window: int = 100,
) -> dict:
    """Per-update seconds for interpret/codegen/fused + fused allocations."""
    from repro.runtime.session import IVMSession

    program = _program(source)
    configs = (
        ("interpret", {"mode": "interpret"}),
        ("codegen", {"mode": "codegen", "fused": False}),
        ("fused", {"mode": "codegen", "fused": True}),
    )
    seconds = {name: float("inf") for name, _ in configs}
    outputs = {}
    for _ in range(max(repeats, 1)):
        for name, kwargs in configs:
            session = IVMSession(
                program,
                {k: v.copy() for k, v in inputs.items()},
                dims=dims, backend=backend, **kwargs,
            )
            seconds[name] = min(seconds[name],
                                _drive_seconds(session, updates))
            outputs[name] = np.array(session.output())

    drift = max(
        float(np.max(np.abs(outputs["fused"] - outputs[name])))
        for name in ("interpret", "codegen")
    )
    scale = max(1.0, float(np.max(np.abs(outputs["interpret"]))))
    if drift / scale > 1e-8:
        raise AssertionError(f"{label}: paths diverged (drift={drift})")

    alloc_session = IVMSession(
        program, {k: v.copy() for k, v in inputs.items()},
        dims=dims, backend=backend, mode="codegen",
    )
    allocations = _steady_allocations(alloc_session, updates[:alloc_window])

    per_update = {name: s / max(len(updates), 1)
                  for name, s in seconds.items()}
    return {
        "scenario": label,
        "backend": backend,
        "updates": len(updates),
        "seconds_per_update": per_update,
        "speedup_fused_vs_interpret":
            per_update["interpret"] / per_update["fused"],
        "speedup_fused_vs_codegen":
            per_update["codegen"] / per_update["fused"],
        "steady_state": allocations,
        "max_abs_drift": drift,
    }


def run_all(smoke: bool = False) -> dict:
    rng = np.random.default_rng(14036968)
    results = {}

    # Dense-small: the A^4 chain session where Python overhead dominates.
    n = 96 if smoke else 192
    count = 150 if smoke else 400
    a0 = 0.1 * rng.standard_normal((n, n))
    results["dense_small"] = bench_scenario(
        "dense-small", A4_SOURCE, {"A": a0}, {"n": n},
        _row_updates(rng, n, count), backend="dense",
        repeats=3 if smoke else 5,
    )

    # 1%-sparse: graph-shaped operator, CSR state, sparse row edits.
    n = 384 if smoke else 768
    count = 80 if smoke else 200
    a0 = ((rng.random((n, n)) < 0.01) * (0.05 * rng.standard_normal((n, n))))
    results["sparse_1pct"] = bench_scenario(
        "1%-sparse", A4_SOURCE.replace("C := B * B; output C;", "output B;"),
        {"A": a0}, {"n": n},
        _row_updates(rng, n, count, row_density=0.01), backend="sparse",
        repeats=3,
    )

    # p=16 long stream: thin iterate views over a dense operator.
    n = 256 if smoke else 512
    p = 16
    count = 300 if smoke else 800
    a0 = 0.05 * rng.standard_normal((n, n))
    x0 = rng.standard_normal((n, p))
    results["stream_p16"] = bench_scenario(
        "p=16 long-stream", STREAM_SOURCE, {"A": a0, "X": x0},
        {"n": n, "p": p}, _row_updates(rng, n, count), backend="dense",
        repeats=3,
    )
    return results


def report(results: dict) -> None:
    for scenario in results.values():
        print(f"{scenario['scenario']} (backend={scenario['backend']}, "
              f"{scenario['updates']} updates)")
        for name, sec in sorted(scenario["seconds_per_update"].items(),
                                key=lambda kv: kv[1]):
            print(f"  {name:<10} {sec * 1e6:10.1f} us/update")
        print(f"  -> fused {scenario['speedup_fused_vs_interpret']:.2f}x vs "
              f"interpret, {scenario['speedup_fused_vs_codegen']:.2f}x vs "
              f"generic codegen")
        steady = scenario["steady_state"]
        print(f"  -> steady state: {steady['net_bytes_per_update']:.0f} "
              f"B/update net, workspace allocations "
              f"{steady['workspace_allocations']}, repo block growth "
              f"{steady['repo_block_growth']}")


def check(results: dict, smoke: bool = False) -> list[str]:
    """Acceptance violations (empty = pass)."""
    problems = []
    dense = results["dense_small"]
    min_speedup = MIN_DENSE_SPEEDUP
    if dense["speedup_fused_vs_interpret"] < min_speedup:
        problems.append(
            f"dense-small fused speedup "
            f"{dense['speedup_fused_vs_interpret']:.2f}x < {min_speedup}x "
            f"vs interpreter"
        )
    for key in ("dense_small", "stream_p16"):
        steady = results[key]["steady_state"]
        if steady["workspace_allocations"] not in (0, None):
            problems.append(
                f"{key}: workspace grew by "
                f"{steady['workspace_allocations']} buffers in steady state"
            )
        if steady["net_bytes_per_update"] > MAX_STEADY_BYTES_PER_UPDATE:
            problems.append(
                f"{key}: {steady['net_bytes_per_update']:.0f} net B/update "
                f"in steady state (expected ~0)"
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
        path = write_bench_json(args.json, "fused_hotpath", results,
                                smoke=args.smoke)
        print(f"\nresults -> {path}")
    problems = check(results, smoke=args.smoke)
    for problem in problems:
        print(f"\nWARNING: {problem}")
    if not problems:
        print("\nfused hot path: zero-allocation steady state, speedup "
              "targets met")
    return 1 if problems else 0


def test_report_fused_hotpath(bench_record):
    """Smoke-size run: speedup + zero-allocation acceptance."""
    results = run_all(smoke=True)
    report(results)
    bench_record(results, smoke=True)
    problems = check(results, smoke=True)
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    raise SystemExit(main())
