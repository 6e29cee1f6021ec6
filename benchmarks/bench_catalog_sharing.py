"""Shared-catalog vs independent-session maintenance across tenant counts.

The multi-view catalog's pitch (ISSUE 10): N tenants whose programs
overlap should cost as much as the *distinct* subexpressions they
define, not N times a private session.  Each cell streams the same
rank-1 update workload through:

* **shared_nN** — N fully-overlapping tenants (the same two-statement
  chain ``B := A * A; C := B * B``) registered on one
  :class:`~repro.catalog.ViewCatalog`: one inner session maintains the
  two distinct nodes whatever N is;
* **independent_nN** — the strawman: N private
  :class:`~repro.runtime.session.IVMSession`\\ s each absorbing every
  update;
* **mixed_nN** — tenants sharing the chain prefix but each adding one
  private statement (a distinct scalar weighting of the chain tip):
  distinct nodes grow as ``2 + N``, and shared work must track *that*,
  not N x 3.

The acceptance metrics are counted FLOPs (deterministic and
machine-independent, so the CI trend gate is tight): ``flatness`` =
shared FLOPs at N=8 over N=1 (floor: near-flat, <= 1.3x) and
``speedup_at_8`` = independent FLOPs over shared FLOPs at N=8 (floor:
>= 3x, the ISSUE criterion).  Wall seconds ride along for reporting.

Run as a script (or ``--smoke`` in CI)::

    PYTHONPATH=src python benchmarks/bench_catalog_sharing.py
    PYTHONPATH=src python benchmarks/bench_catalog_sharing.py --smoke --json out.json

``check_trend.py catalog`` compares the emitted JSON against the
committed baseline and fails CI on regression.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from conftest import add_json_flag, write_bench_json

CHAIN_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"

#: Tenant-count sweep (the ISSUE names N=8 as the acceptance point).
TENANT_SWEEP = (1, 2, 4, 8)
TENANT_SWEEP_SMOKE = (1, 8)

#: Acceptance: shared FLOPs at the top tenant count over N=1 —
#: "near-flat in N for fully-overlapping views".  The only per-tenant
#: work is registration bookkeeping, which is outside the maintenance
#: window, so the measured ratio is exactly 1.0; the margin covers
#: counter jitter if kernels ever become adaptive.
MAX_FLATNESS = 1.3

#: Acceptance: independent FLOPs over shared FLOPs at the top tenant
#: count (the ISSUE's ">= 3x over independent at N=8" criterion; the
#: fully-overlapping chain actually yields ~N x).
MIN_SPEEDUP_AT_TOP = 3.0

#: Mixed sweep: shared work must track distinct-node growth, not tenant
#: count.  FLOPs(N)/FLOPs(1) may exceed nodes(N)/nodes(1) only by this
#: factor.  Private nodes are scalar weightings of the shared tip, so
#: they cost *less* per update than the chain nodes and the honest
#: ratio sits below 1; re-maintaining the chain per tenant would put it
#: near N / nodes and breach the ceiling.
MAX_MIXED_TRACKING = 1.5


def _stream(rng, n: int, count: int, scale: float = 0.01):
    updates = []
    for _ in range(count):
        u = np.zeros((n, 1))
        u[rng.integers(n), 0] = 1.0
        updates.append((u, scale * rng.standard_normal((n, 1))))
    return updates


def _mixed_program(index: int):
    """The shared chain plus one tenant-private statement.

    Privates are distinct scalar weightings of the shared chain tip so
    every tenant adds exactly one node of identical maintenance cost —
    that keeps FLOPs-per-node uniform and the tracking metric honest.
    """
    from repro.frontend import parse_program

    coeff = float(index + 2)
    return parse_program(
        f"input A(n, n); B := A * A; C := B * B; "
        f"P := {coeff:g} * C + A; output P;")


def bench_shared(program_for, tenants: int, inputs, n: int, stream) -> dict:
    """One catalog, ``tenants`` registrants, the stream applied once."""
    from repro.catalog import ViewCatalog
    from repro.cost.counters import Counter
    from repro.runtime.updates import FactoredUpdate

    counter = Counter()
    catalog = ViewCatalog(counter=counter)
    for index in range(tenants):
        catalog.open(program_for(index),
                     {"A": inputs["A"].copy()} if index == 0 else None,
                     dims={"n": n})
    counter.reset()
    start = time.perf_counter()
    for u, v in stream:
        catalog.apply_update(FactoredUpdate("A", u, v))
    catalog.flush()
    seconds = time.perf_counter() - start
    return {
        "tenants": tenants,
        "seconds": seconds,
        "flops": counter.total_flops,
        "distinct_nodes": catalog.distinct_nodes,
        "node_refreshes": catalog.stats.node_refreshes,
        "shared_hits": catalog.stats.shared_hits,
    }


def bench_independent(program_for, tenants: int, inputs, n: int,
                      stream) -> dict:
    """N private sessions, each absorbing every update."""
    from repro.cost.counters import Counter
    from repro.runtime.session import IVMSession
    from repro.runtime.updates import FactoredUpdate

    counter = Counter()
    sessions = [
        IVMSession(program_for(index), {"A": inputs["A"].copy()},
                   dims={"n": n}, counter=counter)
        for index in range(tenants)
    ]
    counter.reset()
    start = time.perf_counter()
    for u, v in stream:
        for session in sessions:
            session.apply_update(FactoredUpdate("A", u.copy(), v.copy()))
    for session in sessions:
        session.flush()
    seconds = time.perf_counter() - start
    return {
        "tenants": tenants,
        "seconds": seconds,
        "flops": counter.total_flops,
    }


def run_all(smoke: bool = False) -> dict:
    from repro.frontend import parse_program

    rng = np.random.default_rng(20140622)
    n = 48 if smoke else 96
    count = 12 if smoke else 40
    sweep = TENANT_SWEEP_SMOKE if smoke else TENANT_SWEEP
    top = max(sweep)
    chain = parse_program(CHAIN_SOURCE)
    inputs = {"A": 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)}
    stream = _stream(rng, n, count)

    results: dict = {"n": n, "updates": count}
    for tenants in sweep:
        results[f"shared_n{tenants}"] = bench_shared(
            lambda _: chain, tenants, inputs, n, stream)
        results[f"independent_n{tenants}"] = bench_independent(
            lambda _: chain, tenants, inputs, n, stream)
        results[f"mixed_n{tenants}"] = bench_shared(
            _mixed_program, tenants, inputs, n, stream)

    shared_low = results[f"shared_n{min(sweep)}"]
    shared_top = results[f"shared_n{top}"]
    mixed_low = results[f"mixed_n{min(sweep)}"]
    mixed_top = results[f"mixed_n{top}"]
    results["derived"] = {
        "top_tenants": top,
        "flatness": shared_top["flops"] / max(shared_low["flops"], 1),
        "speedup_at_top": (results[f"independent_n{top}"]["flops"]
                           / max(shared_top["flops"], 1)),
        "seconds_speedup_at_top": (
            results[f"independent_n{top}"]["seconds"]
            / max(shared_top["seconds"], 1e-9)),
        "mixed_flops_ratio": mixed_top["flops"] / max(mixed_low["flops"], 1),
        "mixed_nodes_ratio": (mixed_top["distinct_nodes"]
                              / max(mixed_low["distinct_nodes"], 1)),
    }
    return results


def report(results: dict) -> None:
    print(f"n={results['n']}  {results['updates']} rank-1 updates per cell")
    for key, cell in results.items():
        if not isinstance(cell, dict) or "flops" not in cell:
            continue
        nodes = (f"  {cell['distinct_nodes']} nodes"
                 if "distinct_nodes" in cell else "")
        print(f"{key:<16} {cell['tenants']} tenants  "
              f"{cell['flops']:>14,} FLOPs  "
              f"{cell['seconds'] * 1e3:8.2f} ms{nodes}")
    derived = results["derived"]
    print(f"shared scaling N=1 -> N={derived['top_tenants']}: "
          f"{derived['flatness']:.2f}x FLOPs (flat = 1.0); "
          f"shared vs independent at N={derived['top_tenants']}: "
          f"{derived['speedup_at_top']:.1f}x FLOPs, "
          f"{derived['seconds_speedup_at_top']:.1f}x wall")
    print(f"mixed families: {derived['mixed_nodes_ratio']:.1f}x nodes -> "
          f"{derived['mixed_flops_ratio']:.1f}x FLOPs "
          f"(work tracks distinct subexpressions)")


def check(results: dict) -> list[str]:
    """Acceptance violations (empty = pass)."""
    problems = []
    derived = results["derived"]
    if derived["flatness"] > MAX_FLATNESS:
        problems.append(
            f"shared FLOPs grew {derived['flatness']:.2f}x from N=1 to "
            f"N={derived['top_tenants']} fully-overlapping tenants "
            f"(near-flat ceiling {MAX_FLATNESS}x)"
        )
    if derived["speedup_at_top"] < MIN_SPEEDUP_AT_TOP:
        problems.append(
            f"shared maintenance only {derived['speedup_at_top']:.1f}x "
            f"cheaper than independent at N={derived['top_tenants']} "
            f"(floor {MIN_SPEEDUP_AT_TOP}x)"
        )
    tracking = (derived["mixed_flops_ratio"]
                / max(derived["mixed_nodes_ratio"], 1e-9))
    if tracking > MAX_MIXED_TRACKING:
        problems.append(
            f"mixed-family shared FLOPs outgrew distinct-node growth "
            f"{tracking:.2f}x (ceiling {MAX_MIXED_TRACKING}x): work is "
            f"scaling with tenants, not subexpressions"
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
        path = write_bench_json(args.json, "catalog_sharing", results,
                                smoke=args.smoke)
        print(f"\nresults -> {path}")
    problems = check(results)
    for problem in problems:
        print(f"\nWARNING: {problem}")
    if not problems:
        print("\nmulti-view catalog: shared maintenance is flat in tenant "
              "count and tracks distinct subexpressions")
    return 1 if problems else 0


def test_report_catalog_sharing(bench_record):
    """Smoke-size run: flatness + sharing-speedup acceptance."""
    results = run_all(smoke=True)
    report(results)
    bench_record(results, smoke=True)
    problems = check(results)
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    raise SystemExit(main())
