"""Fail CI when a benchmark regresses against its committed baseline.

Usage::

    python benchmarks/check_trend.py <bench> CURRENT.json BASELINE.json

``<bench>`` is one of the names in :data:`TABLE` (``batch``, ``hl``,
``serve``, ``dist``, ``recovery``, ``catalog``); both files are
that benchmark's ``--json`` output, and the baselines live in
``benchmarks/baselines/``.  Exit status: 0 = within bounds, 1 =
regression, 2 = usage error.

Absolute seconds are not comparable across machines (a baseline was
committed from one box, CI runs on another), so every guarded metric is
a **ratio measured inside one run** — batched vs unit, snapshot vs
flush-on-read, 4 workers vs 1, restore vs log replay, shared vs
independent FLOPs.  One table declares, per benchmark:

* :class:`Metric` rows — a value at a path in the results, which way is
  better, the fractional *budget* it may lose against the baseline's
  value, an optional *cap* on the baseline before the budget is applied
  (ratios over microsecond reads or scheduler luck swing 2x while any
  real regression crashes them toward 1x; the cap keeps the gate
  sensitive without flapping), and an optional machine-independent
  absolute *bound* (floor when higher is better, ceiling when lower);
* :class:`Invariant` rows — a predicate on a value that must hold on
  every run regardless of the baseline (bitwise parity, the planner
  still recommending the guarded path).

A metric fails when it is worse than the tighter of the two limits
``baseline * (1 -/+ budget)`` and ``bound``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: The regression budget every ratio gate shares.
BUDGET = 0.25


@dataclass(frozen=True)
class Metric:
    """One guarded number: where it lives and how far it may move."""

    path: tuple[str, ...]
    what: str
    better: str = "higher"
    #: Allowed fractional loss vs the baseline; ``None`` = bound only.
    budget: float | None = BUDGET
    #: The baseline's value is clamped to this before budgeting.
    cap: float | None = None
    #: Absolute floor (``higher``) or ceiling (``lower``).
    bound: float | None = None
    #: The bound applies only where this holds of the current results.
    bound_when: Callable[[dict], bool] | None = None
    #: Divide by the value at this path (floored at 1e-9) first.
    per: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Invariant:
    """A machine-independent property re-checked on every run.

    A ``"*"`` path element fans out over every dict-valued entry at
    that level; with ``optional`` a missing path holds vacuously.
    """

    path: tuple[str, ...]
    what: str
    holds: Callable[[Any], bool]
    optional: bool = False


def _staleness_within_bound(cell: dict) -> bool:
    bound = cell.get("staleness_bound")
    return not bound or int(cell["max_staleness_observed"]) <= int(bound)


def _scenario_rows(keys, metric: str, what: str, **kw) -> list[Metric]:
    return [Metric((key, metric), f"{key}: {what}", **kw) for key in keys]


#: bench name -> (result-file stem, rows).  Every budget, cap, floor and
#: guarded key is carried over verbatim from the seven per-bench
#: checkers this table replaced.
TABLE: dict[str, tuple[str, list]] = {
    # Batched-vs-unit speedup on the highest-skew cells (the Table 4
    # headline; flat cells are noisier), the planner's width > 1
    # recommendation and the skewed-stream compression.
    "batch": ("batch_pipeline", [
        row
        for key in ("incr_theta2", "reeval_theta2")
        for row in (
            Metric((key, "speedup_batched_vs_unit"),
                   f"{key}: batched speedup"),
            Invariant((key, "recommended_width"),
                      f"{key}: planner recommends batching (width > 1)",
                      lambda width: int(width) > 1),
            Metric((key, "achieved_compression"),
                   f"{key}: skewed-stream compression",
                   budget=None, bound=1.5),
        )
    ]),
    # Heavy-light vs best uniform on the skewed cells, ISSUE 8's 2x bar
    # re-checked absolutely, and the planner's partition choices.
    "hl": ("heavylight", [
        *_scenario_rows(("theta1.2", "theta2"), "speedup_hl_vs_best_uniform",
                        "heavy-light speedup", bound=2.0),
        *[Invariant((key, "recommended_partition"),
                    f"{key}: planner recommends heavy-light",
                    lambda choice: choice == "heavy-light")
          for key in ("theta1.2", "theta2")],
        Invariant(("theta0", "recommended_partition"),
                  "theta0: planner keeps uniform on a uniform stream "
                  "(the heavy set must collapse)",
                  lambda choice: choice == "uniform", optional=True),
    ]),
    # Snapshot vs flush-on-read p99, the 5x floor, writer throughput
    # under readers, and the staleness bound of every snapshot cell.
    "serve": ("serve_latency", [
        Metric(("derived", "speedup_p99"), "snapshot read p99 speedup",
               cap=40.0, bound=5.0),
        Metric(("derived", "writer_scaling_r8_vs_r1"),
               "writer throughput under readers vs 1 reader",
               budget=None, bound=0.25),
        Invariant(("*",), "observed staleness within its bound",
                  _staleness_within_bound),
    ]),
    # 4-worker speedup over single-process.  The acceptance floor (2x at
    # n >= 2048) is only physical where the hardware can parallelize, so
    # it binds when the *current* artifact reports >= 4 CPUs at full
    # size; elsewhere the relative gate and the invariants carry it.
    "dist": ("fig3g_distributed", [
        Metric(("derived", "speedup_w4"), "4-worker speedup",
               cap=8.0, bound=2.0,
               bound_when=lambda cur: int(cur.get("cpu_count") or 0) >= 4
               and int(cur.get("n", 0)) >= 2048),
        Invariant(("parity", "bitwise_all_engines"),
                  "sharded results bitwise identical to single-process",
                  bool),
        Invariant(("parity", "allclose_vs_recompute"),
                  "maintained chain matches ground-truth recompute",
                  bool),
        Metric(("parity", "comm_model_error"),
               "modeled-vs-measured broadcast bytes disagreement",
               better="lower", budget=None, bound=0.10),
        Metric(("parity", "gather_model_error"),
               "modeled-vs-measured gather bytes disagreement",
               better="lower", budget=None, bound=0.10),
        Invariant(("parity", "measured_broadcast_bytes"),
                  "broadcast traffic was measured (comm layer instruments "
                  "real bytes)", lambda nbytes: int(nbytes) > 0),
    ]),
    # Restore+tail vs full log replay; an inexact recovery is state
    # corruption, not a slowdown.
    "recovery": ("recovery", [
        Invariant(("exact_restore",), "exact_restore (recovery is bitwise)",
                  bool),
        Invariant(("exact_log_replay",),
                  "exact_log_replay (recovery is bitwise)", bool),
        Metric(("derived", "recovery_speedup"), "checkpoint recovery speedup",
               cap=20.0, bound=1.5),
    ]),
    # Counted-FLOP ratios — deterministic, so any regression is real
    # extra work: sharing speedup at the top tenant count, shared work
    # flat in tenant count, work tracking distinct nodes.
    "catalog": ("catalog_sharing", [
        Metric(("derived", "speedup_at_top"), "sharing speedup at top N",
               bound=3.0),
        Metric(("derived", "flatness"), "shared work growth with tenant count",
               better="lower", bound=1.3),
        Metric(("derived", "mixed_flops_ratio"),
               "mixed-family work per distinct-node growth",
               better="lower", budget=None, bound=1.5,
               per=("derived", "mixed_nodes_ratio")),
    ]),
}

_MISSING = object()


def load(path) -> dict:
    """The ``results`` block of a bench JSON (or the bare dict)."""
    data = json.loads(Path(path).read_text())
    return data.get("results", data)


def _lookup(results, path):
    """``[(label, value)]`` at ``path``; ``"*"`` fans out over dict cells."""
    found = [("", results)]
    for part in path:
        step = []
        for label, node in found:
            if not isinstance(node, dict):
                step.append((label, _MISSING))
            elif part == "*":
                step.extend((f"{label}{key}: ", cell)
                            for key, cell in node.items()
                            if isinstance(cell, dict))
            else:
                step.append((label, node.get(part, _MISSING)))
        found = step
    return found


def _value(results, row: Metric):
    [(_, value)] = _lookup(results, row.path)
    if value is _MISSING or row.per is None:
        return value
    [(_, divisor)] = _lookup(results, row.per)
    return value / max(divisor, 1e-9)


def limit(row: Metric, current: dict, baseline: dict) -> float | None:
    """The floor (or ceiling) ``row`` must clear; ``None`` = missing data."""
    sign = 1.0 if row.better == "higher" else -1.0
    limits = []
    if row.budget is not None:
        then = _value(baseline, row)
        if then is _MISSING:
            return None
        then = float(then)
        if row.cap is not None:
            then = min(then, row.cap)
        limits.append(then * (1.0 - sign * row.budget))
    if row.bound is not None and (
        row.bound_when is None or row.bound_when(current)
    ):
        limits.append(row.bound)
    if not limits:
        return -sign * float("inf")
    return max(limits) if row.better == "higher" else min(limits)


def check(bench: str, current: dict, baseline: dict) -> list[str]:
    """Every failure message of ``bench``'s rows (empty = within bounds)."""
    failures = []
    for row in TABLE[bench][1]:
        if isinstance(row, Invariant):
            for label, value in _lookup(current, row.path):
                if value is _MISSING:
                    if not row.optional:
                        failures.append(f"{label}{row.what}: missing from "
                                        f"the current JSON")
                elif not row.holds(value):
                    failures.append(f"{label}{row.what}: violated "
                                    f"(got {_brief(value)})")
            continue
        now = _value(current, row)
        edge = limit(row, current, baseline)
        if now is _MISSING or edge is None:
            failures.append(f"{row.what}: missing from current or "
                            f"baseline JSON")
            continue
        now = float(now)
        ok = now >= edge if row.better == "higher" else now <= edge
        kind = "floor" if row.better == "higher" else "ceiling"
        print(f"{row.what}: {now:.4g} ({kind} {edge:.4g}) "
              f"{'OK' if ok else 'REGRESSED'}")
        if not ok:
            failures.append(f"{row.what}: {now:.4g} is past the {kind} "
                            f"{edge:.4g}")
    return failures


def _brief(value) -> str:
    text = repr(value)
    return text if len(text) <= 60 else text[:57] + "..."


def main(argv=None) -> int:
    """CLI entry point; returns the exit status."""
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3 or argv[0] not in TABLE:
        print(__doc__)
        return 2
    bench = argv[0]
    failures = check(bench, load(argv[1]), load(argv[2]))
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print(f"{bench} trend: within baseline envelope")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
