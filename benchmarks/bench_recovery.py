"""Checkpoint+tail recovery vs full log replay (the ISSUE 9 claim).

LINVIEW's recovery economics (Section 1's motivation for logged IVM):
views are cheap to *maintain* but expensive to *recompute*, so crash
recovery should restore the newest durable snapshot and replay only the
short delta tail — not re-evaluate the program and replay the whole
update log.  This benchmark measures both recovery paths against the
same crashed state:

* **restore** — ``restore_session`` (newest valid snapshot, checksum
  verified) + replay of the tail logged since that snapshot;
* **log replay** — rebuild from the original inputs (re-evaluate every
  view) + replay the *entire* update log.

Both must land on state **bitwise identical** to the lost live session
(the exactness invariant; allclose would hide real state corruption),
and restore must win by a margin that scales with ``updates/cadence``.
Also reported: what checkpointing cost the write path (snapshot cut
time as a fraction of maintenance time — the durability overhead).

Run as a script (or ``--smoke`` in CI)::

    PYTHONPATH=src python benchmarks/bench_recovery.py
    PYTHONPATH=src python benchmarks/bench_recovery.py --smoke --json out.json

``check_trend.py recovery`` compares the emitted JSON against the
committed baseline and fails CI on a >25% recovery-speedup regression
or any exactness violation.
"""

from __future__ import annotations

import argparse
import tempfile
import time

import numpy as np

from conftest import add_json_flag, write_bench_json

A4_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"

#: Script acceptance: checkpoint+tail recovery must beat full log
#: replay by this factor (it replays ``cadence`` updates instead of
#: ``updates``, so the floor is deliberately far below the expected
#: ``updates/cadence`` ratio).
MIN_RECOVERY_SPEEDUP = 1.5

VIEW_NAMES = ("A", "B", "C")


def _build(program, a0, directory=None, every: int = 16):
    from repro.runtime import open_session

    checkpoint = None
    if directory is not None:
        checkpoint = {"directory": directory, "every": every}
    return open_session(program, {"A": a0.copy()}, plan="incr",
                        backend="dense", mode="interpret", batch="off",
                        partition="off", checkpoint=checkpoint)


def _stream(rng, n: int, count: int):
    from repro.runtime import FactoredUpdate

    updates = []
    for _ in range(count):
        u = np.zeros((n, 1))
        u[rng.integers(n), 0] = 1.0
        updates.append(FactoredUpdate("A", u,
                                      0.01 * rng.standard_normal((n, 1))))
    return updates


def _views(session) -> dict:
    return {name: np.asarray(session[name]).copy() for name in VIEW_NAMES}


def _bitwise(a: dict, b: dict) -> bool:
    return all(np.array_equal(a[name], b[name]) for name in VIEW_NAMES)


def run_all(smoke: bool = False) -> dict:
    from repro.frontend import parse_program
    from repro.runtime import restore_session

    n = 48 if smoke else 128
    # Not a cadence multiple: the tail-replay leg must be exercised.
    updates_total = 85 if smoke else 325
    cadence = 8 if smoke else 16
    rng = np.random.default_rng(20140622)
    program = parse_program(A4_SOURCE)
    a0 = 0.2 * rng.standard_normal((n, n)) / np.sqrt(n)
    updates = _stream(rng, n, updates_total)

    with tempfile.TemporaryDirectory() as directory:
        live = _build(program, a0, directory, every=cadence)
        started = time.perf_counter()
        for update in updates:
            live.apply_update(update)
        maintain_seconds = time.perf_counter() - started
        checkpointer = live.checkpointer
        want = _views(live)
        saves = checkpointer.saves
        tail = len(updates) - saves * cadence

        # Recovery path 1: newest snapshot + tail replay.  The "crash"
        # loses the process but not the directory; the tail comes from
        # the update log (here: the slice the snapshot does not cover).
        started = time.perf_counter()
        restored = restore_session(program, directory)
        for update in updates[restored.update_count:]:
            restored.apply_update(update)
        restore_seconds = time.perf_counter() - started
        exact_restore = _bitwise(want, _views(restored))

        # Recovery path 2: no snapshot — re-evaluate from the original
        # inputs and replay the whole log.
        started = time.perf_counter()
        replayed = _build(program, a0)
        for update in updates:
            replayed.apply_update(update)
        replay_seconds = time.perf_counter() - started
        exact_replay = _bitwise(want, _views(replayed))

        # Durability overhead: time one snapshot cut costs the writer.
        started = time.perf_counter()
        checkpointer.checkpoint()
        snapshot_seconds = time.perf_counter() - started

    results = {
        "n": n,
        "updates": updates_total,
        "cadence": cadence,
        "snapshots": saves,
        "tail_updates": tail,
        "maintain_seconds": maintain_seconds,
        "restore_seconds": restore_seconds,
        "log_replay_seconds": replay_seconds,
        "snapshot_cut_seconds": snapshot_seconds,
        "exact_restore": bool(exact_restore),
        "exact_log_replay": bool(exact_replay),
        "derived": {
            "recovery_speedup": replay_seconds / max(restore_seconds, 1e-9),
            "snapshot_overhead_fraction": (
                saves * snapshot_seconds / max(maintain_seconds, 1e-9)
            ),
        },
    }
    return results


def report(results: dict) -> None:
    print(f"n={results['n']}  {results['updates']} updates, snapshot "
          f"every {results['cadence']} ({results['snapshots']} cut, "
          f"{results['tail_updates']} tail)")
    print(f"maintenance      : {results['maintain_seconds'] * 1e3:9.1f} ms")
    print(f"restore + tail   : {results['restore_seconds'] * 1e3:9.1f} ms  "
          f"(bitwise exact: {results['exact_restore']})")
    print(f"full log replay  : {results['log_replay_seconds'] * 1e3:9.1f} ms  "
          f"(bitwise exact: {results['exact_log_replay']})")
    print(f"one snapshot cut : {results['snapshot_cut_seconds'] * 1e3:9.1f} ms")
    derived = results["derived"]
    print(f"recovery speedup : {derived['recovery_speedup']:.1f}x; "
          f"durability cost {derived['snapshot_overhead_fraction']:.1%} "
          f"of maintenance time")


def check(results: dict) -> list[str]:
    """Acceptance violations (empty = pass)."""
    problems = []
    if not results["exact_restore"]:
        problems.append("restore+tail recovery is not bitwise exact")
    if not results["exact_log_replay"]:
        problems.append("log-replay recovery is not bitwise exact")
    speedup = results["derived"]["recovery_speedup"]
    if speedup < MIN_RECOVERY_SPEEDUP:
        problems.append(
            f"checkpoint recovery only {speedup:.1f}x faster than full "
            f"log replay (floor {MIN_RECOVERY_SPEEDUP}x)"
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
        path = write_bench_json(args.json, "recovery", results,
                                smoke=args.smoke)
        print(f"\nresults -> {path}")
    problems = check(results)
    for problem in problems:
        print(f"\nWARNING: {problem}")
    if not problems:
        print("\nrecovery: checkpoint+tail restore is exact and beats "
              "full log replay")
    return 1 if problems else 0


def test_report_recovery(bench_record):
    """Smoke-size run: exactness + recovery-speedup acceptance."""
    results = run_all(smoke=True)
    report(results)
    bench_record(results, smoke=True)
    problems = check(results)
    assert not problems, "; ".join(problems)


if __name__ == "__main__":
    raise SystemExit(main())
