"""A/A check: two full sets of runs of the same code.

    python3 benchmarks/e2e/aa_check.py [--seed S] [--seconds T]

Each set is the per-metric median of PASSES passes over all eight
workloads (timed and traced); the passes of the two sets alternate, and
the second set runs the workloads in the opposite order, so a slow
spell of the machine lands on both.  For every workload x gated
end-to-end metric the check prints both values, how far apart they are
and the metric's bound, and it fails when a pair is further apart than
the bound, when ``failed_ops_frac`` is not 0, when an output is wrong
or when a count-type layer metric does not repeat exactly.  The
end-to-end timings, which are not gated, are printed the same way and
marked where the two sets do not resolve them.

Each set appends one line to ``history/BENCH_e2e.jsonl``, the
benchmark's append-only trajectory; the first line of that file is the
baseline later changes are measured against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
if os.path.dirname(_HERE) not in sys.path:
    sys.path.insert(0, os.path.dirname(_HERE))

from e2e import bench_e2e, metrics

HISTORY = os.path.join(_HERE, "history", "BENCH_e2e.jsonl")
#: Passes per set.  Single passes of the two sets can sit further apart
#: than a bound on a shared box; medians of three alternating ones do not.
PASSES = 3


def environment() -> dict:
    """What a history line is keyed by."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=_HERE, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "platform": platform.platform(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "nproc": os.cpu_count(),
        "commit": commit,
    }


def values(cells: dict) -> dict[str, float]:
    return {name: cell["value"] for name, cell in cells.items()}


def medians(passes: list[dict]) -> dict:
    """Per workload: the medians of the passes' timed and traced runs."""
    merged = {}
    for name in bench_e2e.SPECS:
        pairs = [run[name] for run in passes]
        merged[name] = {
            "labels": pairs[0]["timed"]["labels"],
            "correct": all(run["result"]["correct"]
                           for pair in pairs for run in pair.values()),
            "failed_ops_frac": max(run["failed_ops_frac"]
                                   for pair in pairs for run in pair.values()),
        }
        for key, samples in (
                ("end_to_end", [values(pair["timed"]["result"]["metrics"])
                                for pair in pairs]),
                ("timings", [values(pair["timed"]["timings"])
                             for pair in pairs]),
                ("per_layer", [values(pair["traced"]["result"]["metrics"])
                               for pair in pairs])):
            merged[name][key] = {
                metric: statistics.median(sample[metric] for sample in samples)
                for metric in samples[0]}
    return merged


def apart(a: float, b: float) -> float:
    return abs(a - b) / min(a, b)


def compare(first: dict, second: dict) -> list[str]:
    """Print the A/A table; return the breaches."""
    breaches = []
    print(f"{'workload':16} {'metric':20} {'first':>12} {'second':>12} "
          f"{'apart':>8} {'bound':>7}")
    for name in first:
        for metric, _, _, bound in metrics.E2E_METRICS:
            a = first[name]["end_to_end"][metric]
            b = second[name]["end_to_end"][metric]
            slack = metrics.SETUP_SLACK_S if metric == "setup_s" else 0.0
            mark = ""
            if apart(a, b) > bound and abs(a - b) > slack:
                mark = "  <-- beyond bound"
                breaches.append(f"{name}.{metric}: {a:g} vs {b:g} "
                                f"({apart(a, b):.1%} > {bound:.0%})")
            print(f"{name:16} {metric:20} {a:12.5g} {b:12.5g} "
                  f"{apart(a, b):8.2%} {bound:7.0%}{mark}")
        for metric, a in first[name]["timings"].items():
            b = second[name]["timings"][metric]
            mark = ("  (unresolved)"
                    if apart(a, b) > metrics.DIAGNOSTIC_BOUND else "")
            print(f"{name:16} {metric:20} {a:12.5g} {b:12.5g} "
                  f"{apart(a, b):8.2%} {'-':>7}{mark}")
        for metric in metrics.EXACT_LAYER_METRICS:
            a = first[name]["per_layer"][metric]
            b = second[name]["per_layer"][metric]
            if a != b:
                breaches.append(f"{name}.{metric}: count {a!r} did not "
                                f"repeat ({b!r})")
        for results in (first, second):
            if results[name]["failed_ops_frac"] != 0:
                breaches.append(f"{name}.failed_ops_frac: "
                                f"{results[name]['failed_ops_frac']:g} != 0")
            if not results[name]["correct"]:
                breaches.append(f"{name}: an output was wrong")
    return breaches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=bench_e2e.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=bench_e2e.DEFAULT_SECONDS)
    args = parser.parse_args(argv)

    orders = (list(bench_e2e.SPECS), list(bench_e2e.SPECS)[::-1])
    passes: tuple[list, list] = ([], [])
    for _ in range(PASSES):
        for names, done in zip(orders, passes):
            started = time.time()
            done.append(bench_e2e.run_set(args.seed, args.seconds, names))
            print(f"-- pass over {len(names)} workloads took "
                  f"{time.time() - started:.0f} s")
    sets = [medians(done) for done in passes]
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as handle:
        for results in sets:
            line = {"time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                    **environment(), "seed": args.seed,
                    "run_seconds": args.seconds, "passes": PASSES,
                    "workloads": results}
            handle.write(json.dumps(line) + "\n")

    breaches = compare(*sets)
    for line in breaches:
        print("A/A breach:", line)
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
