#!/usr/bin/env python
"""Fail when a module's import closure grows past what it runs.

Set-up time is mostly import time (source compiles at ~7 ms per 1000
lines): a shard worker is a fresh interpreter whose boot is the sharded
session's set-up, every ``open_session`` pays the closure of
:mod:`repro.runtime.session` plus what its configuration adds, and
every CLI call pays :mod:`repro.cli`.  They stay small only while
package ``__init__``\\ s are lazy tables and optional subsystems are
imported where the decision to use them is taken (docs/invariants.md,
"Import closures"), and one stray module-level import silently undoes
that — so this script runs each gated probe in a fresh interpreter and
checks what ``sys.modules`` then holds.

Usage::

    python tools/check_import_closure.py

Prints each probe's sorted closure (``repro*`` and ``scipy*`` modules)
and exits 1 on a forbidden prefix, a module count over budget or — for
the probes in :data:`LINE_BUDGETS` — more ``repro`` source lines than
budgeted (with no ``.pyc``, what set-up pays is the lines it compiles,
not the modules it counts).  A last probe
spawns real shard workers and exits 1 if they ran their launcher: a
worker's boot is the closure gated above only while it does not also
re-import the program that opened the session.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: What a dense single-process session must not load, opened or not.
_NOT_FOR_A_DENSE_SESSION = (
    "repro.analytics", "repro.runtime.serving", "repro.runtime.drift",
    "repro.distributed", "repro.calibrate",
)

#: The reference chain, opened as ``bench_e2e``'s dense workloads do.
OPENED_SESSION = "opened session"
#: The same chain on two workers, as ``bench_e2e``'s ``sharded_chain``.
OPENED_SHARDED_SESSION = "opened sharded session"
#: ``bench_e2e``'s ``import_program`` followed by its ``dense_small``
#: open: the whole of that workload's ``setup_s``.
BENCHMARK_SETUP = "benchmark set-up"

#: What a unit-at-a-time dense session never runs: the deferral
#: policies, the pricing module, pagerank's iterative stack and its
#: charge path (``cost.ops``) and the fault-injection hooks load where
#: their use is decided.
_NOT_RUN_BY_A_UNIT_SESSION = (
    "repro.runtime.heavylight", "repro.delta.batch", "repro.cost.estimate",
    "repro.analytics.markov", "repro.iterative", "repro.testing",
    "repro.cost.ops",
)

#: probe -> (forbidden module prefixes, most ``repro*`` modules allowed:
#: measured + 2).  A probe is a module to import, or a key of PROBES.
GATED = {
    "repro.distributed.workers": (
        ("scipy", "repro.runtime.session", "repro.planner",
         "repro.compiler", "repro.backends"),
        12,
    ),
    "repro.runtime.session": (
        _NOT_FOR_A_DENSE_SESSION + _NOT_RUN_BY_A_UNIT_SESSION
        + ("repro.backends.sparse",),
        34,
    ),
    "repro.catalog": (
        ("repro.analytics", "repro.distributed", "repro.calibrate",
         "repro.backends.sparse", "repro.runtime.drift")
        + _NOT_RUN_BY_A_UNIT_SESSION,
        37,
    ),
    "repro.cli": (("scipy", "repro.compiler", "repro.backends"), 7),
    # Its arguments determine the plan, so nothing is priced: the
    # pricing stack and the sparse engine stay unloaded.
    OPENED_SESSION: (
        _NOT_FOR_A_DENSE_SESSION + _NOT_RUN_BY_A_UNIT_SESSION + (
            "repro.runtime.checkpoint", "repro.compiler.codegen.octave_gen",
            "repro.compiler.codegen.spark_gen",
            "repro.planner.planner", "repro.planner.programcost",
            "repro.cost.advisor", "repro.backends.sparse"),
        40,
    ),
    # Priced (``nodes`` is a planner axis), so the pricing stack loads;
    # the shard backend and engine are what sharding adds to the driver.
    OPENED_SHARDED_SESSION: (
        ("repro.analytics", "repro.runtime.serving",
         "repro.runtime.drift", "repro.runtime.checkpoint",
         "repro.calibrate", "repro.backends.sparse"),
        55,
    ),
    BENCHMARK_SETUP: (
        ("repro.runtime.drift", "repro.distributed", "repro.calibrate",
         "repro.backends.sparse", "repro.planner.planner")
        + _NOT_RUN_BY_A_UNIT_SESSION,
        50,
    ),
}

#: probe -> most ``repro`` source lines its closure may hold (measured
#: + 2%): ``setup_s`` follows lines compiled, not modules counted.
LINE_BUDGETS = {BENCHMARK_SETUP: 9_875}


def _bench_modules() -> tuple[str, ...]:
    """The modules ``bench_e2e.import_program`` imports (read from its
    source, which this tool must not import: it loads SciPy)."""
    tree = ast.parse((REPO / "benchmarks" / "e2e" / "bench_e2e.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_REPRO_MODULES"):
            return ast.literal_eval(node.value)
    raise LookupError("bench_e2e.py no longer names _REPRO_MODULES")


#: Probes that are more than ``import <module>``.
PROBES = {
    OPENED_SESSION: (
        "from repro.frontend import parse_program\n"
        "from repro.runtime.session import open_session\n"
        "open_session(parse_program('input A(n, n); B := A * A; "
        "C := B * B; output C;'), {'A': numpy.eye(8)}, dims={'n': 8},\n"
        "             plan='incr', mode='codegen', batch='off')"
    ),
    OPENED_SHARDED_SESSION: (
        "from repro.frontend import parse_program\n"
        "from repro.runtime.session import open_session\n"
        "open_session(parse_program('input A(n, n); B := A * A; "
        "C := B * B; output C;'), {'A': numpy.ones((64, 64))},\n"
        "             dims={'n': 64}, plan='incr', nodes=(2,), batch='off',\n"
        "             partition='uniform').close()"
    ),
    BENCHMARK_SETUP: (
        "".join(f"import {module}\n" for module in _bench_modules())
        + "from repro.frontend import parse_program\n"
        "from repro.runtime.session import open_session\n"
        "open_session(parse_program('input A(n, n); B := A * A; "
        "C := B * B; output C;'), {'A': numpy.ones((128, 128))},\n"
        "             dims={'n': 128}, plan='incr', mode='codegen',\n"
        "             batch='off', partition='uniform')"
    ),
}

#: A program that counts its own executions in ``sys.argv[1]``, one
#: line each, and opens a sharded cluster — under the main check, so a
#: worker that did boot from it would add a line instead of crashing.
_LAUNCHER = (
    "import sys\n"
    "with open(sys.argv[1], 'a') as marker:\n"
    "    marker.write('top level ran\\n')\n"
    "if __name__ == '__main__':\n"
    "    from repro.distributed import ProcessCluster, RowShardPartitioner\n"
    "    cluster = ProcessCluster(RowShardPartitioner(16, 2, tile_rows=4))\n"
    "    cluster.ping()\n"
    "    cluster.close()\n"
)

_PROBE = (
    "import sys, numpy\n"
    "{body}\n"
    "print('\\n'.join(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] in ('repro', 'scipy'))))"
)


def fresh_python(*args: str) -> str:
    """Stdout of a fresh interpreter run with ``args``: this tree's
    ``src`` importable, and no calibration cache (a developer's must
    not count)."""
    env = dict(os.environ, REPRO_CALIBRATION="off")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def closure(probe: str) -> list[str]:
    """``repro*`` / ``scipy*`` modules a fresh interpreter holds after
    ``import numpy`` and ``probe`` (a module name or a PROBES key),
    sorted."""
    return fresh_python("-c", _PROBE.format(
        body=PROBES.get(probe, f"import {probe}"))).split()


def launcher_runs() -> int:
    """How often :data:`_LAUNCHER`'s top level executes over one run that
    spawns two shard workers (once, unless a worker boots from it)."""
    with tempfile.TemporaryDirectory() as scratch:
        launcher, marker = Path(scratch, "launcher.py"), Path(scratch, "runs")
        launcher.write_text(_LAUNCHER)
        fresh_python(str(launcher), str(marker))
        return len(marker.read_text().splitlines())


def source_lines(loaded: list[str]) -> int:
    """Lines of this tree's source behind the ``repro`` modules of
    ``loaded`` (what an interpreter without ``.pyc`` compiles)."""
    total = 0
    for name in loaded:
        if name.split(".")[0] != "repro":
            continue
        path = REPO / "src" / Path(*name.split("."))
        path = path / "__init__.py" if path.is_dir() else path.with_suffix(".py")
        total += len(path.read_text().splitlines())
    return total


def violations(module: str, loaded: list[str]) -> list[str]:
    """What ``loaded`` (a :func:`closure`) breaks of ``module``'s rule."""
    forbidden, budget = GATED[module]
    problems = [
        f"{module}: imports {name} (forbidden prefix {prefix})"
        for name in loaded for prefix in forbidden
        if name == prefix or name.startswith(prefix + ".")
    ]
    own = [name for name in loaded if name.split(".")[0] == "repro"]
    if len(own) > budget:
        problems.append(
            f"{module}: imports {len(own)} repro modules, budget {budget}")
    lines = LINE_BUDGETS.get(module)
    if lines is not None and source_lines(own) > lines:
        problems.append(
            f"{module}: imports {source_lines(own)} repro source lines, "
            f"budget {lines}")
    return problems


def main() -> int:
    problems: list[str] = []
    for module in GATED:
        loaded = closure(module)
        print(f"{module}: {len(loaded)} modules, "
              f"{source_lines(loaded)} repro source lines")
        for name in loaded:
            print(f"  {name}")
        problems.extend(violations(module, loaded))
    runs = launcher_runs()
    print(f"spawned shard worker: launcher top level ran {runs} time(s)")
    if runs != 1:
        problems.append(
            f"spawned shard worker: the launching program ran {runs} times "
            f"(a worker's entry must be _worker_main alone)")
    for message in problems:
        print(message, file=sys.stderr)
    print(f"checked {len(GATED)} closures and one spawn: "
          f"{len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
