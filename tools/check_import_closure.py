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
and exits 1 on a forbidden prefix or a count over budget.  A last probe
spawns real shard workers and exits 1 if they ran their launcher: a
worker's boot is the closure gated above only while it does not also
re-import the program that opened the session.
"""

from __future__ import annotations

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

#: probe -> (forbidden module prefixes, most ``repro*`` modules allowed:
#: measured + 2).  A probe is a module to import, or a key of PROBES.
GATED = {
    "repro.distributed.workers": (
        ("scipy", "repro.runtime.session", "repro.planner",
         "repro.compiler", "repro.backends"),
        12,
    ),
    "repro.runtime.session": (
        _NOT_FOR_A_DENSE_SESSION + ("repro.backends.sparse",
                                    "repro.iterative"),
        36,
    ),
    "repro.catalog": (
        ("repro.analytics", "repro.distributed", "repro.calibrate",
         "repro.backends.sparse", "repro.runtime.drift"),
        42,
    ),
    "repro.cli": (("scipy", "repro.compiler", "repro.backends"), 7),
    # Its arguments determine the plan, so nothing is priced: the
    # pricing stack and the sparse engine stay unloaded.
    OPENED_SESSION: (
        _NOT_FOR_A_DENSE_SESSION + (
            "repro.runtime.checkpoint", "repro.compiler.optimizer",
            "repro.compiler.codegen.octave_gen",
            "repro.compiler.codegen.spark_gen", "repro.expr.latex",
            "repro.planner.planner", "repro.planner.programcost",
            "repro.cost.advisor", "repro.backends.sparse"),
        45,
    ),
    # Priced (``nodes`` is a planner axis), so the pricing stack loads;
    # the shard backend and engine are what sharding adds to the driver.
    OPENED_SHARDED_SESSION: (
        ("repro.analytics", "repro.runtime.serving",
         "repro.runtime.drift", "repro.runtime.checkpoint",
         "repro.calibrate", "repro.backends.sparse",
         "repro.distributed.engine", "repro.distributed.blockmatrix",
         "repro.distributed.cluster", "repro.compiler.optimizer"),
        57,
    ),
}

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
    return problems


def main() -> int:
    problems: list[str] = []
    for module in GATED:
        loaded = closure(module)
        print(f"{module}: {len(loaded)} modules")
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
