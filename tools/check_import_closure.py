#!/usr/bin/env python
"""Fail when a module's import closure grows past what it runs.

Set-up time is mostly import time (source compiles at ~7 ms per 1000
lines): a shard worker is a fresh interpreter whose boot — the closure
of its spawn target, :data:`WORKER_ENTRY` — is the sharded session's
set-up, every ``open_session`` pays the closure of
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
and the ``repro`` dataclasses it built, and exits 1 on a forbidden
prefix, a module count over budget or — for the probes in
:data:`LINE_BUDGETS` — more ``repro`` source lines than budgeted (with
no ``.pyc``, what set-up pays is the lines it compiles, not the modules
it counts), or — for the probes in :data:`DATACLASS_BUDGETS` — more
dataclasses than budgeted (building one costs about a millisecond, a
``typing.NamedTuple`` a tenth of that, and no line count sees it).  A
last probe
spawns a real shard worker and exits 1 if its target is not
:data:`WORKER_ENTRY`'s ``_worker_main`` or it ran its launcher: a
worker's boot is the closure gated above only while it is spawned
through that entry and does not also re-import the program that opened
the session.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The module a shard worker is spawned into: its closure is the boot.
WORKER_ENTRY = "repro.distributed.node"

#: What a dense single-process session must not load, opened or not.
_NOT_FOR_A_DENSE_SESSION = (
    "repro.analytics", "repro.runtime.serving", "repro.runtime.drift",
    "repro.distributed", "repro.calibrate",
)

#: The reference chain, opened as ``bench_e2e``'s dense workloads do.
OPENED_SESSION = "opened session"
#: The same chain on two workers, as ``bench_e2e``'s ``sharded_chain``.
OPENED_SHARDED_SESSION = "opened sharded session"
#: The same chain priced and monitored, as ``bench_e2e``'s ``zipf_*``.
OPENED_PRICED_SESSION = "opened priced session"
#: Eight tenants on one unbudgeted catalog, as ``bench_e2e``'s
#: ``catalog_tenants``: registered, one update, one read.
OPENED_CATALOG = "opened catalog"
#: ``bench_e2e``'s ``import_program`` followed by its ``dense_small``
#: open: the whole of that workload's ``setup_s``.
BENCHMARK_SETUP = "benchmark set-up"
#: ``bench_e2e``'s ``sparse_pagerank`` driver forced to REEVAL, opened
#: and edited once: the family's program on a REEVAL session.
OPENED_PAGERANK = "opened pagerank (REEVAL)"
#: The same driver under its default strategy: the program on a
#: HYBRID session.
OPENED_HYBRID_PAGERANK = "opened pagerank (HYBRID)"
#: ``bench_e2e``'s ``sparse_pagerank`` open itself: a dense 2048-node
#: graph, ``strategy="auto"``, planned onto a REEVAL session.
OPENED_AUTO_PAGERANK = "opened pagerank (auto)"

#: What a unit-at-a-time dense session never runs: the deferral
#: policies, the pricing module, pagerank's iterative stack and the
#: fault-injection hooks load where their use is decided.
_NOT_RUN_BY_A_UNIT_SESSION = (
    "repro.runtime.heavylight", "repro.delta.batch", "repro.cost.estimate",
    "repro.analytics.markov", "repro.iterative", "repro.testing",
)

#: What a driver given its strategy neither ranks nor runs: the
#: planner, its list pricer, the iterative-family advisor and the
#: estimates and closed forms behind it (only ``"auto"`` ranks), and
#: the serving, drift and distributed layers.
_NOT_FOR_A_FORCED_DRIVER = (
    "repro.planner.planner", "repro.planner.programcost",
    "repro.cost.advisor", "repro.cost.estimate", "repro.cost.complexity",
    "repro.runtime.serving", "repro.runtime.drift", "repro.distributed",
    "repro.calibrate",
)

#: probe -> (forbidden module prefixes, most ``repro*`` modules allowed:
#: measured + 2).  A probe is a module to import, or a key of PROBES.
GATED = {
    # The worker's boot: the tile kernels, its loop and the segments it
    # maps, and none of the coordinator (pipes, traffic, tiling, faults).
    WORKER_ENTRY: (
        ("scipy", "repro.testing", "repro.distributed.workers",
         "repro.distributed.comm", "repro.distributed.partitioner",
         "repro.runtime.session", "repro.compiler", "repro.backends"),
        9,
    ),
    # The coordinator's side: the pipes, the supervisor, node 0.
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
    # One forced node count and a forced batch width determine the plan
    # too: nothing is priced, and the shard backend and engine are what
    # sharding adds to the driver.
    OPENED_SHARDED_SESSION: (
        ("repro.analytics", "repro.runtime.serving",
         "repro.runtime.drift", "repro.runtime.checkpoint",
         "repro.calibrate", "repro.backends.sparse",
         "repro.planner.planner", "repro.planner.programcost",
         "repro.cost.estimate", "repro.cost.advisor"),
        47,
    ),
    # Priced: the planner and the program pricer load, but the
    # iterative-family advisor only driver plans rank does not.
    OPENED_PRICED_SESSION: (
        ("repro.cost.advisor", "repro.cost.complexity", "repro.iterative",
         "repro.analytics", "repro.distributed", "repro.calibrate",
         "repro.backends.sparse"),
        45,
    ),
    # No budget, so nothing is evicted and nothing priced: the pricer
    # loads where the first eviction is decided.
    OPENED_CATALOG: (
        ("repro.planner.programcost", "repro.planner.planner",
         "repro.cost.estimate"),
        42,
    ),
    BENCHMARK_SETUP: (
        ("repro.runtime.drift", "repro.distributed", "repro.calibrate",
         "repro.backends.sparse", "repro.planner.planner")
        + _NOT_RUN_BY_A_UNIT_SESSION,
        50,
    ),
    # REEVAL re-runs the family's program, HYBRID runs its triggers:
    # each is a session, and nothing ranks a strategy.
    OPENED_PAGERANK: (_NOT_FOR_A_FORCED_DRIVER, 46),
    OPENED_HYBRID_PAGERANK: (_NOT_FOR_A_FORCED_DRIVER, 46),
    # "auto" ranks the iterative grid density-aware: the advisor and the
    # estimates load, Table 2's closed forms and the list pricer do not.
    OPENED_AUTO_PAGERANK: (
        ("repro.cost.complexity", "repro.planner.programcost",
         "repro.runtime.serving", "repro.runtime.drift", "repro.distributed",
         "repro.calibrate"),
        53,
    ),
}

#: probe -> most ``repro`` source lines its closure may hold (measured
#: + 2%): ``setup_s`` follows lines compiled, not modules counted — and
#: a worker compiles its closure at every boot.
LINE_BUDGETS = {BENCHMARK_SETUP: 9_534, WORKER_ENTRY: 719,
                OPENED_SESSION: 6_745, OPENED_PRICED_SESSION: 9_412,
                OPENED_AUTO_PAGERANK: 9_454}

#: probe -> most ``repro`` dataclasses its closure may build (measured,
#: no slack): a frozen record nothing validates, caches or ``asdict``\ s
#: is a ``typing.NamedTuple``.
DATACLASS_BUDGETS = {BENCHMARK_SETUP: 7, OPENED_SESSION: 4}


def _bench_modules() -> tuple[str, ...]:
    """The modules ``bench_e2e.import_program`` imports (read from its
    source, which this tool must not import: it loads SciPy)."""
    tree = ast.parse((REPO / "benchmarks" / "e2e" / "bench_e2e.py").read_text())
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_REPRO_MODULES"):
            return ast.literal_eval(node.value)
    raise LookupError("bench_e2e.py no longer names _REPRO_MODULES")


def _pagerank(strategy: str) -> str:
    """``sparse_pagerank``'s driver on a small graph, opened with
    ``strategy`` (keyword text, or none for the default) and edited."""
    return (
        "import scipy.sparse\n"
        "from repro.analytics.pagerank import IncrementalPageRank\n"
        "driver = IncrementalPageRank(scipy.sparse.random(\n"
        "    256, 256, density=0.02, format='csr', random_state=0), k=16,\n"
        f"    {strategy}backend='sparse')\n"
        "driver.add_edge(0, 1)\n"
        "driver.ranks"
    )


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
        "session = open_session(parse_program('input A(n, n); "
        "B := A * A; C := B * B; output C;'), {'A': numpy.ones((64, 64))},\n"
        "                       dims={'n': 64}, plan='incr', nodes=(2,),\n"
        "                       batch='off', partition='uniform')\n"
        "session.close()\n"
        "if type(session).__name__ != 'ShardedSession':\n"
        "    sys.exit(f'opened {type(session).__name__}, not a "
        "ShardedSession')"
    ),
    OPENED_PRICED_SESSION: (
        "from repro.frontend import parse_program\n"
        "from repro.runtime.session import open_session\n"
        "open_session(parse_program('input A(n, n); B := A * A; "
        "C := B * B; output C;'), {'A': numpy.ones((512, 512))},\n"
        "             dims={'n': 512}, plan='auto', replan=True,\n"
        "             refresh_count=36000)"
    ),
    OPENED_CATALOG: (
        "from repro.catalog import ViewCatalog\n"
        "from repro.frontend import parse_program\n"
        "from repro.runtime.session import open_session\n"
        "from repro.runtime.updates import FactoredUpdate\n"
        "catalog = ViewCatalog()\n"
        "tenants = [open_session(parse_program(\n"
        "    f'input A(n, n); B := A * A; C := B * B; P := {i + 2} * C + A; "
        "output P;'),\n"
        "    {'A': numpy.eye(16)} if i == 0 else None, dims={'n': 16},\n"
        "    catalog=catalog) for i in range(8)]\n"
        "catalog.apply_update(FactoredUpdate('A', numpy.ones((16, 1)), "
        "numpy.ones((16, 1))))\n"
        "tenants[0]['P']"
    ),
    OPENED_PAGERANK: _pagerank("strategy='REEVAL', "),
    OPENED_HYBRID_PAGERANK: _pagerank(""),
    OPENED_AUTO_PAGERANK: (
        "import scipy.sparse\n"
        "from repro.analytics.pagerank import IncrementalPageRank\n"
        "from repro.workloads.generators import random_adjacency\n"
        "driver = IncrementalPageRank(random_adjacency(\n"
        "    numpy.random.default_rng(0), 2048, 20.0), k=16, strategy='auto',\n"
        "    backend='sparse')\n"
        "driver.add_edge(0, 1)\n"
        "driver.ranks\n"
        "if driver.plan.label != 'REEVAL-LIN@sparse/interpret':\n"
        "    sys.exit(f'planned {driver.plan.label}')"
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
#: worker that did boot from it would add a line instead of crashing —
#: noting there the target of each process it starts.
_LAUNCHER = (
    "import sys\n"
    "with open(sys.argv[1], 'a') as marker:\n"
    "    marker.write('top level ran\\n')\n"
    "if __name__ == '__main__':\n"
    "    from multiprocessing.process import BaseProcess\n"
    "    from repro.distributed import ProcessCluster, RowShardPartitioner\n"
    "    start = BaseProcess.start\n"
    "    def noted(process):\n"
    "        target = process._target\n"
    "        with open(sys.argv[1], 'a') as marker:\n"
    "            marker.write(f'target {target.__module__}.'\n"
    "                         f'{target.__qualname__}\\n')\n"
    "        start(process)\n"
    "    BaseProcess.start = noted\n"
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

#: Appended to a :data:`_PROBE`: after a marker line, every dataclass
#: defined at the top level of a loaded ``repro`` module.
_BUILT = "-- dataclasses"
_DATACLASSES = (
    "import dataclasses\n"
    f"print({_BUILT!r})\n"
    "print('\\n'.join(sorted(\n"
    "    f'{name}.{value.__qualname__}'\n"
    "    for name, module in list(sys.modules.items())\n"
    "    if name.split('.')[0] == 'repro' and module is not None\n"
    "    for value in vars(module).values()\n"
    "    if isinstance(value, type) and value.__module__ == name\n"
    "    and dataclasses.is_dataclass(value))))"
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


def probe_run(probe: str) -> tuple[list[str], list[str]]:
    """``(modules, dataclasses)`` of a fresh interpreter after ``import
    numpy`` and ``probe`` (a module name or a PROBES key): its
    ``repro*`` / ``scipy*`` modules and the dataclasses defined in its
    ``repro`` modules, each sorted."""
    out = fresh_python("-c", _PROBE.format(
        body=PROBES.get(probe, f"import {probe}")) + "\n" + _DATACLASSES)
    loaded, built = out.split(_BUILT)
    return loaded.split(), built.split()


def closure(probe: str) -> list[str]:
    """``repro*`` / ``scipy*`` modules a fresh interpreter holds after
    ``import numpy`` and ``probe`` (a module name or a PROBES key),
    sorted."""
    return probe_run(probe)[0]


def spawned_worker() -> tuple[int, str]:
    """How often :data:`_LAUNCHER`'s top level executes over one run that
    opens a two-node cluster (once, unless its spawned worker boots from
    it), and the worker's spawn target."""
    with tempfile.TemporaryDirectory() as scratch:
        launcher, marker = Path(scratch, "launcher.py"), Path(scratch, "runs")
        launcher.write_text(_LAUNCHER)
        fresh_python(str(launcher), str(marker))
        lines = marker.read_text().splitlines()
    targets = [line.split()[1] for line in lines if line.startswith("target ")]
    return lines.count("top level ran"), " ".join(targets)


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


def violations(module: str, loaded: list[str],
               built: list[str] = ()) -> list[str]:
    """What ``loaded`` (a :func:`closure`) and ``built`` (its
    dataclasses) break of ``module``'s rule."""
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
    classes = DATACLASS_BUDGETS.get(module)
    if classes is not None and len(built) > classes:
        problems.append(
            f"{module}: builds {len(built)} repro dataclasses, "
            f"budget {classes}")
    return problems


def main() -> int:
    problems: list[str] = []
    for module in GATED:
        try:
            loaded, built = probe_run(module)
        except subprocess.CalledProcessError as failed:
            problems.append(f"{module}: probe failed: "
                            f"{failed.stderr.strip().splitlines()[-1]}")
            continue
        print(f"{module}: {len(loaded)} modules, "
              f"{source_lines(loaded)} repro source lines, "
              f"{len(built)} dataclasses")
        for name in loaded:
            print(f"  {name}")
        for name in built:
            print(f"  dataclass {name}")
        problems.extend(violations(module, loaded, built))
    runs, target = spawned_worker()
    print(f"spawned shard worker: target {target}, launcher top level ran "
          f"{runs} time(s)")
    if target != f"{WORKER_ENTRY}._worker_main":
        problems.append(
            f"spawned shard worker: spawned into {target or 'nothing'}, not "
            f"{WORKER_ENTRY}._worker_main (whose closure is gated)")
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
