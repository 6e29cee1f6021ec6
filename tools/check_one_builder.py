#!/usr/bin/env python
"""Fail when a session is built, re-labelled or compiled outside the one
build path, a program is compiled at a concrete width, or a FLOP counter
is charged by hand.

docs/invariants.md, "One build path": ``runtime.session.build_session``
is the only function in ``src/repro`` that calls a session constructor,
each session class is defined once, in its home module
(:data:`SESSIONS`: ``ShardedSession`` in ``runtime/sharded_session.py``,
which only a sharded build imports), and ``session.plan`` is set by the
session itself, never assigned from outside.  "One lowering": Algorithm 1 (``compile_program``, and
``_compile_for_input`` for one input) and the
expression lowering (``lower_trigger``, ``lower_evaluation``) run only
inside the ``compiled_program`` artifact's lazy triggers and lists —
which every session, the planner, the shardability check and every
``repro compile`` printer read — and ``runtime.executor.evaluate``,
which lowers the one expression it is handed.  "One REEVAL": the
re-evaluation baseline is ``runtime.session.ReevalSession`` running a
program's REEVAL list, so no other ``Reeval*`` class exists under
``src/repro`` (the iterative families re-evaluate through it).  "One
INCR": the iterative families' INCR and HYBRID are sessions on their
Table 1 programs, so none of the hand-written maintainers
(:data:`HAND_MAINTAINERS`) is defined again and nothing imports the
kernel wrapper they ran on (:data:`HAND_KERNELS`).  "One
artifact per program": ``compiled_program`` compiles at a symbolic
update width that sessions and the planner bind like any dimension, so
a caller handing it a width builds a second artifact of the same
program; only :data:`WIDTH_GIVERS` (``repro compile``, which prints
shapes at ``--rank``) may.  "One FLOP ledger": the backend kernels
charge a counter, through ``cost.counters.counted``; a
``counter.record(...)`` anywhere else is a second charge table that
the kernels' ledger would drift from, so only :data:`CHARGERS` — the
counter module itself — records.  "One traffic model": the shard
traffic an op is modeled to ship is computed once, by
``distributed.comm.tile_traffic``, whose events both engines log and
the planner's list walk prices; so only :data:`TRAFFIC_MODELS` build a
``CommEvent`` or call the backends' IPC price hooks (``est_broadcast``,
``est_shuffle``), and only :data:`TRAFFIC_METERS` — the pipes, which
measure what they send — ``record`` a traffic class themselves.
AST-based — nothing is imported.

Usage::

    python tools/check_one_builder.py

Exits 1 when constructor calls sit in more than one function, a
session class is defined outside its home (or not in it), any
``<not self>.plan = ...`` statement exists, a function outside
:data:`COMPILERS` compiles or lowers a program, a function outside
:data:`WIDTH_GIVERS` passes ``compiled_program`` a width, or a file
outside :data:`CHARGERS` calls ``counter.record``, shard traffic is
modeled or priced outside :data:`TRAFFIC_MODELS`, a ``Reeval*``
class is defined outside :data:`REEVALS`, or a hand maintainer is
defined or its kernel wrapper imported.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
#: Session class -> the one file that defines it.
SESSIONS = {
    "IVMSession": "runtime/session.py",
    "HybridSession": "runtime/session.py",
    "ReevalSession": "runtime/session.py",
    "ShardedSession": "runtime/sharded_session.py",
}
#: The functions that may run Algorithm 1 or the lowering themselves:
#: the memoized artifact's lazy triggers and lists and the
#: one-expression executor.
COMPILERS = {
    ("compiler/compile.py", "compile_program"),
    ("compiler/compile.py", "__getitem__"),
    ("compiler/compile.py", "_memo"),
    ("runtime/executor.py", "evaluate"),
}
#: The calls that compile or lower a program.
LOWERINGS = ("compile_program", "_compile_for_input", "lower_trigger",
             "lower_evaluation")
#: The functions that may ask ``compiled_program`` for a concrete width.
WIDTH_GIVERS = {("cli.py", "_run_compile")}
#: The files that may call ``counter.record`` themselves.
CHARGERS = {"cost/counters.py"}
#: The functions that may model shard traffic (build a ``CommEvent``)
#: or price it (call an IPC hook): the traffic function, the ledger's
#: own ``record`` and ``program_cost``, which prices the events the
#: planner's list walk collects.
TRAFFIC_MODELS = {
    ("distributed/comm.py", "tile_traffic"),
    ("distributed/comm.py", "record"),
    ("planner/programcost.py", "program_cost"),
}
#: The calls that model or price shard traffic.
TRAFFIC_CALLS = ("CommEvent", "est_broadcast", "est_shuffle")
#: The traffic classes; ``record(<class>, ...)`` logs traffic directly.
TRAFFIC_CLASSES = ("BROADCAST", "GATHER", "SHUFFLE")
#: The files that record measured traffic (the pipes).
TRAFFIC_METERS = {"distributed/workers.py"}
#: The file that may define a ``Reeval*`` class: the one REEVAL session.
REEVALS = {"runtime/session.py"}
#: The hand-written INCR / HYBRID maintainers the sessions replaced.
HAND_MAINTAINERS = {"IncrementalPowers", "IncrementalPowerSums",
                    "IncrementalGeneral", "HybridGeneral"}
#: The module they charged through, which no code may import.
HAND_KERNELS = "repro.cost.ops"


def findings(root: Path = SRC) -> tuple[set, list]:
    """``(functions calling a session constructor, outside .plan stores)``:
    ``(file, function)`` pairs and ``(file, function, line)`` triples."""
    builders, stores, *_ = _walk(root)
    return builders, stores


def compilers(root: Path = SRC) -> set:
    """``(file, function)`` of every call in :data:`LOWERINGS`."""
    return _walk(root)[2]


def widths(root: Path = SRC) -> set:
    """``(file, function)`` of every ``compiled_program`` call given a
    width argument."""
    return _walk(root)[4]


def charges(root: Path = SRC) -> list:
    """``(file, line)`` of every ``counter.record(...)`` call outside
    :data:`CHARGERS`."""
    return [found for found in _walk(root)[3] if found[0] not in CHARGERS]


def traffic(root: Path = SRC) -> list:
    """``(file, function, line)`` of every shard-traffic model or price
    outside :data:`TRAFFIC_MODELS`, and of every ``record(<traffic
    class>, ...)`` outside :data:`TRAFFIC_METERS`."""
    return _walk(root)[5]


def reevals(root: Path = SRC) -> list:
    """``(file, class, line)`` of every ``Reeval*`` class outside
    :data:`REEVALS`."""
    return _walk(root)[6]


def hand_maintainers(root: Path = SRC) -> list:
    """``(file, name, line)`` of every hand maintainer class
    (:data:`HAND_MAINTAINERS`) and every import of :data:`HAND_KERNELS`."""
    return _walk(root)[7]


def homes(root: Path = SRC) -> list:
    """``(file, class, line)`` of every session class defined outside
    its :data:`SESSIONS` home, and ``(home, class, None)`` for every one
    its home does not define."""
    defined = _walk(root)[8]
    stray = [found for found in defined if SESSIONS[found[1]] != found[0]]
    missing = [(home, name, None) for name, home in sorted(SESSIONS.items())
               if (home, name) not in {found[:2] for found in defined}]
    return stray + missing


def _imports(node, rel: str) -> list[str]:
    """The absolute modules an import statement in ``rel`` names."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    package = ["repro", *rel.split("/")[:-1]]
    base = package[:len(package) + 1 - node.level] if node.level else []
    module = ".".join([*base, *filter(None, [node.module])])
    return [module, *(f"{module}.{alias.name}" for alias in node.names)]


def _walk(root: Path) -> tuple[set, list, set, list, set, list, list, list,
                               list]:
    builders, stores, compiling, recording, widening, modeling, classes = (
        set(), [], set(), [], set(), [], [])
    hand, sessions = [], []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if (isinstance(node, ast.ClassDef)
                    and node.name.startswith("Reeval")
                    and rel not in REEVALS):
                classes.append((rel, node.name, node.lineno))
            if isinstance(node, ast.ClassDef) and node.name in SESSIONS:
                sessions.append((rel, node.name, node.lineno))
            if isinstance(node, ast.ClassDef) and node.name in HAND_MAINTAINERS:
                hand.append((rel, node.name, node.lineno))
            if HAND_KERNELS in _imports(node, rel):
                hand.append((rel, f"import of {HAND_KERNELS}", node.lineno))
            called = isinstance(node, ast.Call) and getattr(
                node.func, "id", getattr(node.func, "attr", None))
            if called in SESSIONS:
                builders.add((rel, scope))
            if called in LOWERINGS:
                compiling.add((rel, scope))
            if called == "compiled_program" and (
                    len(node.args) > 1 or node.keywords):
                widening.add((rel, scope))
            receiver = getattr(node, "func", None)
            receiver = getattr(receiver, "value", None)
            if called == "record" and "counter" in (
                    getattr(receiver, "id", None),
                    getattr(receiver, "attr", None)):
                recording.append((rel, node.lineno))
            if called in TRAFFIC_CALLS and (rel, scope) not in TRAFFIC_MODELS:
                modeling.append((rel, scope, node.lineno))
            if (called == "record" and rel not in TRAFFIC_METERS
                    and node.args and getattr(node.args[0], "id", None)
                    in TRAFFIC_CLASSES):
                modeling.append((rel, scope, node.lineno))
            if (isinstance(node, ast.Attribute) and node.attr == "plan"
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) != "self"):
                stores.append((rel, scope, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), "<module>")
    return (builders, stores, compiling, recording, widening, modeling,
            classes, hand, sessions)


def main() -> int:
    (builders, stores, compiling, _, widening, modeling, classes,
     hand, _) = _walk(SRC)
    for rel, scope in sorted(builders):
        print(f"session constructor called in {rel}:{scope}")
    misplaced = homes(SRC)
    for rel, name, line in misplaced:
        where = f"defined at {rel}:{line}" if line else f"missing from {rel}"
        print(f"session class {name} {where} (its home is {SESSIONS[name]})")
    for rel, scope, line in stores:
        print(f"outside .plan assignment at {rel}:{line} ({scope})")
    stray = sorted(compiling - COMPILERS)
    for rel, scope in stray:
        print(f"compiles or lowers a program itself: {rel}:{scope}")
    wide = sorted(widening - WIDTH_GIVERS)
    for rel, scope in wide:
        print(f"compiles a program at a concrete width: {rel}:{scope}")
    by_hand = charges(SRC)
    for rel, line in by_hand:
        print(f"charges a counter by hand: {rel}:{line}")
    for rel, scope, line in modeling:
        print(f"models shard traffic by hand: {rel}:{line} ({scope})")
    for rel, name, line in classes:
        print(f"a second REEVAL: class {name} at {rel}:{line}")
    for rel, name, line in hand:
        print(f"a second INCR: {name} at {rel}:{line}")
    ok = (len(builders) == 1 and not misplaced and not stores and not stray
          and not wide and not by_hand and not modeling and not classes
          and not hand)
    print(f"{len(builders)} building function(s), "
          f"{len(misplaced)} misplaced session class(es), "
          f"{len(stores)} outside "
          f".plan assignment(s), {len(stray)} stray compiler(s), "
          f"{len(wide)} width-giving compile(s), "
          f"{len(by_hand)} hand charge(s), "
          f"{len(modeling)} hand traffic model(s), "
          f"{len(classes)} second REEVAL(s), "
          f"{len(hand)} second INCR(s): {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
