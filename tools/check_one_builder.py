#!/usr/bin/env python
"""Fail when a session is built, re-labelled or compiled outside the one
build path, a program is compiled at a concrete width, or a FLOP counter
is charged by hand.

docs/invariants.md, "One build path": ``runtime.session.build_session``
is the only function in ``src/repro`` that calls a session constructor,
and ``session.plan`` is set by the session itself, never assigned from
outside.  "One lowering": Algorithm 1 (``compile_program``) and the
expression lowering (``lower_trigger``, ``lower_evaluation``) run only
inside ``compiled_program``, its artifact's lazy lists — which every
session, the planner, the shardability check and every ``repro
compile`` printer read — and ``runtime.executor.evaluate``, which
lowers the one expression it is handed.  "One
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

Exits 1 when constructor calls sit in more than one function, any
``<not self>.plan = ...`` statement exists, a function outside
:data:`COMPILERS` compiles or lowers a program, a function outside
:data:`WIDTH_GIVERS` passes ``compiled_program`` a width, or a file
outside :data:`CHARGERS` calls ``counter.record``, or shard traffic is
modeled or priced outside :data:`TRAFFIC_MODELS`.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SESSIONS = {"IVMSession", "ReevalSession", "ShardedSession"}
#: The functions that may run Algorithm 1 or the lowering themselves:
#: the memoized artifact, its lazy lists and the one-expression executor.
COMPILERS = {
    ("compiler/compile.py", "compiled_program"),
    ("compiler/compile.py", "_memo"),
    ("runtime/executor.py", "evaluate"),
}
#: The calls that compile or lower a program.
LOWERINGS = ("compile_program", "lower_trigger", "lower_evaluation")
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


def _walk(root: Path) -> tuple[set, list, set, list, set, list]:
    builders, stores, compiling, recording, widening, modeling = (
        set(), [], set(), [], set(), [])
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
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
    return builders, stores, compiling, recording, widening, modeling


def main() -> int:
    builders, stores, compiling, _, widening, modeling = _walk(SRC)
    for rel, scope in sorted(builders):
        print(f"session constructor called in {rel}:{scope}")
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
    ok = (len(builders) == 1 and not stores and not stray and not wide
          and not by_hand and not modeling)
    print(f"{len(builders)} building function(s), {len(stores)} outside "
          f".plan assignment(s), {len(stray)} stray compiler(s), "
          f"{len(wide)} width-giving compile(s), "
          f"{len(by_hand)} hand charge(s), "
          f"{len(modeling)} hand traffic model(s): {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
