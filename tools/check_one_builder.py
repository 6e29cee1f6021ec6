#!/usr/bin/env python
"""Fail when a session is built, or re-labelled, outside the one build path.

docs/invariants.md, "One build path": ``runtime.session.build_session``
is the only function in ``src/repro`` that calls a session constructor,
and ``session.plan`` is set by the session itself, never assigned from
outside.  AST-based — nothing is imported.

Usage::

    python tools/check_one_builder.py

Exits 1 when constructor calls sit in more than one function or any
``<not self>.plan = ...`` statement exists.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
SESSIONS = {"IVMSession", "ReevalSession", "ShardedSession"}
#: ``make_ols`` labels the OLS *maintainer* it returns (not a session).
NOT_A_SESSION = {("analytics/ols.py", "make_ols")}


def findings(root: Path = SRC) -> tuple[set, list]:
    """``(functions calling a session constructor, outside .plan stores)``,
    each entry a ``(file, function, line)`` triple."""
    builders, stores = set(), []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()

        def visit(node, scope):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = node.name
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", getattr(node.func, "attr", None)) in SESSIONS:
                builders.add((rel, scope))
            if (isinstance(node, ast.Attribute) and node.attr == "plan"
                    and isinstance(node.ctx, ast.Store)
                    and getattr(node.value, "id", None) != "self"
                    and (rel, scope) not in NOT_A_SESSION):
                stores.append((rel, scope, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, scope)

        visit(ast.parse(path.read_text()), "<module>")
    return builders, stores


def main() -> int:
    builders, stores = findings()
    for rel, scope in sorted(builders):
        print(f"session constructor called in {rel}:{scope}")
    for rel, scope, line in stores:
        print(f"outside .plan assignment at {rel}:{line} ({scope})")
    ok = len(builders) == 1 and not stores
    print(f"{len(builders)} building function(s), {len(stores)} outside "
          f".plan assignment(s): {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
