#!/usr/bin/env python
"""Fail on missing docstrings across the exported API surface.

The local mirror of the CI ``docs-check`` ruff selection
(``D100,D101,D102,D103``): every gated module must carry a module
docstring, and every public class, method, and function in it must
too.  AST-based — nothing is imported, so it runs in any environment
(ruff is a dev extra; this script is not).

"Public" follows pydocstyle: names not starting with ``_``, at module
top level or directly inside a class body.  ``__init__`` and other
dunders are exempt (that is D105/D107 territory, deliberately not
gated — the class docstring documents construction here).

Usage::

    python tools/check_docstrings.py            # gate the default set
    python tools/check_docstrings.py FILE...    # gate specific files

Exit status is the number of missing docstrings (0 = all good).
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: The exported-API modules the docs tier promises are documented:
#: session factories and plan records, the deferral layer, the serving
#: and distributed entry points, and every analytics driver.  Keep in
#: sync with the ``docs-check`` job's ruff file list in
#: .github/workflows/ci.yml.
GATED = (
    "src/repro/__init__.py",
    "src/repro/runtime/session.py",
    "src/repro/runtime/batching.py",
    "src/repro/runtime/heavylight.py",
    "src/repro/runtime/serving.py",
    "src/repro/runtime/checkpoint.py",
    "src/repro/testing/faults.py",
    "src/repro/runtime/workspace.py",
    "src/repro/planner/plan.py",
    "src/repro/distributed/workers.py",
    "src/repro/analytics/pagerank.py",
    "src/repro/analytics/markov.py",
    "src/repro/analytics/ols.py",
    "src/repro/analytics/expm.py",
    "src/repro/analytics/reachability.py",
    "src/repro/catalog.py",
    "src/repro/expr/structural.py",
)

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public(name: str) -> bool:
    return not name.startswith("_")


def missing(path: Path) -> list[str]:
    """Missing-docstring messages for one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    rel = path.relative_to(REPO)
    problems: list[str] = []
    if ast.get_docstring(tree) is None:
        problems.append(f"{rel}:1: missing module docstring")
    for node in tree.body:
        if not isinstance(node, DEFS) or not public(node.name):
            continue
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            problems.append(
                f"{rel}:{node.lineno}: missing docstring on {kind} "
                f"{node.name}")
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, DEFS) and public(item.name)
                        and ast.get_docstring(item) is None):
                    problems.append(
                        f"{rel}:{item.lineno}: missing docstring on "
                        f"{node.name}.{item.name}")
    return problems


def main(argv: list[str]) -> int:
    files = ([Path(a).resolve() for a in argv] if argv
             else [REPO / rel for rel in GATED])
    problems: list[str] = []
    for path in files:
        if not path.exists():
            problems.append(f"{path}: gated file does not exist")
            continue
        problems.extend(missing(path))
    for message in problems:
        print(message, file=sys.stderr)
    print(f"checked {len(files)} files: "
          f"{len(problems)} missing docstring(s)")
    return min(len(problems), 125)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
