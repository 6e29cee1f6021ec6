#!/usr/bin/env python
"""Fail when a module's import closure grows past what it runs.

A shard worker is a fresh interpreter whose boot time is the sharded
session's set-up time, and every single-process ``open_session`` pays
the closure of :mod:`repro.runtime.session`.  Both stay small only
while the ``repro.runtime`` / ``repro.distributed`` package
``__init__``\\ s import nothing eagerly (docs/invariants.md, "worker
closure"), and one stray module-level import silently undoes that — so
this script imports each gated module in a fresh interpreter and checks
what ``sys.modules`` then holds.

Usage::

    python tools/check_import_closure.py

Prints each gated module's sorted closure (``repro*`` and ``scipy*``
modules) and exits 1 on a forbidden prefix or a count over budget.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: module -> (forbidden module prefixes, most ``repro*`` modules allowed).
GATED = {
    "repro.distributed.workers": (
        ("scipy", "repro.runtime.session", "repro.planner",
         "repro.compiler", "repro.backends"),
        12,
    ),
    "repro.runtime.session": (
        ("repro.distributed.engine", "repro.distributed.blockmatrix",
         "repro.distributed.sharded"),
        None,
    ),
}

_PROBE = (
    "import sys, numpy, {module}\n"
    "print('\\n'.join(sorted(m for m in sys.modules\n"
    "                        if m.split('.')[0] in ('repro', 'scipy'))))"
)


def closure(module: str) -> list[str]:
    """``repro*`` / ``scipy*`` modules loaded by ``import numpy, module``
    in a fresh interpreter, sorted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(module=module)],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return out.split()


def violations(module: str, loaded: list[str]) -> list[str]:
    """What ``loaded`` (a :func:`closure`) breaks of ``module``'s rule."""
    forbidden, budget = GATED[module]
    problems = [
        f"{module}: imports {name} (forbidden prefix {prefix})"
        for name in loaded for prefix in forbidden
        if name == prefix or name.startswith(prefix + ".")
    ]
    own = [name for name in loaded if name.split(".")[0] == "repro"]
    if budget is not None and len(own) > budget:
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
    for message in problems:
        print(message, file=sys.stderr)
    print(f"checked {len(GATED)} closures: {len(problems)} violation(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
