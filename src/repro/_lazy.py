"""PEP 562 lazy re-exports for package ``__init__`` modules.

An eager ``__init__`` makes every importer of *one* submodule pay for
all of them (a shard worker used to load the planner, the compiler and
SciPy; a dense session the sparse backend and every analytics driver).
A lazy package keeps one ``name -> submodule`` table; ``from pkg import
X``, ``pkg.X``, ``import *`` and ``dir(pkg)`` work as before.

Two table rules:

* a ``None`` entry re-exports the *submodule* of that name
  (``repro.cost.advisor``);
* an export may not share its defining submodule's name: importing
  ``pkg.name`` anywhere binds the module over the lazy attribute, so
  ``from pkg import name`` would depend on import order.  Such a name
  (``repro.expr.simplify`` is the one) stays a plain eager import in
  the ``__init__``.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str | None]):
    """``(__getattr__, __dir__)`` for ``package``'s module namespace.

    A resolved name is stored in the package's ``__dict__``, so only
    its first access goes through ``__getattr__``.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        source = exports[name]
        submodule = importlib.import_module(f"{package}.{source or name}")
        value = namespace[name] = (
            submodule if source is None else getattr(submodule, name))
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
