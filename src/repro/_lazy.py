"""PEP 562 lazy re-exports for package ``__init__`` modules.

An eager ``__init__`` makes every importer of *one* submodule pay for
all of them (a shard worker used to load the planner, the compiler and
SciPy).  A lazy package keeps one ``name -> submodule`` table; ``from
pkg import X``, ``pkg.X``, ``import *`` and ``dir(pkg)`` work as before.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for ``package``'s module namespace.

    A resolved name is stored in the package's ``__dict__``, so only
    its first access goes through ``__getattr__``.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        if name not in exports:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        submodule = importlib.import_module(f"{package}.{exports[name]}")
        value = namespace[name] = getattr(submodule, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
