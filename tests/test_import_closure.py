"""Import closures and the lazy-package contract.

A shard worker's boot is the sharded session's set-up time, so what
``import repro.distributed.workers`` drags in is a gated quantity
(``tools/check_import_closure.py``, the same functions CI runs); the
two packages that make the small closure possible must still behave
like ordinary packages from the outside.
"""

from __future__ import annotations

import importlib
import importlib.util
import pickle
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_import_closure.py"


def _tool():
    spec = importlib.util.spec_from_file_location("check_import_closure", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestImportClosure:
    def test_worker_imports_only_what_it_runs(self):
        tool = _tool()
        loaded = tool.closure("repro.distributed.workers")
        assert tool.violations("repro.distributed.workers", loaded) == []
        assert not [name for name in loaded if name.startswith("scipy")]
        assert len([n for n in loaded if n.startswith("repro")]) <= 12
        assert "repro.distributed.workers" in loaded

    def test_session_does_not_import_the_distributed_engines(self):
        tool = _tool()
        loaded = tool.closure("repro.runtime.session")
        assert tool.violations("repro.runtime.session", loaded) == []
        assert "repro.runtime.session" in loaded

    def test_violations_are_reported(self):
        tool = _tool()
        loaded = ["repro", "repro.planner.plan", "scipy.sparse"] + [
            f"repro.m{i}" for i in range(12)]
        problems = tool.violations("repro.distributed.workers", loaded)
        assert any("repro.planner" in p for p in problems)
        assert any("scipy" in p for p in problems)
        assert any("budget 12" in p for p in problems)


@pytest.mark.parametrize("package, count, exported_class", [
    ("repro.runtime", 49, "IVMSession"),
    ("repro.distributed", 25, "CommLog"),
])
class TestLazyPackage:
    def test_every_public_name_resolves(self, package, count, exported_class):
        pkg = importlib.import_module(package)
        assert len(pkg.__all__) == len(set(pkg.__all__)) == count
        for name in pkg.__all__:
            value = getattr(pkg, name)
            # Resolved once: afterwards a plain module-dict hit.
            assert vars(pkg)[name] is value
        assert set(pkg.__all__) <= set(dir(pkg))

    def test_star_import(self, package, count, exported_class):
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        pkg = importlib.import_module(package)
        for name in pkg.__all__:
            assert namespace[name] is getattr(pkg, name)

    def test_unknown_name_is_an_attribute_error(self, package, count,
                                                exported_class):
        pkg = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            pkg.no_such_name
        with pytest.raises(ImportError):
            exec(f"from {package} import no_such_name", {})
        assert not hasattr(pkg, "no_such_name")

    def test_reexported_class_pickles_by_reference(self, package, count,
                                                   exported_class):
        pkg = importlib.import_module(package)
        cls = getattr(pkg, exported_class)
        assert cls.__module__.startswith(package + ".")
        assert pickle.loads(pickle.dumps(cls)) is cls
