"""Import closures and the lazy-package contract.

Set-up time is import time: a shard worker's boot is the sharded
session's set-up, and every session, CLI call and test process pays for
what ``repro.runtime.session`` / ``repro.cli`` drag in — gated
quantities (``tools/check_import_closure.py``, the same functions CI
runs).  A small closure must be a saving, not a move (nothing a session
runs may load after it is open), and the packages that make it possible
must still behave like ordinary packages from the outside.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pickle
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "check_import_closure.py"


def _tool():
    spec = importlib.util.spec_from_file_location("check_import_closure", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _fresh_python(*args: str) -> str:
    return _tool().fresh_python(*args)


class TestImportClosure:
    def test_worker_imports_only_what_it_runs(self):
        """A worker boots its spawn target's closure: seven modules and
        about 700 lines, none of the coordinator's."""
        tool = _tool()
        loaded = tool.closure(tool.WORKER_ENTRY)
        assert tool.violations(tool.WORKER_ENTRY, loaded) == []
        own = [name for name in loaded if name.startswith("repro")]
        assert own == ["repro", "repro._lazy", "repro.distributed",
                       "repro.distributed.node", "repro.distributed.shm",
                       "repro.runtime", "repro.runtime.workspace"]
        assert tool.source_lines(own) <= tool.LINE_BUDGETS[tool.WORKER_ENTRY]
        assert not [name for name in loaded if name.startswith("scipy")]

    def test_the_coordinator_imports_only_what_it_runs(self):
        tool = _tool()
        loaded = tool.closure("repro.distributed.workers")
        assert tool.violations("repro.distributed.workers", loaded) == []
        assert len([n for n in loaded if n.startswith("repro")]) <= 12
        assert "repro.distributed.workers" in loaded

    def test_a_spawned_worker_does_not_run_its_launcher(self):
        tool = _tool()
        assert tool.spawned_worker() == (
            1, f"{tool.WORKER_ENTRY}._worker_main")

    def test_session_does_not_import_the_distributed_engines(self):
        tool = _tool()
        loaded = tool.closure("repro.runtime.session")
        assert tool.violations("repro.runtime.session", loaded) == []
        assert "repro.runtime.session" in loaded

    @pytest.mark.parametrize("probe", ["repro.cli", "repro.catalog",
                                       "opened session",
                                       "opened sharded session",
                                       "opened priced session",
                                       "opened catalog",
                                       "benchmark set-up",
                                       "opened pagerank (REEVAL)",
                                       "opened pagerank (HYBRID)",
                                       "opened pagerank (auto)"])
    def test_gated_closure_holds(self, probe):
        tool = _tool()
        loaded = tool.closure(probe)
        assert tool.violations(probe, loaded) == []
        assert "repro.runtime.session" in loaded or probe == "repro.cli"

    def test_the_benchmark_imports_compile_under_budget(self):
        """``bench_e2e.import_program`` alone — most of ``dense_small``'s
        ``setup_s`` — loads no deferral policy, pricing module, iterative
        stack or fault hook: at most 44 modules, 9,000 source lines."""
        tool = _tool()
        loaded = _fresh_python("-c", tool._PROBE.format(body="".join(
            f"import {module}\n" for module in tool._bench_modules()))).split()
        own = [name for name in loaded if name.split(".")[0] == "repro"]
        assert len(own) <= 44
        assert tool.source_lines(own) <= 9_000
        assert not [name for name in own
                    for prefix in tool._NOT_RUN_BY_A_UNIT_SESSION
                    if name == prefix or name.startswith(prefix + ".")]

    def test_cli_start_up_loads_no_numerics(self):
        loaded = _tool().closure("repro.cli")
        assert not [name for name in loaded if name.startswith("scipy")]
        assert len(loaded) <= 30
        assert "numpy" not in _fresh_python(
            "-c", "import sys, repro.cli; print(sorted(sys.modules))")

    def test_a_determined_open_prices_and_loads_nothing(self):
        """The dense probe's arguments leave a grid of one: the plan is
        written down, and the pricing stack (planner, program cost
        walker, advisor, sparse engine) is never imported."""
        tool = _tool()
        report = json.loads(_fresh_python("-c", (
            "import json, math, sys, numpy\n"
            + tool.PROBES[tool.OPENED_SESSION].replace(
                "open_session(parse", "session = open_session(parse")
            + "\nprint(json.dumps({'label': session.plan.label,"
            " 'unpriced': math.isnan(session.plan.predicted_time)"
            " and math.isnan(session.plan.predicted_space),"
            " 'loaded': sorted(m for m in sys.modules"
            " if m.startswith('repro.'))}))")))
        assert report["label"] == "INCR-LIN@dense/codegen"
        assert report["unpriced"]
        for module in ("repro.planner.planner", "repro.planner.programcost",
                       "repro.cost.advisor", "repro.cost.complexity",
                       "repro.backends.sparse"):
            assert module not in report["loaded"]
        assert "repro.planner.plan" in report["loaded"]

    def test_a_replanning_open_loads_the_pricing_stack_at_open(self):
        """Determined or not, what a monitor's checks run is loaded by
        the time ``open_session`` returns — not at the first check."""
        tool = _tool()
        loaded = _fresh_python("-c", (
            "import sys, numpy\n"
            + tool.PROBES[tool.OPENED_SESSION].replace(
                "batch='off'", "batch='off', replan=True")
            + "\nprint(' '.join(sorted(sys.modules)))")).split()
        assert "repro.runtime.drift" in loaded
        assert "repro.planner.planner" in loaded
        assert "repro.planner.programcost" in loaded

    def test_violations_are_reported(self):
        tool = _tool()
        loaded = ["repro", "repro.planner.plan", "scipy.sparse"] + [
            f"repro.m{i}" for i in range(12)]
        problems = tool.violations("repro.distributed.workers", loaded)
        assert any("repro.planner" in p for p in problems)
        assert any("scipy" in p for p in problems)
        assert any("budget 12" in p for p in problems)

    def test_line_budgets_are_reported(self, monkeypatch):
        tool = _tool()
        loaded = ["repro", "repro.runtime.session"]
        assert tool.violations(tool.BENCHMARK_SETUP, loaded) == []
        lines = tool.source_lines(loaded)
        assert lines > 1000
        monkeypatch.setitem(tool.LINE_BUDGETS, tool.BENCHMARK_SETUP, lines - 1)
        assert tool.violations(tool.BENCHMARK_SETUP, loaded) == [
            f"benchmark set-up: imports {lines} repro source lines, "
            f"budget {lines - 1}"]


@pytest.mark.parametrize("workload", [
    "dense_small", "dense_chain", "sparse_pagerank", "zipf_write",
    "zipf_read_mixed", "served", "catalog_tenants", "sharded_chain",
    # Configurations whose optional subsystem is imported where it is
    # chosen (late_import_probe.CONFIGURATIONS).
    "batch=8", "heavy-light", "checkpoint", "evicting catalog",
    "batched pagerank",
])
def test_nothing_loads_after_the_workload_is_open(workload):
    """A deferred import must be removed cost, not cost moved into the
    first update (which the benchmark's warm-up would hide): 300
    updates, reads and a drain on each ``bench_e2e`` configuration, and
    on each configuration an import moved for, import no ``repro``
    module the opening call had not."""
    pytest.importorskip("scipy")  # the benchmark harness imports it
    report = json.loads(_fresh_python(
        str(ROOT / "tests" / "late_import_probe.py"), workload))
    assert report["late"] == []
    assert report["loaded"] > 10
    # The zipf session's re-planning passes are part of what ran.
    assert report["replans"] == (6 if workload.startswith("zipf") else 0)
    # And so is the subsystem a configuration is there to exercise.
    assert report["exercised"] is None or report["exercised"] > 0


LAZY_PACKAGES = [
    ("repro.runtime", 49, "IVMSession"),
    ("repro.distributed", 15, "CommLog"),
    ("repro.expr", 42, "MatMul"),
    ("repro.delta", 12, "FactoredDelta"),
    ("repro.compiler", 20, "Program"),
    ("repro.compiler.codegen", 7, "LoweredTrigger"),
    ("repro.cost", 16, "Counter"),
    ("repro.frontend", 7, "Parser"),
    ("repro.iterative", 13, "Model"),
    ("repro.analytics", 21, "make_ols"),
    ("repro.planner", 15, "MaintenancePlan"),
    ("repro.backends", 7, "DenseBackend"),
    ("repro.testing", 8, "FaultInjector"),
    ("repro.bench", 8, "Series"),
]


@pytest.mark.parametrize("package, count, exported_class", LAZY_PACKAGES)
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


class TestLazyTableRules:
    def test_reexported_submodules(self):
        import repro.cost

        for name in ("advisor", "complexity", "counters", "estimate",
                     "flops", "memory"):
            module = getattr(repro.cost, name)
            assert module is sys.modules[f"repro.cost.{name}"]
        from repro.cost import estimate

        assert estimate is sys.modules["repro.cost.estimate"]

    def test_attribute_access_imports_a_submodule_on_demand(self):
        assert _fresh_python(
            "-c", "import repro.cost; print(repro.cost.advisor.__name__)"
        ).strip() == "repro.cost.advisor"

    @pytest.mark.parametrize("first", [
        "import repro.expr.simplify",
        "from repro.expr import simplify",
        "import repro.expr.structural",
    ])
    def test_simplify_is_the_function_in_either_import_order(self, first):
        assert _fresh_python("-c", (
            f"{first}\n"
            "from repro.expr import simplify\n"
            "import repro.expr, types\n"
            "assert simplify is repro.expr.simplify\n"
            "print(isinstance(simplify, types.FunctionType))"
        )).strip() == "True"

    @pytest.mark.parametrize("package, name", [
        ("repro.compiler", "eliminate_common_subexpressions"),
        ("repro.compiler", "eliminate_dead_code"),
        ("repro.compiler", "optimize_trigger"),
        ("repro.compiler", "propagate_copies"),
        ("repro.expr", "to_latex"),
        ("repro.expr", "trigger_to_latex"),
    ])
    def test_deleted_printers_and_passes_are_not_exported(self, package,
                                                          name):
        # The AST optimizer and the LaTeX printer left the tree; their
        # names must not linger in a lazy table that points at nothing.
        pkg = importlib.import_module(package)
        assert name not in pkg._EXPORTS and name not in pkg.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(pkg, name)

    @pytest.mark.parametrize("package", [row[0] for row in LAZY_PACKAGES])
    def test_no_lazy_export_is_named_like_its_submodule(self, package):
        # ``import pkg.name`` would bind the module over the lazy
        # attribute; repro.expr binds its one such export eagerly.
        exports = importlib.import_module(package)._EXPORTS
        clashes = {name for name, source in exports.items() if name == source}
        assert clashes == ({"simplify"} if package == "repro.expr" else set())
