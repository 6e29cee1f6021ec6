"""Package metadata: the version is written once."""

from __future__ import annotations

import importlib.metadata
import importlib.util
import re
from pathlib import Path

import pytest

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_is_single_sourced():
    # ``repro.__version__`` said 1.3.0 while pyproject.toml said 1.5.0:
    # the metadata now reads the attribute, so there is nothing to drift.
    text = PYPROJECT.read_text()
    project = text[text.index("[project]"):text.index("\n[", text.index("[project]"))]
    assert 'dynamic = ["version"]' in project
    assert not re.search(r"^version\s*=", project, flags=re.MULTILINE)
    dynamic = text[text.index("[tool.setuptools.dynamic]"):]
    assert re.search(r'^version = \{ attr = "repro\.__version__" \}', dynamic,
                     flags=re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def test_installed_metadata_agrees_with_the_attribute():
    try:
        installed = importlib.metadata.version("linview-repro")
    except importlib.metadata.PackageNotFoundError:
        pytest.skip("not installed (PYTHONPATH=src): nothing to compare")
    assert installed == repro.__version__


def test_sessions_are_built_in_one_place():
    """docs/invariants.md, "One build path": one function calls the
    session constructors, and nothing assigns ``.plan`` on an object
    other than ``self`` (the same walk CI's ``docs`` job runs)."""
    tool = PYPROJECT.parent / "tools" / "check_one_builder.py"
    spec = importlib.util.spec_from_file_location("check_one_builder", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    builders, stores = module.findings()
    assert builders == {("runtime/session.py", "build_session")}
    assert stores == []


def test_programs_are_compiled_in_one_place():
    """docs/invariants.md, "One lowering": sessions, the planner and the
    shardability check read ``compiled_program``'s artifact, and only
    ``repro compile``'s printers compile or lower on their own."""
    tool = PYPROJECT.parent / "tools" / "check_one_builder.py"
    spec = importlib.util.spec_from_file_location("check_one_builder", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.compilers() == module.COMPILERS


def test_programs_are_compiled_at_one_width():
    """docs/invariants.md, "One artifact per program": only ``repro
    compile`` hands ``compiled_program`` a width (it prints shapes);
    every other reader binds the symbolic one."""
    tool = PYPROJECT.parent / "tools" / "check_one_builder.py"
    spec = importlib.util.spec_from_file_location("check_one_builder", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.widths() == module.WIDTH_GIVERS


def test_counters_are_charged_by_the_kernels_only():
    """docs/invariants.md, "One FLOP ledger": no ``counter.record`` call
    sits outside ``cost/counters.py``."""
    tool = PYPROJECT.parent / "tools" / "check_one_builder.py"
    spec = importlib.util.spec_from_file_location("check_one_builder", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.charges() == []


def test_shard_traffic_is_modeled_in_one_place():
    """docs/invariants.md, "One traffic model": both shard engines log
    and the planner prices ``distributed.comm.tile_traffic``'s events;
    nothing else builds one or calls an IPC price hook."""
    tool = PYPROJECT.parent / "tools" / "check_one_builder.py"
    spec = importlib.util.spec_from_file_location("check_one_builder", tool)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.traffic() == []
