"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

from repro.expr import MatrixSymbol, NamedDim


def pytest_addoption(parser):
    parser.addoption(
        "--no-scipy", action="store_true", default=False,
        help="run as CI's no-scipy leg does: `import scipy` raises "
             "ModuleNotFoundError in this process and its shard workers")


def pytest_configure(config):
    """``--no-scipy``: shadow SciPy with ``tests/no_scipy/scipy``, which
    raises ``ModuleNotFoundError`` on import.  First on ``sys.path``, so
    it holds for this process and for the shard workers it spawns (a
    spawned child starts from the parent's ``sys.path``); a script run
    through ``subprocess`` keeps the environment's SciPy, which
    ``benchmarks/e2e`` needs.  Nothing of ``repro`` that probes for
    SciPy is loaded yet."""
    if not config.getoption("--no-scipy"):
        return
    sys.path.insert(0, str(Path(__file__).parent / "no_scipy"))
    for name in [name for name in sys.modules
                 if name == "scipy" or name.startswith("scipy.")]:
        del sys.modules[name]


def pytest_collection_modifyitems(config, items):
    """``--no-scipy``: the end-to-end benchmark's harness imports SciPy
    at module level (``benchmarks/e2e/bench_e2e.py``), so its own tests
    cannot run without it."""
    if not config.getoption("--no-scipy"):
        return
    needs_scipy = pytest.mark.skip(reason="benchmarks/e2e imports SciPy")
    for item in items:
        if item.nodeid.startswith("benchmarks/e2e/"):
            item.add_marker(needs_scipy)


@pytest.fixture(autouse=True)
def _no_ambient_calibration(monkeypatch):
    """Keep planner decisions deterministic across developer machines.

    A calibration cache in ``~/.cache`` would silently shift every
    planner assertion in this suite; tests exercising calibration pass
    explicit :class:`~repro.calibrate.Calibration` objects or set the
    env var themselves (monkeypatch wins over this autouse default).
    """
    import repro.calibrate as calibrate

    monkeypatch.setenv(calibrate.CACHE_ENV, "off")
    monkeypatch.setattr(calibrate, "_AUTOLOADED", False)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator (fresh per test)."""
    return np.random.default_rng(20140622)  # SIGMOD'14 conference date


@pytest.fixture
def n_dim() -> NamedDim:
    """The canonical symbolic dimension ``n``."""
    return NamedDim("n")


@pytest.fixture
def square_symbols(n_dim):
    """Symbols A, B, C of shape (n x n) plus column vectors u, v."""
    a = MatrixSymbol("A", n_dim, n_dim)
    b = MatrixSymbol("B", n_dim, n_dim)
    c = MatrixSymbol("C", n_dim, n_dim)
    u = MatrixSymbol("u", n_dim, 1)
    v = MatrixSymbol("v", n_dim, 1)
    return a, b, c, u, v


def random_env(rng: np.random.Generator, n: int,
               names=("A", "B", "C")) -> dict[str, np.ndarray]:
    """Random square matrices for the given names plus vectors u, v."""
    env = {name: rng.normal(size=(n, n)) for name in names}
    env["u"] = rng.normal(size=(n, 1))
    env["v"] = rng.normal(size=(n, 1))
    return env
