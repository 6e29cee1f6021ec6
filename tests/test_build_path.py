"""One build path: the plan is the recipe, and it survives every rebuild.

``rank`` is the width a session binds its program's triggers at, so it
is a plan axis like strategy or backend: a re-planning switch, a checkpoint
written after it and a catalog rebuild must all go back to the same
recipe (docs/invariants.md, "One build path").
"""

from __future__ import annotations

import numpy as np

from repro.catalog import ViewCatalog
from repro.compiler import UPDATE_WIDTH
from repro.frontend import parse_program
from repro.runtime import FactoredUpdate, IVMSession, open_session
from repro.runtime.checkpoint import load_checkpoint

CHAIN = parse_program("input A(n, n); B := A * A; C := B * B; output C;")
N = 48


def _operator(rng):
    return rng.standard_normal((N, N)) / N


def _rank2(rng, count):
    return [FactoredUpdate("A", 0.01 * rng.standard_normal((N, 2)),
                           rng.standard_normal((N, 2)))
            for _ in range(count)]


def test_replan_switch_keeps_observed_rank(rng, tmp_path):
    # Opened on a REEVAL plan the grid prices far above INCR, with next
    # to no hysteresis: the first check must switch strategy.
    monitor = open_session(
        CHAIN, {"A": _operator(rng)}, dims={"n": N}, plan="reeval",
        refresh_count=200, batch="off",
        replan={"check_every": 8, "switch_margin": 1e-9},
        checkpoint={"directory": tmp_path, "every": 1000})
    assert monitor.plan.rank == 1
    checkpointer = monitor.session.checkpointer
    for update in _rank2(rng, 24):
        monitor.apply_update(update)

    assert monitor.switch_count >= 1
    session = monitor.session
    assert isinstance(session, IVMSession)
    assert monitor.plan is session.plan
    assert session.plan.rank == 2
    assert session._bound_dims()[UPDATE_WIDTH.name] == 2

    # The checkpointer followed the switch and records the new recipe.
    assert checkpointer is session.checkpointer
    header, _ = load_checkpoint(checkpointer.checkpoint())
    assert "optimize" not in header["plan"]
    assert header["plan"]["rank"] == 2
    assert header["plan"]["strategy"] == "INCR"
    restored = session.restore()
    assert restored.plan == session.plan


def test_catalog_rebuild_keeps_rank(rng):
    a0 = _operator(rng)
    catalog = ViewCatalog(rank=2, mode="codegen",
                          memory_budget=N * N * 8)  # one admitted node
    tenant = catalog.open(CHAIN, {"A": a0}, dims={"n": N})
    assert catalog.stats.evictions >= 1  # the eviction staled the session

    oracle = IVMSession(CHAIN, {"A": a0}, dims={"n": N}, rank=2)
    for update in _rank2(rng, 6):
        catalog.apply_update(update)
        oracle.apply_update(update)
    np.testing.assert_allclose(tenant["C"], oracle["C"], rtol=1e-7)

    # The first update built the session for the post-eviction set.
    inner = catalog._session
    assert inner._bound_dims()[UPDATE_WIDTH.name] == 2
    assert inner.plan.rank == 2 and inner.mode == "codegen"
    assert inner._executors["A"].__globals__["_rank"] == 2


def test_session_builds_executors_through_its_module_globals(rng, monkeypatch):
    """``benchmarks/e2e/trace.py`` times trigger compilation by swapping
    ``runtime.session``'s ``compile_trigger_function`` (the loop
    builder) and ``compile_fused_trigger`` (the printer + ``exec``
    builder) for wrappers, so a session must reach both by those names."""
    import repro.runtime.session as session_mod

    built = []
    for name in ("compile_trigger_function", "compile_fused_trigger"):
        real = getattr(session_mod, name)
        monkeypatch.setattr(
            session_mod, name,
            lambda *args, _real=real, _name=name: (
                built.append(_name), _real(*args))[1])
    for mode in ("interpret", "codegen"):
        session = IVMSession(CHAIN, {"A": _operator(rng)}, dims={"n": N},
                             rank=2, mode=mode)
        session.apply_update(_rank2(rng, 1)[0])
    assert built == ["compile_trigger_function", "compile_fused_trigger"]
