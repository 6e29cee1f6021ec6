"""Steady-state memory of the update path outside fused codegen.

Views are store-owned and written in place, and the executor builds no
reference cycle per call, so an interpret-mode update allocates no
view-sized block, traced memory stays flat over a long stream, and
nothing is left for the cyclic collector.  (The fused path's stricter
zero-allocation contract lives in ``test_workspace.py``.)
"""

import gc
import tracemalloc

import numpy as np

from repro.catalog import ViewCatalog
from repro.frontend import parse_program
from repro.runtime import IVMSession, evaluate, row_update

N = 128
VIEW_BYTES = N * N * 8
TENANTS = 8


def _chain_input(rng):
    return 0.2 * rng.standard_normal((N, N)) / np.sqrt(N)


def _stream(rng, count):
    return [row_update("A", N, i % N, 0.01 * rng.standard_normal(N))
            for i in range(count)]


def _traced_growth(apply, updates, warmup=100):
    """``(peak, retained)`` traced bytes over ``updates[warmup:]``."""
    for update in updates[:warmup]:
        apply(update)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for update in updates[warmup:]:
            apply(update)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before, current - before


class TestNoViewSizedAllocationPerUpdate:
    def test_dense_interpret_session(self, rng):
        program = parse_program(
            "input A(n, n); B := A * A; C := B * B; output C;")
        session = IVMSession(program, {"A": _chain_input(rng)},
                             dims={"n": N}, mode="interpret")
        peak, retained = _traced_growth(session.apply_update,
                                        _stream(rng, 300))
        # One view-sized temporary alive at any moment would show in the
        # peak; one superseded view kept per update, in what is retained.
        assert peak < VIEW_BYTES, f"peak grew {peak} B during updates"
        assert retained < VIEW_BYTES, f"{retained} B retained after 200 updates"

    def test_eight_tenant_catalog(self, rng):
        catalog = ViewCatalog()
        a0 = _chain_input(rng)
        tenants = [
            catalog.open(parse_program(
                f"input A(n, n); B := A * A; C := B * B; "
                f"P := {float(index + 2):g} * C + A; output P;"),
                {"A": a0} if index == 0 else None, dims={"n": N})
            for index in range(TENANTS)
        ]
        assert catalog.distinct_nodes == 2 + TENANTS
        peak, retained = _traced_growth(catalog.apply_update,
                                        _stream(rng, 300))
        assert peak < VIEW_BYTES, f"peak grew {peak} B during updates"
        assert retained < VIEW_BYTES, f"{retained} B retained after 200 updates"
        assert np.isfinite(tenants[-1]["P"]).all()


class TestExecutorLeavesNoCyclicGarbage:
    def test_evaluate_builds_no_reference_cycle(self, rng):
        program = parse_program(
            "input A(n, n); B := A * A + 2 * A'; output B;")
        expr = program.statements[0].expr
        env = {"A": rng.standard_normal((16, 16))}
        evaluate(expr, env)  # warm any lazily built module state
        gc.collect()
        gc.disable()
        try:
            for _ in range(200):
                evaluate(expr, env)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
