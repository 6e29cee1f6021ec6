"""Steady-state memory of the update path, in both execution modes.

Views are store-owned and written in place and a trigger's lowered form
runs on buffers leased once, so after one warm-up firing an update
allocates nothing — in ``mode="interpret"`` (the loop) exactly as in
``mode="codegen"`` (the printed function); updates of another width
than the compiled one allocate their temporaries and retain none.  The
executor that evaluates statements builds no reference cycle per call.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.catalog import ViewCatalog
from repro.frontend import parse_program
from repro.runtime import FactoredUpdate, IVMSession, evaluate, row_update
from stream_helpers import sparse_available

N = 128
VIEW_BYTES = N * N * 8
#: Peak growth allowed while updates run.  With SciPy ``view += U V'``
#: is one ``dgemm`` pass into the view and nothing view-sized is ever
#: alive; without it the apply is NumPy's two-pass form
#: (``DenseBackend.add_outer_inplace``) and holds exactly one product at a time.
PEAK_BYTES = VIEW_BYTES if sparse_available() else 2 * VIEW_BYTES
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
        assert peak < PEAK_BYTES, f"peak grew {peak} B during updates"
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
        assert peak < PEAK_BYTES, f"peak grew {peak} B during updates"
        assert retained < VIEW_BYTES, f"{retained} B retained after 200 updates"
        assert np.isfinite(tenants[-1]["P"]).all()


#: The three regimes the planner grids over: name -> (source, dims,
#: backend, input density, update row density, update count).
A4_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"
SCENARIOS = {
    "dense_small": (A4_SOURCE, {"n": 96}, "dense", 1.0, 1.0, 120),
    "sparse_1pct": ("input A(n, n); B := A * A; output B;", {"n": 384},
                    "sparse", 0.01, 0.01, 60),
    "stream_p16": (
        "input A(n, n); input X(n, p); Y := A * X; Z := A * Y; output Z;",
        {"n": 256, "p": 16}, "dense", 1.0, 1.0, 120),
}


def _scenario(name):
    """``(program, inputs, dims, backend, updates)`` of one regime."""
    source, dims, backend, density, row_density, count = SCENARIOS[name]
    rng = np.random.default_rng(14036968)
    program = parse_program(source)
    n = dims["n"]
    a0 = 0.05 * rng.standard_normal((n, n))
    if density < 1.0:
        a0 *= rng.random((n, n)) < density
    inputs = {"A": a0}
    if "p" in dims:
        inputs["X"] = rng.standard_normal((n, dims["p"]))
    updates = []
    for i in range(count):
        v = 0.01 * rng.standard_normal((n, 1))
        if row_density < 1.0:
            v *= rng.random((n, 1)) < row_density
        updates.append(FactoredUpdate("A", np.eye(n)[:, [i % n]], v))
    return program, inputs, dims, backend, updates


class TestZeroAllocationSteadyState:
    """Warmed-up dense sessions allocate nothing, in either mode."""

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    @pytest.mark.parametrize("name", ["dense_small", "stream_p16"])
    def test_no_allocation_after_warmup(self, name, mode):
        program, inputs, dims, backend, updates = _scenario(name)
        session = IVMSession(program, inputs, dims=dims, backend=backend,
                             mode=mode)
        for update in updates:  # warm everything, including caches
            session.apply_update(update)
        leased = session.workspace.allocations
        assert leased > 0
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for update in updates:
                session.apply_update(update)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert session.workspace.allocations == leased
        # tracemalloc's own bookkeeping accounts for a few hundred bytes;
        # one leaked (n x 1) factor block per update would be ~100 KB.
        assert grown < 4096, f"steady state allocated {grown} bytes"

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_off_width_updates_retain_no_buffers(self, rng, mode):
        """32 distinct widths through a rank-1 plan (what a deferral
        policy's compacted batches look like): each allocates and drops
        its temporaries; the workspace holds the compiled width only."""
        program, inputs, dims, backend, updates = _scenario("dense_small")
        session = IVMSession(program, inputs, dims=dims, mode=mode)
        session.apply_update(updates[0])
        held = session.workspace.nbytes()
        assert held > 0
        n = dims["n"]
        for width in range(2, 34):
            session.apply_update(FactoredUpdate(
                "A", 0.01 * rng.standard_normal((n, width)),
                rng.standard_normal((n, width))))
            assert session.workspace.nbytes() == held, width
        assert session.revalidate() < 1e-8


class TestThreeWayParity:
    """interpret == codegen bit for bit, and both track re-evaluation —
    on the dense regimes and on CSR state."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_modes_agree_and_track_reevaluation(self, name):
        if SCENARIOS[name][2] == "sparse":
            pytest.importorskip("scipy")
        program, inputs, dims, backend, updates = _scenario(name)
        outputs = {}
        for mode in ("interpret", "codegen"):
            session = IVMSession(program, inputs, dims=dims,
                                 backend=backend, mode=mode)
            for update in updates:
                session.apply_update(update)
            outputs[mode] = np.array(session.output())
        assert np.array_equal(outputs["interpret"], outputs["codegen"])
        env = dict(inputs)
        env["A"] = inputs["A"] + sum(
            update.u_block @ update.v_block.T for update in updates)
        for stmt in program.statements:
            env[stmt.target.name] = evaluate(stmt.expr, env)
        expected = env[program.outputs[0]]
        scale = max(1.0, float(np.max(np.abs(expected))))
        drift = float(np.max(np.abs(outputs["codegen"] - expected)))
        assert drift / scale < 1e-8


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
