"""Shared workload-stream builders for the test suite.

Not a conftest: benchmark scripts import their own ``conftest`` module
by name, so shared test helpers live under a unique module name to keep
mixed ``pytest tests/... benchmarks/...`` invocations unambiguous.
"""

from __future__ import annotations

import numpy as np


def fillin_factors(rng: np.random.Generator, n: int, count: int,
                   fill: float = 0.5, scale: float = 0.05):
    """Reachability-style fill-in factors: row ``i % n`` gets ~``fill``
    of its entries perturbed per update, so the target matrix densifies
    along the stream.  Shared by the drift and re-planning tests."""
    for i in range(count):
        u = np.zeros((n, 1))
        u[i % n, 0] = 1.0
        v = (rng.random((n, 1)) < fill) * (scale * rng.standard_normal((n, 1)))
        yield u, v


def zipf_row_updates(rng: np.random.Generator, n: int, count: int,
                     theta: float, target: str = "A", rank: int = 1,
                     scale: float = 0.05):
    """A Table 4-shaped update stream: row targets repeat Zipf(theta)-style.

    Returns ``count`` :class:`~repro.runtime.updates.FactoredUpdate`\\ s
    of width ``rank`` whose indicator rows are drawn from a
    Zipf(``theta``) frequency distribution (``theta = 0`` is uniform);
    high skew makes batches hit few distinct rows — exactly what QR+SVD
    batch compaction exploits.  Shared by the batch-pipeline
    differential harness and the plan-grid executability tests.
    """
    from repro.runtime.updates import FactoredUpdate
    from repro.workloads.zipf import sample_rows

    rows = sample_rows(rng, n, count * rank, theta).reshape(count, rank)
    updates = []
    for group in rows:
        u = np.zeros((n, rank))
        u[group, np.arange(rank)] = 1.0
        v = scale * rng.standard_normal((n, rank))
        updates.append(FactoredUpdate(target, u, v))
    return updates


def sparse_available() -> bool:
    """Whether the optional sparse backend can be imported here."""
    try:
        import scipy  # noqa: F401

        return True
    except ImportError:
        return False


#: Backends the deferral harnesses sweep.
BACKENDS = ("dense",) + (("sparse",) if sparse_available() else ())

#: (strategy, mode) cells sessions support; REEVAL has no mode axis.
SESSION_CONFIGS = (
    ("INCR", "interpret"),
    ("INCR", "codegen"),
    ("REEVAL", "interpret"),
)


def make_session(program, inputs, strategy="INCR", mode="interpret",
                 backend="dense"):
    """A bare session over a private copy of ``inputs``.

    ``make_session(program, inputs)`` is the unit-at-a-time interpreter
    oracle every deferral harness compares against.
    """
    from repro.runtime import IVMSession, ReevalSession

    inputs = {name: arr.copy() for name, arr in inputs.items()}
    if strategy == "REEVAL":
        return ReevalSession(program, inputs, backend=backend)
    return IVMSession(program, inputs, mode=mode, backend=backend)


def assert_views_close(session, oracle, program, context=""):
    """Every input and view of ``session`` matches ``oracle`` (reads flush)."""
    for name in program.input_names + program.view_names:
        got = session[name]
        want = oracle[name]
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(
            got, want, rtol=1e-7, atol=1e-8 * scale,
            err_msg=f"{name} diverged {context}",
        )


def chain_scenario(rng: np.random.Generator):
    """The fixed ``B := A*A; C := B*B`` scenario (n = 8)."""
    from repro.frontend import parse_program

    program = parse_program(
        "input A(n, n); B := A * A; C := B * B; output C;"
    )
    n = 8
    return program, n, {"A": 0.2 * rng.standard_normal((n, n))}


#: The power chain the shard-engine suites maintain (``A^2``, ``A^3``).
POWER_CHAIN = "input A(n, n); P2 := A * A; P3 := A * P2; output P3;"


def shard_session(program, inputs, *, nodes=2, strategy="range",
                  tile_rows=None, process=True, mode="interpret", **engine):
    """``program`` (or its source) on a shard engine, bypassing the planner.

    ``process=True`` spawns ``nodes`` workers (``engine``: ``timeout``,
    ``supervise``, ``recover``); ``process=False`` runs the same tile
    decomposition on the in-process reference engine — the two must
    agree bitwise.
    """
    from repro.distributed import (LocalShardEngine, RowShardPartitioner,
                                   ShardBackend)
    from repro.frontend import parse_program
    from repro.planner import MaintenancePlan
    from repro.runtime import ShardedSession

    if isinstance(program, str):
        program = parse_program(program)
    plan = MaintenancePlan("INCR", mode=mode, nodes=nodes)
    if not process:
        n = next(iter(inputs.values())).shape[0]
        backend = ShardBackend(LocalShardEngine(
            RowShardPartitioner(n, nodes, strategy, tile_rows)))
        return ShardedSession(program, inputs, backend=backend, plan=plan,
                              **engine)
    return ShardedSession(program, inputs, shard=strategy,
                          tile_rows=tile_rows, plan=plan, **engine)
