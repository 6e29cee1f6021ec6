"""Shared helpers for the figure/table benchmarks.

Every benchmark follows the paper's protocol: maintainers are built
once (initial materialization untimed), then a *view refresh* — one
rank-1 row update propagated through every materialized view — is the
timed operation.  Sizes are laptop-scale (README.md, "Tests and
benchmarks"; docs/architecture.md for the node-count reports' rates);
each module also contains a ``test_report_*`` that prints the series in
the figure's layout with paper-reported factors alongside.

Machine-readable results (the CI perf-trajectory artifacts):

* script-style benchmarks take ``--json PATH`` (:func:`add_json_flag` +
  :func:`write_bench_json`) and write a ``BENCH_<name>.json`` file;
* every ``test_report_*`` records its measured series through the
  :func:`bench_record` fixture, which writes ``BENCH_<module>.json``
  into the directory given by ``pytest --bench-json DIR`` (and is a
  no-op otherwise).

Both paths share one schema: ``{schema, bench, platform, python,
results, ...meta}``; CI uploads the files with ``actions/upload-artifact``
so the perf trajectory is recorded per-run instead of scrolling away in
logs.

The ``comm`` block (distributed runs)
-------------------------------------

Sharded runs — ``repro run --nodes N --json`` and the cells of
``bench_fig3g_distributed.py`` — attach one ``comm`` object of
*measured* IPC traffic, harvested from the engine's
:class:`~repro.distributed.comm.CommLog`:

``bytes``
    ``{kind: int}`` — real pickled payload bytes by kind
    (``broadcast`` / ``shuffle`` / ``gather``).  Fan-out ops count
    payload x workers (each worker receives its own copy); fan-in
    counts reply payloads as ``gather``.
``messages``
    ``{kind: int}`` — pipe messages by kind (one per worker per op).
``seconds``
    ``{kind: float}`` — wall seconds by kind: send time for fan-out,
    reply-wait time for fan-in (the first roundtrip after spawn
    absorbs worker startup, by design — latency as experienced).
``bytes_by_label``
    ``{label: int}`` — bytes by operation label (``add_lowrank``,
    ``mat_lowrank``, ...), the series the modeled-vs-measured tests
    compare against ``est_broadcast`` / ``est_shuffle``.
``total_bytes`` / ``total_messages``
    Sums over kinds.
``worker_seconds``
    ``[float]`` — per-worker cumulative busy seconds (kernel time
    reported by each worker, excludes pipe wait).
``partition``
    :meth:`RowShardPartitioner.describe()
    <repro.distributed.partitioner.RowShardPartitioner.describe>`:
    ``{n, nodes, strategy, tile_rows, n_tiles, shard_rows}`` — shard
    sizes in rows per worker.
"""

from __future__ import annotations

import json
import math
import os
import platform
from pathlib import Path

# Cap BLAS threads BEFORE NumPy loads.  The paper's asymptotics compare
# per-operation work; on a many-core machine an O(n^3) GEMM parallelizes
# far better than the memory-bound O(n^2) delta passes, which would hide
# the complexity gap at laptop-scale n.  One thread restores the
# machine balance the analysis (and the paper's per-node accounting)
# assumes; Fig. 3f covers the scale-out story explicitly.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

try:
    import pytest
except ImportError:
    # Script-mode benchmarks import this module for the JSON helpers
    # only; the fixture/hook surface below needs pytest, scripts don't.
    pytest = None

from repro.cost.counters import NULL_COUNTER
from repro.workloads import spectral_normalized

_HERE = os.path.dirname(os.path.abspath(__file__))


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json", action="store", default=None, metavar="DIR",
        help="write BENCH_<module>.json result files from report tests "
             "into DIR",
    )


def pytest_collection_modifyitems(config, items):
    """Benchmark report tests are long-running: keep them out of the
    default CI tier (run with ``-m slow`` or no marker filter)."""
    for item in items:
        if str(item.path).startswith(_HERE):
            item.add_marker(pytest.mark.slow)


def write_bench_json(path, name: str, results, **meta) -> Path:
    """Write one benchmark result file in the shared schema.

    ``results`` must be JSON-serializable (dicts of label -> seconds /
    speedups); ``meta`` lands at the top level next to it.
    """
    payload = {
        "schema": 1,
        "bench": name,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "results": results,
    }
    payload.update(meta)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True,
                               default=str) + "\n")
    return path


def add_json_flag(parser) -> None:
    """Give a script-style benchmark's argparse parser the --json flag."""
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write a machine-readable BENCH_<name>.json result file",
    )




if pytest is not None:
    @pytest.fixture(scope="module")
    def bench_rng():
        """Module-scoped deterministic generator for benchmark inputs."""
        return np.random.default_rng(1403_6968)  # the paper's arXiv id

    @pytest.fixture
    def bench_record(request):
        """Record a report test's measured series as a BENCH_*.json file.

        Call ``bench_record(results, **meta)`` with whatever the test
        printed; the file is written only when pytest ran with
        ``--bench-json DIR`` (CI), so local runs stay side-effect free.
        """
        directory = request.config.getoption("--bench-json")

        def record(results, **meta):
            if not directory:
                return None
            stem = Path(str(request.node.path)).stem.removeprefix("bench_")
            return write_bench_json(Path(directory) / f"BENCH_{stem}.json",
                                    stem, results, **meta)

        return record


def make_matrix(n: int, seed: int = 7, radius: float = 0.9) -> np.ndarray:
    """Spectrally normalized dense input (stable under long update streams)."""
    return spectral_normalized(np.random.default_rng(seed), n, radius)


def row_update(n: int, seed: int, scale: float = 0.01):
    """One deterministic rank-1 row update ``(u, v)``."""
    rng = np.random.default_rng(seed)
    u = np.zeros((n, 1))
    u[int(rng.integers(0, n)), 0] = 1.0
    v = scale * rng.standard_normal((n, 1))
    return u, v


#: ``A^16`` by repeated squaring — the EXP-model powers of Fig. 3f.
POWERS_16 = ("input A(n, n); P2 := A * A; P4 := P2 * P2; "
             "P8 := P4 * P4; P16 := P8 * P8; output P16;")


def local_shard_session(source: str, a: np.ndarray, nodes: int,
                        counter=NULL_COUNTER):
    """INCR maintenance of ``source`` on the in-process row-shard engine.

    ``a``'s rows are split into one tile per each of ``nodes`` virtual
    workers, so ``session.engine.model`` records what a cluster of that
    size would ship per update — a cluster no box has to spawn.  The
    initial build is left out of the ledger and of ``counter``.
    """
    from repro.distributed import (LocalShardEngine, RowShardPartitioner,
                                   ShardBackend)
    from repro.frontend import parse_program
    from repro.planner import MaintenancePlan
    from repro.runtime import ShardedSession

    n = a.shape[0]
    part = RowShardPartitioner(n, nodes, tile_rows=math.ceil(n / nodes))
    session = ShardedSession(
        parse_program(source), {"A": a},
        counter=counter,
        backend=ShardBackend(LocalShardEngine(part)),
        plan=MaintenancePlan("INCR", nodes=nodes))
    session.engine.model.reset()
    counter.reset()
    return session


def refresh_timer(maintainer, n: int, scale: float = 0.01):
    """A zero-argument callable applying a fresh row update per call."""
    state = {"seed": 0}

    def call():
        state["seed"] += 1
        u, v = row_update(n, state["seed"], scale)
        maintainer.refresh(u, v)

    return call
