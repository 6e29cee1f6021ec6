"""The real multiprocess engine: sharding, parity, failure, accounting.

Bit-identity is the load-bearing claim: :class:`RowShardPartitioner`
fixes the tile decomposition as a function of ``(n, tile_rows)`` only —
never node count or strategy — and every engine executes the identical
per-tile kernel calls, so hash- and range-sharded maintenance must be
**bitwise** equal to single-process, not merely ``allclose``.

A sharded session is an ``IVMSession`` on a ``ShardBackend``: the same
lowered trigger lists, the stored-view kernels sent to a shard engine —
so the parity grid also runs engine (workers vs the in-process
reference) x execution mode, on a chain and on a two-input program no
chain recogniser would accept.

Process-spawning tests share module-scoped sessions (spawn costs
seconds on small boxes); :func:`_reset` re-seeds them between tests.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.distributed.workers as workers
from repro.distributed import (
    ProcessCluster,
    RowShardPartitioner,
    WorkerFailedError,
)
from repro.runtime import FactoredUpdate
from stream_helpers import POWER_CHAIN, shard_session

CHAIN_VIEWS = ("A", "P2", "P3")


def _stream(n: int, count: int, seed: int = 5, rank: int = 1):
    rng = np.random.default_rng(seed)
    return [
        (rng.standard_normal((n, rank)),
         0.01 * rng.standard_normal((n, rank)))
        for _ in range(count)
    ]


def _operator(n: int, seed: int = 9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) / np.sqrt(n)


def _chain(a: np.ndarray, **options):
    """The power chain over ``a`` on a shard engine (``shard_session``)."""
    return shard_session(POWER_CHAIN, {"A": a}, **options)


def _refresh(session, u, v, target: str = "A") -> None:
    session.apply_update(FactoredUpdate(target, u, v))


def _results(session, names=CHAIN_VIEWS) -> dict:
    return {name: np.array(session[name]) for name in names}


def _workers() -> set:
    """Pids of the live child processes (module fixtures keep theirs)."""
    return {child.pid for child in multiprocessing.active_children()}


def _reset(session, a: np.ndarray) -> None:
    """Re-seed the stored input in place and re-evaluate the chain."""
    session.backend.put("A", a)
    session.rebuild()


class TestStagingBuffer:
    """``add_lowrank`` stages every tile through one leased buffer: a
    tile is consumed before the next starts, so an op holds one
    ``tile_rows x n`` block per engine or worker, not one per tile."""

    def _one_tile_bytes(self, part: RowShardPartitioner) -> int:
        return max(r1 - r0 for r0, r1 in part.tile_bounds) * part.n * 8

    def test_local_engine_holds_one_tile(self):
        from repro.distributed.sharded import LocalShardEngine

        n = 100
        part = RowShardPartitioner(n, 2, tile_rows=16)   # 7 tiles, tail of 4
        engine = LocalShardEngine(part)
        a = _operator(n)
        engine.put("A", a)
        (u, v), = _stream(n, 1, rank=3)
        engine.add_lowrank("A", u, v)
        assert engine.workspace.nbytes() == self._one_tile_bytes(part)
        assert engine.workspace.buffer_count() == 1
        # Tile by tile through the staging rows: the same arithmetic.
        expected = a.copy()
        for r0, r1 in part.tile_bounds:
            expected[r0:r1] += u[r0:r1] @ v.T
        assert np.array_equal(engine.get("A"), expected)

    def test_worker_op_holds_one_tile(self):
        from repro.distributed.node import _execute
        from repro.runtime.workspace import Workspace

        n = 64
        part = RowShardPartitioner(n, 2, tile_rows=8)
        owned = tuple(part.shards[0])
        assert len(owned) == 4
        view = _operator(n)
        expected = view.copy()
        (u, v), = _stream(n, 1, rank=2)
        for t in owned:
            r0, r1 = part.tile_bounds[t]
            expected[r0:r1] += u[r0:r1] @ v.T
        ws = Workspace()
        _execute(("add_lowrank", "A", u, v), {"A": view},
                 tuple(part.tile_bounds), owned, ws)
        assert ws.nbytes() == self._one_tile_bytes(part)
        assert np.array_equal(view, expected)


class TestTileOwnership:
    """A worker op reads and writes only the rows of the tiles its
    worker owns: with every other row NaN, each reply is finite and the
    foreign rows keep their exact bytes."""

    N, TILE_ROWS, NODES = 100, 16, 3

    def _run(self, op, strategy, worker):
        from repro.distributed.node import _execute
        from repro.runtime.workspace import Workspace

        part = RowShardPartitioner(self.N, self.NODES, strategy,
                                   tile_rows=self.TILE_ROWS)
        owned = part.shards[worker]
        mine = np.zeros(self.N, dtype=bool)
        for t in owned:
            mine[slice(*part.tile_bounds[t])] = True
        view = _operator(self.N)
        view[~mine] = np.nan
        foreign = view[~mine].tobytes()
        reply = _execute(op, {"A": view}, tuple(part.tile_bounds),
                         owned, Workspace())
        assert view[~mine].tobytes() == foreign
        assert np.isfinite(view[mine]).all()
        return part, owned, view, reply

    @pytest.mark.parametrize("strategy", RowShardPartitioner.STRATEGIES)
    @pytest.mark.parametrize("worker", range(NODES))
    def test_every_op_stays_inside_the_owned_rows(self, strategy, worker):
        u, v = _stream(self.N, 1, rank=2)[0]
        for op in (("mat_lowrank", "A", u), ("matT_lowrank", "A", v)):
            part, owned, view, reply = self._run(op, strategy, worker)
            assert sorted(reply) == list(owned)
            for t, block in reply.items():
                r0, r1 = part.tile_bounds[t]
                assert np.isfinite(block).all(), (op[0], t)
                want = (view[r0:r1] @ u if op[0] == "mat_lowrank"
                        else view[r0:r1].T @ v[r0:r1])
                assert np.array_equal(block, want), (op[0], t)
        self._run(("add_lowrank", "A", u, v), strategy, worker)


class TestRowShardPartitioner:
    def test_uneven_tail_tile(self):
        part = RowShardPartitioner(100, 3, tile_rows=16)
        assert part.tile_bounds[-1] == (96, 100)
        assert part.tile_bounds[0] == (0, 16)
        # Tiles cover [0, n) without gaps or overlaps.
        covered = [b for bounds in part.tile_bounds
                   for b in range(*bounds)]
        assert covered == list(range(100))

    def test_single_node_degenerate(self):
        part = RowShardPartitioner(40, 1, tile_rows=16)
        assert part.shards == [(0, 1, 2)]
        assert part.shard_rows(0) == 40

    def test_more_nodes_than_tiles_leaves_empty_shards(self):
        part = RowShardPartitioner(16, 5, tile_rows=8)
        assert part.n_tiles == 2
        rows = [part.shard_rows(w) for w in range(5)]
        assert sum(rows) == 16
        assert rows.count(0) == 3  # three workers own empty block rows

    def test_tile_bounds_ignore_nodes_and_strategy(self):
        reference = RowShardPartitioner(200, 1, tile_rows=32).tile_bounds
        for nodes in (2, 3, 7):
            for strategy in RowShardPartitioner.STRATEGIES:
                part = RowShardPartitioner(200, nodes, strategy, tile_rows=32)
                assert part.tile_bounds == reference

    def test_hash_and_range_assign_every_tile_once(self):
        for strategy in RowShardPartitioner.STRATEGIES:
            part = RowShardPartitioner(128, 3, strategy, tile_rows=16)
            owned = sorted(t for shard in part.shards for t in shard)
            assert owned == list(range(part.n_tiles))

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            RowShardPartitioner(64, 2, strategy="roundrobin")

    def test_describe_schema(self):
        info = RowShardPartitioner(96, 2, "hash", tile_rows=32).describe()
        assert info["n"] == 96
        assert info["nodes"] == 2
        assert info["strategy"] == "hash"
        assert info["n_tiles"] == 3
        assert sum(info["shard_rows"]) == 96

    @given(n=st.integers(8, 64), tile_rows=st.integers(3, 17),
           nodes=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_decomposition_depends_only_on_n_and_tile_rows(
            self, n, tile_rows, nodes):
        reference = RowShardPartitioner(n, 1, tile_rows=tile_rows)
        for strategy in RowShardPartitioner.STRATEGIES:
            part = RowShardPartitioner(n, nodes, strategy, tile_rows=tile_rows)
            assert part.tile_bounds == reference.tile_bounds
            owned = sorted(t for shard in part.shards for t in shard)
            assert owned == list(range(part.n_tiles))


class TestLocalParity:
    """In-process engines across the (nodes, strategy) grid."""

    @given(n=st.integers(8, 40), tile_rows=st.integers(3, 11),
           nodes=st.integers(2, 4), updates=st.integers(1, 4),
           rank=st.integers(1, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_hash_range_single_bitwise_identical(
            self, n, tile_rows, nodes, updates, rank, seed):
        a = _operator(n, seed=seed % 97 + 1)
        stream = _stream(n, updates, seed=seed, rank=rank)
        finals = []
        for session_nodes, strategy in (
                (1, "range"), (nodes, "range"), (nodes, "hash")):
            with _chain(a, nodes=session_nodes, strategy=strategy,
                        tile_rows=tile_rows, process=False) as session:
                for u, v in stream:
                    _refresh(session, u, v)
                finals.append(_results(session))
        for other in finals[1:]:
            for name in CHAIN_VIEWS:
                assert np.array_equal(finals[0][name], other[name])

    def test_chain_tracks_ground_truth(self):
        a = _operator(32)
        with _chain(a, tile_rows=8, process=False) as session:
            for u, v in _stream(32, 5):
                a = a + u @ v.T
                _refresh(session, u, v)
            np.testing.assert_allclose(session["P3"], a @ a @ a,
                                       rtol=1e-9, atol=1e-12)

    def test_views_are_the_engines_own_arrays(self):
        with _chain(_operator(16), tile_rows=8, process=False) as session:
            _refresh(session, *_stream(16, 1)[0])
            for name in CHAIN_VIEWS:
                assert session[name] is session.engine.get(name)


# -- process-backed tests (module-scoped: spawn is expensive) ------------

N_PROC = 48
TILE_ROWS_PROC = 8


@pytest.fixture(scope="module")
def proc_range():
    with _chain(_operator(N_PROC), strategy="range",
                tile_rows=TILE_ROWS_PROC, timeout=60.0) as session:
        yield session


@pytest.fixture(scope="module")
def proc_hash():
    with _chain(_operator(N_PROC), strategy="hash", mode="codegen",
                tile_rows=TILE_ROWS_PROC, timeout=60.0) as session:
        yield session


class TestProcessParity:
    def test_process_engines_bitwise_match_local(self, proc_range, proc_hash):
        a = _operator(N_PROC)
        local = _chain(a, tile_rows=TILE_ROWS_PROC, process=False)
        _reset(proc_range, a)
        _reset(proc_hash, a)
        for u, v in _stream(N_PROC, 4):
            _refresh(local, u, v)
            _refresh(proc_range, u, v)
            _refresh(proc_hash, u, v)
        for name in CHAIN_VIEWS:
            assert np.array_equal(local[name], proc_range[name])
            assert np.array_equal(local[name], proc_hash[name])
            # Zero-copy: the session reads the segment itself.
            assert proc_range[name] is proc_range.engine.get(name)

    @pytest.mark.parametrize("strategy", RowShardPartitioner.STRATEGIES)
    @pytest.mark.parametrize("nodes", [2, 3])
    def test_node_grid_bitwise_matches_local(self, nodes, strategy):
        """``nodes - 1`` workers plus node 0's tiles in this process, at
        whatever BLAS thread count the caller runs, equal the in-process
        reference bitwise."""
        n = 256   # tiles large enough for a threaded BLAS to split them
        a = _operator(n, seed=nodes)
        before = _workers()
        with _chain(a.copy(), tile_rows=32, process=False) as local, \
                _chain(a.copy(), nodes=nodes, strategy=strategy, tile_rows=32,
                       timeout=60.0) as session:
            assert len(_workers() - before) == nodes - 1
            for u, v in _stream(n, 3, rank=3):
                _refresh(local, u, v)
                _refresh(session, u, v)
            for name in CHAIN_VIEWS:
                assert np.array_equal(local[name], session[name]), name
            assert session.engine.worker_seconds()[0] > 0.0

    def test_one_update_is_seven_roundtrips(self, proc_range):
        # The lowered chain trigger: A u, A' v, A U_P2, P2' v, then one
        # add_lowrank per view - each a send and a gather per worker;
        # node 0, the coordinator, sends itself nothing.
        _reset(proc_range, _operator(N_PROC))
        proc_range.engine.comm.reset()
        _refresh(proc_range, *_stream(N_PROC, 1)[0])
        assert proc_range.engine.comm.total_messages == 7 * 2 * 1

    def test_comm_measures_real_bytes(self, proc_range):
        _reset(proc_range, _operator(N_PROC))
        proc_range.engine.comm.reset()
        u, v = _stream(N_PROC, 1)[0]
        _refresh(proc_range, u, v)
        comm = proc_range.engine.comm.as_dict()
        # Fan-out carries the factors; fan-in carries thin partials.
        assert comm["bytes"]["broadcast"] > 0
        assert comm["bytes"]["gather"] > 0
        # Real pickled payloads exceed the raw factor bytes (framing).
        assert comm["bytes"]["broadcast"] > 2 * u.nbytes
        assert comm["total_messages"] > 0
        assert sum(comm["seconds"].values()) > 0.0


class TestTileOrderReduction:
    """``view' * v`` is one ``(n, k)`` partial per row tile, summed in
    tile-index order — the only arithmetic that crosses tiles, and the
    same on every engine, node count and strategy."""

    @staticmethod
    def _tile_order_sum(view, v, part):
        total = np.zeros((view.shape[1], v.shape[1]))
        for r0, r1 in part.tile_bounds:
            total += view[r0:r1].T @ v[r0:r1]
        return total

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_engines_equal_the_explicit_sum(self, rank, proc_range,
                                            proc_hash):
        from repro.distributed import LocalShardEngine

        a = _operator(N_PROC, seed=rank)
        v = np.random.default_rng(rank).standard_normal((N_PROC, rank))
        local = LocalShardEngine(RowShardPartitioner(
            N_PROC, 1, tile_rows=TILE_ROWS_PROC))
        local.put("A", a)
        want = self._tile_order_sum(a, v, local.part)
        assert np.array_equal(local.matT_lowrank("A", v), want)
        for session in (proc_range, proc_hash):
            _reset(session, a)
            got = session.engine.matT_lowrank("A", v)
            assert np.array_equal(got, want), session.engine.part.strategy
        np.testing.assert_allclose(want, a.T @ v, rtol=0, atol=1e-12)


class TestMappedPages:
    """What a worker maps is what it owns: after a few updates each
    worker's shared-memory RSS is its owned rows of every view plus at
    most one 64 KiB fault-around window per view."""

    @staticmethod
    def _rss_shmem(pid: int) -> int:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("RssShmem:"):
                    return int(line.split()[1]) * 1024
        pytest.skip("no RssShmem in /proc/<pid>/status")

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads /proc/<pid>/status")
    def test_worker_maps_only_its_rows(self):
        n = 512   # 64-row tiles are 256 KiB: page-aligned in the segment
        with _chain(_operator(n), tile_rows=64, timeout=60.0) as session:
            for u, v in _stream(n, 3):
                _refresh(session, u, v)
            part, cluster = session.engine.part, session.engine.cluster
            assert cluster._procs[0] is None   # node 0 is this process
            for worker, proc in enumerate(cluster._procs[1:], start=1):
                owned = part.shard_rows(worker) * n * 8 * len(CHAIN_VIEWS)
                slack = 64 * 1024 * len(CHAIN_VIEWS)
                assert self._rss_shmem(proc.pid) <= owned + slack, worker


class TestCommModelAgreement:
    def test_modeled_vs_measured_within_10_percent(self):
        # Thin-factor payloads at n=1024 keep pickle framing far below
        # the tolerance; smaller n would test the framing, not the model.
        n = 1024
        with _chain(_operator(n), tile_rows=128, timeout=60.0) as m:
            m.engine.comm.reset()
            m.engine.model.reset()
            for u, v in _stream(n, 2):
                _refresh(m, u, v)
            measured = m.engine.comm.bytes_by_label()
            modeled = m.engine.model.bytes_by_label()
        for label in ("add_lowrank", "mat_lowrank", "matT_lowrank"):
            assert modeled[label] > 0
            error = abs(measured[label] - modeled[label]) / modeled[label]
            assert error <= 0.10, (label, measured[label], modeled[label])

    def test_local_engine_models_the_same_traffic(self):
        """One ledger for both engines: the in-process engine records
        what worker processes over the same partitioner would ship."""
        n, nodes = 256, 2
        a = _operator(n)
        ledgers = []
        for process in (True, False):
            with _chain(a, nodes=nodes, tile_rows=32,
                        process=process) as session:
                session.engine.model.reset()
                for u, v in _stream(n, 2):
                    _refresh(session, u, v)
                ledgers.append(session.engine.model)
        assert ledgers[0].as_dict() == ledgers[1].as_dict()
        # A factored apply broadcasts its factor pair once per remote
        # node; node 0 reads it in place.
        (u, v), = _stream(n, 1)
        applies = [e for e in ledgers[1].events if e.label == "add_lowrank"]
        assert applies[0].kind == "broadcast"
        assert applies[0].nbytes == (u.nbytes + v.nbytes) * (nodes - 1)
        assert all(e.messages == nodes - 1 for e in applies)


class TestWorkerFailure:
    def test_worker_exception_carries_remote_traceback(self):
        with _chain(_operator(16), tile_rows=8, timeout=60.0,
                    recover="fail") as m:
            with pytest.raises(WorkerFailedError) as excinfo:
                m.engine.mat_lowrank("NOSUCHVIEW", np.ones((16, 1)))
            assert "KeyError" in str(excinfo.value)
            assert excinfo.value.traceback is not None
            # The cluster is poisoned: later calls re-raise, never hang.
            with pytest.raises(WorkerFailedError, match="poisoned"):
                _refresh(m, *_stream(16, 1)[0])

    def test_killed_worker_poisons_instead_of_hanging(self):
        with _chain(_operator(16), tile_rows=8, timeout=60.0,
                    recover="fail") as m:
            m.engine.cluster.kill_worker(1)
            with pytest.raises(WorkerFailedError) as excinfo:
                _refresh(m, *_stream(16, 1)[0])
            assert excinfo.value.worker == 1
            with pytest.raises(WorkerFailedError, match="poisoned"):
                m.engine.get("P3")
            # close() after a failure stays idempotent and quiet.
            m.close()
            m.close()

    def test_node_zero_is_the_coordinator(self):
        before = _workers()
        cluster = ProcessCluster(RowShardPartitioner(16, 2, tile_rows=8),
                                 timeout=60.0)
        try:
            assert len(_workers() - before) == 1
            for hook in (cluster.kill_worker, cluster.hang_worker):
                with pytest.raises(ValueError,
                                   match="node 0 is the coordinator"):
                    hook(0)
            cluster.ping()   # refusing the hook disturbed nothing
        finally:
            cluster.close()
        assert _workers() == before

    @pytest.mark.parametrize("knob, constant", [
        ("max_retries", "DEFAULT_MAX_RETRIES"),
        ("backoff", "DEFAULT_BACKOFF"),
        ("backoff_cap", "DEFAULT_BACKOFF_CAP"),
        ("oplog_limit", "DEFAULT_OPLOG_LIMIT"),
    ])
    def test_recovery_knobs_are_module_constants(self, knob, constant):
        """Supervised recovery reads the module's constants; the cluster
        takes no option for them."""
        assert getattr(workers, constant) > 0
        with pytest.raises(TypeError, match=knob):
            ProcessCluster(RowShardPartitioner(16, 2, tile_rows=8),
                           supervise=True,
                           **{knob: getattr(workers, constant)})


class TestCoordinatorBlas:
    """Node 0's tiles run on one BLAS thread, like a worker's, and the
    caller's thread count is back once the op ends — also after a
    failed op and a poisoned cluster."""

    def test_node_zero_pins_and_restores_the_callers_count(self,
                                                           monkeypatch):
        from repro.distributed.comm import BROADCAST

        blas = workers._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS loaded in this process")
        get, set_threads = blas
        saved = get()
        seen = []

        def spy(*args):
            seen.append(get())
            return execute(*args)

        execute = workers._execute
        monkeypatch.setattr(workers, "_execute", spy)
        set_threads(3)   # a count no node runs at
        try:
            cluster = ProcessCluster(RowShardPartitioner(32, 2, tile_rows=8),
                                     timeout=60.0)
            cluster.put("A", _operator(32))
            cluster.roundtrip(("mat_lowrank", "A", np.ones((32, 1))),
                              BROADCAST, "mat_lowrank")
            assert seen == [1] and get() == 3
            cluster.close()
            assert get() == 3

            cluster = ProcessCluster(RowShardPartitioner(32, 2, tile_rows=8),
                                     timeout=60.0)
            with pytest.raises(WorkerFailedError, match="KeyError") as info:
                cluster.roundtrip(("mat_lowrank", "NOSUCHVIEW",
                                   np.ones((32, 1))), BROADCAST, "mat_lowrank")
            assert info.value.worker == 0
            assert seen == [1, 1] and get() == 3
            with pytest.raises(WorkerFailedError, match="poisoned"):
                cluster.ping()
            cluster.close()
            assert get() == 3
        finally:
            set_threads(saved)

    def test_concurrent_clusters_restore_the_callers_count(self):
        """Three clusters' node-0 ops race from three threads (more than
        this box has cores): pin / restore pairs must not interleave, or
        one restores the other's pinned count for good."""
        import threading

        from repro.distributed.comm import BROADCAST

        blas = workers._openblas()
        if blas is None:
            pytest.skip("no OpenBLAS loaded in this process")
        get, set_threads = blas
        saved = get()
        threads = 3
        clusters = [ProcessCluster(RowShardPartitioner(64, 2, tile_rows=16),
                                   timeout=60.0) for _ in range(threads)]
        errors = []

        def drive(cluster):
            try:
                for _ in range(50):
                    cluster.roundtrip(("mat_lowrank", "A", np.ones((64, 2))),
                                      BROADCAST, "mat_lowrank")
            except Exception as error:  # a thread cannot raise to pytest
                errors.append(error)

        interval = sys.getswitchinterval()
        set_threads(3)
        sys.setswitchinterval(1e-6)
        try:
            for cluster in clusters:
                cluster.put("A", _operator(64))
            pool = [threading.Thread(target=drive, args=(cluster,))
                    for cluster in clusters]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in pool)
            assert not errors, errors
            assert get() == 3
        finally:
            sys.setswitchinterval(interval)
            set_threads(saved)
            for cluster in clusters:
                cluster.close()


LEAK_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from repro.distributed import RowShardPartitioner, ProcessCluster

    def main():
        before = set(os.listdir("/dev/shm"))
        part = RowShardPartitioner(32, 2, tile_rows=8)
        cluster = ProcessCluster(part, timeout=60.0)
        cluster.put("A", np.ones((32, 32)))
        cluster.put("B", np.zeros((32, 32)))
        cluster.ping()
        assert len(cluster._segments) == 2
        # Nameless segments: nothing appears while they are in use, and
        # nothing is left after.
        assert set(os.listdir("/dev/shm")) <= before
        cluster.close()
        assert set(os.listdir("/dev/shm")) <= before
        print("CLEAN")

    if __name__ == "__main__":
        main()
""")


class TestShmLifecycle:
    def test_close_releases_segments_without_tracker_warnings(self, tmp_path):
        """No leaked /dev/shm blocks and no resource_tracker noise.

        ``-W error::UserWarning`` turns the tracker's "leaked
        shared_memory objects" atexit warning into a traceback, so a
        leak fails on stderr/returncode instead of scrolling by.
        """
        script = tmp_path / "leak_probe.py"
        script.write_text(LEAK_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"),
                          env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::UserWarning", str(script)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "CLEAN" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr


CHAIN_SRC = "input A(n, n); B := A * A; C := A * B; output C;"
#: Two inputs, a sum of products: nothing a chain recogniser accepts.
TWO_INPUT_SRC = ("input A(n, n); input B(n, n); "
                 "C := A * B + B * A; output C;")


def _sharded_plan(nodes: int, mode: str = "interpret"):
    from repro.planner import MaintenancePlan

    return MaintenancePlan("INCR", backend="dense", mode=mode, nodes=nodes)


class TestShardedSession:
    def test_forced_plan_runs_sharded_with_parity(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession, open_session

        program = parse_program(CHAIN_SRC)
        a = _operator(96, seed=3)
        sharded = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2, "codegen"), shard="hash")
        assert isinstance(sharded, ShardedSession)
        assert sharded.plan.label == "INCR-LIN@dense/codegen/x2"
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        try:
            for u, v in _stream(96, 4):
                _refresh(sharded, u, v)
                _refresh(plain, u, v)
            np.testing.assert_allclose(sharded["C"], plain["C"],
                                       rtol=1e-9, atol=1e-12)
            comm = sharded.engine.comm.as_dict()
            assert comm["bytes"]["broadcast"] > 0
        finally:
            sharded.close()

    def test_closed_session_carries_on_single_process(self):
        a = _operator(32, seed=2)
        before = _workers()
        session = _chain(a, tile_rows=8, timeout=60.0)
        assert len(_workers() - before) == 1
        oracle = _chain(a, tile_rows=8, process=False)
        stream = _stream(32, 4)
        for u, v in stream[:2]:
            _refresh(session, u, v)
            _refresh(oracle, u, v)
        session.close()
        assert _workers() == before
        assert session.backend.name == "dense"
        for u, v in stream[2:]:
            _refresh(session, u, v)
            _refresh(oracle, u, v)
        np.testing.assert_allclose(session["P3"], oracle["P3"],
                                   rtol=1e-9, atol=1e-12)

    def test_engine_ledgers_outlive_the_with_block(self):
        # Traffic and recoveries are read after the run as often as
        # during it; closing must not take them away.
        with _chain(_operator(32, seed=2), tile_rows=8) as session:
            for u, v in _stream(32, 2):
                _refresh(session, u, v)
            messages = session.engine.comm.total_messages
            assert messages > 0
        assert session.backend.name == "dense"
        assert session.engine.comm.total_messages == messages
        assert session.engine.comm.total_bytes > 0
        assert session.recoveries == []
        assert session.nodes == 2

    def test_built_backend_must_match_plan_and_takes_no_engine_arguments(
            self):
        from repro.distributed import LocalShardEngine, ShardBackend
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession

        program, inputs = parse_program(CHAIN_SRC), {"A": _operator(16)}

        def local(n, nodes):
            return ShardBackend(LocalShardEngine(
                RowShardPartitioner(n, nodes, tile_rows=8)))

        with pytest.raises(ValueError, match="this one: 16 over 4"):
            ShardedSession(program, inputs, backend=local(16, 4),
                           plan=_sharded_plan(2))
        with pytest.raises(ValueError, match="this one: 32 over 2"):
            ShardedSession(program, inputs, backend=local(32, 2),
                           plan=_sharded_plan(2))
        with pytest.raises(ValueError, match="takes no shard"):
            ShardedSession(program, inputs, backend=local(16, 2),
                           plan=_sharded_plan(2), shard="hash")

    def test_spawning_one_node_is_refused(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession

        before = _workers()
        with pytest.raises(ValueError, match="nodes must be >= 2"):
            ShardedSession(parse_program(CHAIN_SRC), {"A": _operator(16)},
                           nodes=1)
        assert _workers() == before

    def test_with_plan_falls_back_to_single_process(self):
        from repro.frontend import parse_program
        from repro.planner import MaintenancePlan
        from repro.runtime import ShardedSession, open_session

        program = parse_program(CHAIN_SRC)
        a = _operator(64, seed=4)
        sharded = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2))
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        stream = _stream(64, 4)
        for u, v in stream[:2]:
            _refresh(sharded, u, v)
            _refresh(plain, u, v)
        # Flush-before-switch: drains, copies out of shm, stops workers.
        fallback = sharded.with_plan(
            MaintenancePlan("INCR", backend="dense", mode="interpret"))
        assert not isinstance(fallback, ShardedSession)
        for u, v in stream[2:]:
            _refresh(fallback, u, v)
            _refresh(plain, u, v)
        np.testing.assert_allclose(fallback["C"], plain["C"],
                                   rtol=1e-9, atol=1e-12)

    def test_cannot_switch_into_sharded_mid_stream(self):
        from repro.frontend import parse_program
        from repro.runtime import open_session

        program = parse_program(CHAIN_SRC)
        plain = open_session(program, {"A": _operator(32)}, plan="incr",
                             backend="dense", mode="interpret")
        with pytest.raises(ValueError, match="sharded"):
            plain.with_plan(_sharded_plan(4))

    def test_auto_plan_small_n_stays_single_process(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession, open_session

        program = parse_program(CHAIN_SRC)
        session = open_session(program, {"A": _operator(48)}, nodes=4)
        assert session.plan.nodes == 1
        assert not isinstance(session, ShardedSession)

    def test_replan_monitor_falls_back_when_ipc_tax_dominates(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession, open_session

        program = parse_program(CHAIN_SRC)
        a = _operator(96, seed=6)
        monitor = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2), batch="off",
                               replan={"check_every": 2})
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        assert isinstance(monitor.session, ShardedSession)
        for u, v in _stream(96, 4, seed=8):
            _refresh(monitor, u, v)
            _refresh(plain, u, v)
        # At this size the comm-cost term dwarfs the per-shard saving:
        # the monitor must have dropped back to a single process.
        assert monitor.switch_count >= 1
        assert not isinstance(monitor.session, ShardedSession)
        assert monitor.plan.nodes == 1
        np.testing.assert_allclose(monitor["C"], plain["C"],
                                   rtol=1e-9, atol=1e-12)


class TestRunsTheLoweredList:
    """The engine runs whatever the lowered trigger lists say — here a
    two-input sum of products, updates landing on either input."""

    N = 48

    def _inputs(self):
        return {"A": _operator(self.N, seed=3), "B": _operator(self.N, seed=4)}

    def _drive(self, session):
        for index, (u, v) in enumerate(_stream(self.N, 6, seed=11)):
            _refresh(session, u, v, target="AB"[index % 2])
        return _results(session, ("A", "B", "C"))

    def test_two_input_program_bitwise_across_engines_and_modes(self):
        from repro.frontend import parse_program
        from repro.runtime import open_session

        with shard_session(TWO_INPUT_SRC, self._inputs(), tile_rows=8,
                           process=False) as local:
            want = self._drive(local)
        for strategy in ("range", "hash"):
            for mode in ("interpret", "codegen"):
                with shard_session(TWO_INPUT_SRC, self._inputs(),
                                   strategy=strategy, mode=mode, tile_rows=8,
                                   timeout=60.0) as session:
                    assert session.nodes == 2
                    got = self._drive(session)
                for name, expected in want.items():
                    assert np.array_equal(expected, got[name]), (
                        name, strategy, mode)
        reeval = open_session(parse_program(TWO_INPUT_SRC), self._inputs(),
                              plan="reeval", backend="dense", batch="off")
        truth = self._drive(reeval)
        np.testing.assert_allclose(want["C"], truth["C"], rtol=0, atol=1e-10)

    def test_planner_offers_the_two_input_program_a_sharded_cell(self):
        from repro.frontend import parse_program
        from repro.planner import rank_program

        program = parse_program(TWO_INPUT_SRC)
        inputs = {"A": np.ones((256, 256)), "B": np.ones((256, 256))}
        assert any(cell.nodes == 4
                   for cell in rank_program(program, inputs, nodes=(1, 4)))


INVERSE_SRC = "input A(n, n); W := inv(A); output W;"
RECTANGULAR_SRC = "input A(n, m); B := A * A'; output B;"


class TestTypedRefusal:
    """What no tile kernel can run is refused before a process starts."""

    @pytest.mark.parametrize("src, shape, message", [
        # The Woodbury trigger left-multiplies W by a thin row.
        (INVERSE_SRC, (16, 16), "matmul.*on a stored view"),
        (RECTANGULAR_SRC, (16, 8), "square matrices of one order"),
        (CHAIN_SRC, (16, 8), "square inputs of one order"),
    ])
    def test_unrunnable_plan_raises_before_any_spawn(self, src, shape,
                                                      message):
        from repro.frontend import parse_program
        from repro.runtime.session import (UnsupportedCombinationError,
                                           build_session)

        before = _workers()
        with pytest.raises(UnsupportedCombinationError, match=message):
            build_session(parse_program(src), {"A": np.ones(shape)},
                          _sharded_plan(2))
        assert _workers() == before

    def test_non_dense_backend_refused(self):
        pytest.importorskip("scipy")
        import dataclasses

        from repro.frontend import parse_program
        from repro.runtime.session import build_session

        plan = dataclasses.replace(_sharded_plan(2), backend="sparse")
        before = _workers()
        with pytest.raises(ValueError, match="dense backend"):
            build_session(parse_program(CHAIN_SRC), {"A": _operator(16)},
                          plan)
        assert _workers() == before

    def test_unrunnable_program_rejected(self):
        # Restated from the chain recogniser's days: what is refused is
        # a program the kernels cannot run, not one that is not a chain.
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession

        before = _workers()
        with pytest.raises(ValueError, match="stored view"):
            ShardedSession(parse_program(INVERSE_SRC),
                           {"A": np.eye(16)}, nodes=2)
        assert _workers() == before

    def test_planner_prices_no_sharded_cell_for_it(self):
        from repro.frontend import parse_program
        from repro.planner import rank_program

        cells = rank_program(parse_program(INVERSE_SRC),
                             {"A": np.eye(256)}, nodes=(1, 4))
        assert all(cell.nodes == 1 for cell in cells)

    def test_planner_judges_the_triggers_the_session_will_compile(self):
        # The planner offers a sharded cell exactly where the builder,
        # asking the same question of the same lowered lists, accepts.
        from repro.distributed.sharded import unshardable
        from repro.frontend import parse_program
        from repro.planner import rank_program

        for src, shards in ((CHAIN_SRC, True), (INVERSE_SRC, False)):
            program, inputs = parse_program(src), {"A": np.eye(256)}
            cells = rank_program(program, inputs, nodes=(1, 4))
            assert any(cell.nodes == 4 for cell in cells) is shards
            assert (unshardable(program) is None) is shards

    def test_nodes_budget_on_unshardable_program_opens_single_process(
            self):
        # A tuple holding 1 is a budget: a program the tile kernels
        # cannot run falls to a single-process cell, not a refusal.  The
        # chain opens sharded where the count is forced.
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession, open_session

        a = _operator(48) + 4.0 * np.eye(48)
        with open_session(parse_program(CHAIN_SRC), {"A": a},
                          nodes=(2,)) as sharded:
            assert isinstance(sharded, ShardedSession)
        before = _workers()
        with open_session(parse_program(INVERSE_SRC), {"A": a},
                          nodes=(1, 2)) as session:
            assert not isinstance(session, ShardedSession)
            assert session.plan.nodes == 1
            assert _workers() == before
            u, v = _stream(48, 1)[0]
            _refresh(session, u, v)
            np.testing.assert_allclose(session["W"],
                                       np.linalg.inv(a + u @ v.T),
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("n", [16, 64])
    def test_a_forced_node_count_opens_sharded(self, n):
        # Forced at any n, however the single-process cell would price.
        from repro.frontend import parse_program
        from repro.runtime import ShardedSession, open_session

        with open_session(parse_program(CHAIN_SRC), {"A": _operator(n)},
                          plan="incr", nodes=(2,), batch="off") as session:
            assert isinstance(session, ShardedSession)
            assert session.plan.nodes == 2

    @pytest.mark.parametrize("options", [
        dict(plan="incr", batch="off"), dict(), dict(plan="reeval")])
    def test_a_forced_node_count_refuses_before_any_spawn(self, options):
        from repro.frontend import parse_program
        from repro.runtime import UnsupportedCombinationError, open_session

        # The chain shards, but not under REEVAL.
        program = parse_program(
            CHAIN_SRC if options.get("plan") == "reeval" else INVERSE_SRC)
        before = _workers()
        with pytest.raises(UnsupportedCombinationError):
            open_session(program, {"A": np.eye(64)}, nodes=(2,), **options)
        assert _workers() == before


class TestPlannerNodesGrid:
    def test_sharded_cells_priced_only_when_requested(self):
        from repro.frontend import parse_program
        from repro.planner import rank_program

        program = parse_program(CHAIN_SRC)
        inputs = {"A": np.ones((256, 256))}
        plain = rank_program(program, inputs)
        assert all(c.nodes == 1 for c in plain)
        gridded = rank_program(program, inputs, nodes=(1, 4))
        assert any(c.nodes == 4 for c in gridded)
        sharded_cells = [c for c in gridded if c.nodes == 4]
        # A sharded cell takes the mode rule like any other INCR cell.
        incr_modes = {c.mode for c in gridded
                      if c.strategy == "INCR" and c.nodes == 1}
        assert all(c.strategy == "INCR" and c.backend == "dense"
                   and {c.mode} == incr_modes for c in sharded_cells)
        assert all(np.isfinite(c.predicted_time) for c in sharded_cells)

    def test_large_n_prefers_sharding_small_n_does_not(self):
        from repro.frontend import parse_program
        from repro.planner import WorkloadStats, rank_program

        program = parse_program(CHAIN_SRC)
        big = rank_program(program, {"A": np.ones((2048, 2048))},
                           stats=WorkloadStats(n=2048),
                           nodes=(1, 4))
        assert big[0].nodes == 4
        assert big[0].label.endswith("/x4")
        small = rank_program(program, {"A": np.ones((32, 32))},
                             nodes=(1, 4))
        assert small[0].nodes == 1
