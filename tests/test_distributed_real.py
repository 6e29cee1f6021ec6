"""The real multiprocess engine: sharding, parity, failure, accounting.

Bit-identity is the load-bearing claim: :class:`RowShardPartitioner`
fixes the tile decomposition as a function of ``(n, tile_rows)`` only —
never node count or strategy — and every engine executes the identical
per-tile kernel calls, so hash- and range-sharded maintenance must be
**bitwise** equal to single-process, not merely ``allclose``.

Process-spawning tests share module-scoped maintainers (spawn costs
seconds on small boxes); :meth:`ShardedChainMaintainer.reset` re-seeds
them between tests.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import (
    RowShardPartitioner,
    ShardedChainMaintainer,
    WorkerFailedError,
    power_chain,
)


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
        from repro.distributed.workers import _execute
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
        _execute(("add_lowrank", "A", u, v), {"A": view}, {},
                 tuple(part.tile_bounds), owned, ws)
        assert ws.nbytes() == self._one_tile_bytes(part)
        assert np.array_equal(view, expected)


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
        for maintainer_nodes, strategy in (
                (1, "range"), (nodes, "range"), (nodes, "hash")):
            with ShardedChainMaintainer(
                    a, power_chain(3), nodes=maintainer_nodes,
                    strategy=strategy, tile_rows=tile_rows,
                    process=False) as maintainer:
                for u, v in stream:
                    maintainer.refresh(u, v)
                finals.append({name: maintainer.result(name)
                               for name in ("A", "P2", "P3")})
        for other in finals[1:]:
            for name in ("A", "P2", "P3"):
                assert np.array_equal(finals[0][name], other[name])

    def test_chain_tracks_ground_truth(self):
        a = _operator(32)
        with ShardedChainMaintainer(a, power_chain(3), nodes=2,
                                    tile_rows=8, process=False) as m:
            for u, v in _stream(32, 5):
                a = a + u @ v.T
                m.refresh(u, v)
            np.testing.assert_allclose(m.result("P3"), a @ a @ a,
                                       rtol=1e-9, atol=1e-12)

    def test_reeval_matches_incr_numerically(self):
        a = _operator(24)
        incr = ShardedChainMaintainer(a, power_chain(2), tile_rows=8,
                                      process=False)
        reeval = ShardedChainMaintainer(a, power_chain(2), tile_rows=8,
                                        process=False, reeval=True)
        for u, v in _stream(24, 3):
            incr.refresh(u, v)
            reeval.refresh(u, v)
        np.testing.assert_allclose(incr.result("P2"), reeval.result("P2"),
                                   rtol=1e-9, atol=1e-12)


# -- process-backed tests (module-scoped: spawn is expensive) ------------

N_PROC = 48
TILE_ROWS_PROC = 8


@pytest.fixture(scope="module")
def proc_range():
    with ShardedChainMaintainer(_operator(N_PROC), power_chain(3), nodes=2,
                                strategy="range", tile_rows=TILE_ROWS_PROC,
                                process=True, timeout=60.0) as m:
        yield m


@pytest.fixture(scope="module")
def proc_hash():
    with ShardedChainMaintainer(_operator(N_PROC), power_chain(3), nodes=2,
                                strategy="hash", tile_rows=TILE_ROWS_PROC,
                                process=True, timeout=60.0) as m:
        yield m


class TestProcessParity:
    def test_process_engines_bitwise_match_local(self, proc_range, proc_hash):
        a = _operator(N_PROC)
        local = ShardedChainMaintainer(a, power_chain(3), nodes=2,
                                       tile_rows=TILE_ROWS_PROC,
                                       process=False)
        proc_range.reset(a)
        proc_hash.reset(a)
        for u, v in _stream(N_PROC, 4):
            local.refresh(u, v)
            proc_range.refresh(u, v)
            proc_hash.refresh(u, v)
        for name in ("A", "P2", "P3"):
            expected = local.result(name)
            assert np.array_equal(expected, proc_range.result(name))
            assert np.array_equal(expected, proc_hash.result(name))

    def test_comm_measures_real_bytes(self, proc_range):
        proc_range.reset(_operator(N_PROC))
        proc_range.engine.comm.reset()
        u, v = _stream(N_PROC, 1)[0]
        proc_range.refresh(u, v)
        comm = proc_range.engine.comm.as_dict()
        # Fan-out carries the factors; fan-in carries thin partials.
        assert comm["bytes"]["broadcast"] > 0
        assert comm["bytes"]["gather"] > 0
        # Real pickled payloads exceed the raw factor bytes (framing).
        assert comm["bytes"]["broadcast"] > 2 * u.nbytes
        assert comm["total_messages"] > 0
        assert sum(comm["seconds"].values()) > 0.0


class TestCommModelAgreement:
    def test_modeled_vs_measured_within_10_percent(self):
        # Thin-factor payloads at n=1024 keep pickle framing far below
        # the tolerance; smaller n would test the framing, not the model.
        n = 1024
        with ShardedChainMaintainer(_operator(n), power_chain(3), nodes=2,
                                    tile_rows=128, process=True,
                                    timeout=60.0) as m:
            m.engine.comm.reset()
            m.engine.model.reset()
            for u, v in _stream(n, 2):
                m.refresh(u, v)
            measured = m.engine.comm.bytes_by_label()
            modeled = m.engine.model.bytes_by_label()
        for label in ("add_lowrank", "mat_lowrank", "matT_lowrank"):
            assert modeled[label] > 0
            error = abs(measured[label] - modeled[label]) / modeled[label]
            assert error <= 0.10, (label, measured[label], modeled[label])


class TestWorkerFailure:
    def test_worker_exception_carries_remote_traceback(self):
        with ShardedChainMaintainer(_operator(16), power_chain(2), nodes=2,
                                    tile_rows=8, process=True,
                                    timeout=60.0) as m:
            with pytest.raises(WorkerFailedError) as excinfo:
                m.engine.mat_lowrank("NOSUCHVIEW", np.ones((16, 1)))
            assert "KeyError" in str(excinfo.value)
            assert excinfo.value.traceback is not None
            # The cluster is poisoned: later calls re-raise, never hang.
            with pytest.raises(WorkerFailedError, match="poisoned"):
                m.refresh(*_stream(16, 1)[0])

    def test_killed_worker_poisons_instead_of_hanging(self):
        with ShardedChainMaintainer(_operator(16), power_chain(2), nodes=2,
                                    tile_rows=8, process=True,
                                    timeout=60.0) as m:
            m.engine.cluster.kill_worker(0)
            with pytest.raises(WorkerFailedError) as excinfo:
                m.refresh(*_stream(16, 1)[0])
            assert excinfo.value.worker == 0
            with pytest.raises(WorkerFailedError, match="poisoned"):
                m.result()
            # close() after a failure stays idempotent and quiet.
            m.close()
            m.close()

    def test_result_reads_through_engine_get(self, proc_range):
        proc_range.reset(_operator(N_PROC))
        out = proc_range.result("A")
        out[0, 0] = 123.0  # a private copy, not the live segment
        assert proc_range.result("A")[0, 0] != 123.0


LEAK_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from repro.distributed import RowShardPartitioner, ProcessCluster

    def main():
        part = RowShardPartitioner(32, 2, tile_rows=8)
        cluster = ProcessCluster(part, timeout=60.0)
        cluster.put("A", np.ones((32, 32)))
        cluster.alloc("B", (32, 32))
        cluster.ping()
        segments = [seg.name for seg in cluster._segments.values()]
        assert segments
        cluster.close()
        for name in segments:
            assert not os.path.exists("/dev/shm/" + name), name
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


def _sharded_plan(nodes: int):
    from repro.planner import MaintenancePlan

    return MaintenancePlan("INCR", backend="dense", mode="interpret",
                           nodes=nodes)


class TestShardedChainSession:
    def test_forced_plan_runs_sharded_with_parity(self):
        from repro.frontend import parse_program
        from repro.runtime import (FactoredUpdate, ShardedChainSession,
                                   open_session)

        program = parse_program(CHAIN_SRC)
        a = _operator(96, seed=3)
        sharded = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2), shard="hash")
        assert isinstance(sharded, ShardedChainSession)
        assert sharded.plan.label.endswith("/x2")
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        try:
            for u, v in _stream(96, 4):
                sharded.apply_update(FactoredUpdate("A", u, v))
                plain.apply_update(FactoredUpdate("A", u, v))
            np.testing.assert_allclose(sharded["C"], plain["C"],
                                       rtol=1e-9, atol=1e-12)
            comm = sharded.engine.comm.as_dict()
            assert comm["bytes"]["broadcast"] > 0
        finally:
            sharded.close()

    def test_with_plan_falls_back_to_single_process(self):
        from repro.frontend import parse_program
        from repro.planner import MaintenancePlan
        from repro.runtime import (FactoredUpdate, ShardedChainSession,
                                   open_session)

        program = parse_program(CHAIN_SRC)
        a = _operator(64, seed=4)
        sharded = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2))
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        stream = _stream(64, 4)
        for u, v in stream[:2]:
            sharded.apply_update(FactoredUpdate("A", u, v))
            plain.apply_update(FactoredUpdate("A", u, v))
        # Flush-before-switch: drains, copies out of shm, stops workers.
        fallback = sharded.with_plan(
            MaintenancePlan("INCR", backend="dense", mode="interpret"))
        assert not isinstance(fallback, ShardedChainSession)
        for u, v in stream[2:]:
            fallback.apply_update(FactoredUpdate("A", u, v))
            plain.apply_update(FactoredUpdate("A", u, v))
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

    def test_non_chain_program_rejected(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedChainSession

        program = parse_program(
            "input A(n, n); input D(n, n); B := A * D; output B;")
        with pytest.raises(ValueError, match="chain-shaped"):
            ShardedChainSession(program,
                               {"A": _operator(16), "D": _operator(16)},
                               nodes=2)

    def test_auto_plan_small_n_stays_single_process(self):
        from repro.frontend import parse_program
        from repro.runtime import ShardedChainSession, open_session

        program = parse_program(CHAIN_SRC)
        session = open_session(program, {"A": _operator(48)}, nodes=4)
        assert session.plan.nodes == 1
        assert not isinstance(session, ShardedChainSession)

    def test_replan_monitor_falls_back_when_ipc_tax_dominates(self):
        from repro.frontend import parse_program
        from repro.runtime import (FactoredUpdate, ShardedChainSession,
                                   open_session)

        program = parse_program(CHAIN_SRC)
        a = _operator(96, seed=6)
        monitor = open_session(program, {"A": a.copy()},
                               plan=_sharded_plan(2), batch="off",
                               replan={"check_every": 2})
        plain = open_session(program, {"A": a.copy()}, plan="incr",
                             backend="dense", mode="interpret", batch="off")
        assert isinstance(monitor.session, ShardedChainSession)
        for u, v in _stream(96, 4, seed=8):
            monitor.apply_update(FactoredUpdate("A", u, v))
            plain.apply_update(FactoredUpdate("A", u, v))
        # At this size the comm-cost term dwarfs the per-shard saving:
        # the monitor must have dropped back to a single process.
        assert monitor.switch_count >= 1
        assert not isinstance(monitor.session, ShardedChainSession)
        assert monitor.plan.nodes == 1
        np.testing.assert_allclose(monitor["C"], plain["C"],
                                   rtol=1e-9, atol=1e-12)


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
        assert all(c.strategy == "INCR" and c.backend == "dense"
                   and c.mode == "interpret" for c in sharded_cells)
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


class TestSimulatedAccounting:
    """Satellite bugfix: broadcast bytes follow the *cluster*, not the
    tile grid — the low-rank update ships the factor pair once per node."""

    def test_broadcast_counts_once_per_node(self):
        from repro.distributed import (
            BlockMatrix,
            Cluster,
            ClusterConfig,
            SimulatedBackend,
        )

        n, tile_grid = 32, 4  # 16 tiles on a 4-worker (2x2) cluster
        cluster = Cluster(config=ClusterConfig(grid=2))
        workers = cluster.config.workers
        assert workers != tile_grid * tile_grid  # the bug's precondition
        a = BlockMatrix.from_dense(np.eye(n), tile_grid)
        u = np.ones((n, 2))
        v = np.ones((n, 2))
        SimulatedBackend(cluster).add_outer_inplace(a, u, v)
        expected = (u.nbytes + v.nbytes) * workers
        assert cluster.comm.broadcast_bytes == expected
        [event] = [e for e in cluster.comm.events if e.kind == "broadcast"]
        assert event.messages == workers
