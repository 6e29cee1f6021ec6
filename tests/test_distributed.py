"""Traffic ledgers: the :class:`CommLog` classes, and the modeled traffic
the node-count reports price — an INCR refresh on the in-process
row-shard engine split over clusters no test box has to spawn, against
re-evaluation's best case (perfectly parallel FLOPs plus one all-gather
of the right operand per ``n x n`` product).

Then the in-process row-shard layout itself: its balanced split, the
``ShardBackend`` kernels by operand kind, the modeled ledger op by op,
and one differential grid of the iterative program families against
re-evaluation."""

import math

import numpy as np
import pytest

from repro.cost.counters import Counter
from repro.distributed import (CommLog, LocalShardEngine,
                               RowShardPartitioner, ShardBackend)
from repro.frontend import parse_program
from repro.runtime import FactoredUpdate, ReevalSession
from repro.workloads import spectral_normalized
from stream_helpers import (ITERATIVE, POWER_CHAIN, assert_views_close,
                            shard_session)

POWERS_8 = ("input A(n, n); P2 := A * A; P4 := P2 * P2; P8 := P4 * P4; "
            "output P8;")
POWERS_16 = POWERS_8.replace("output P8;", "P16 := P8 * P8; output P16;")


class TestCommLog:
    def test_classified_totals(self):
        log = CommLog()
        log.record("shuffle", "matmul", 100, messages=4)
        log.record("broadcast", "lowrank_update", 30, messages=9)
        log.record("gather", "mat_lowrank", 10)
        assert log.shuffled_bytes == 100
        assert log.broadcast_bytes == 30
        assert log.gathered_bytes == 10
        assert log.total_bytes == 140
        assert log.total_messages == 14

    def test_by_label(self):
        log = CommLog()
        log.record("broadcast", "x", 5)
        log.record("broadcast", "x", 7)
        log.record("shuffle", "y", 1)
        assert log.bytes_by_label() == {"x": 12, "y": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            CommLog().record("carrier-pigeon", "x", 1)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            CommLog().record("shuffle", "x", -1)

    def test_reset(self):
        log = CommLog()
        log.record("shuffle", "x", 5)
        log.reset()
        assert log.total_bytes == 0


def _one_refresh(source: str, a: np.ndarray, nodes: int):
    """INCR on ``nodes`` row-shard workers and dense REEVAL, after one
    rank-1 row update: ``(INCR's modeled ledger, {strategy: Counter})``.
    The initial build is in neither."""
    n = a.shape[0]
    counters = {"INCR": Counter(), "REEVAL": Counter()}
    incr = shard_session(source, {"A": a}, nodes=nodes,
                         tile_rows=math.ceil(n / nodes), process=False,
                         counter=counters["INCR"])
    reeval = ReevalSession(parse_program(source), {"A": a},
                           counter=counters["REEVAL"])
    incr.engine.model.reset()
    for counter in counters.values():
        counter.reset()
    u = np.zeros((n, 1))
    u[0, 0] = 1.0
    for session in (incr, reeval):
        session.apply_update(FactoredUpdate("A", u, 0.01 * np.ones((n, 1))))
    output = incr.program.outputs[0]
    np.testing.assert_allclose(incr[output], reeval[output],
                               rtol=1e-9, atol=1e-12)
    incr.close()
    return incr.engine.model, counters


class TestNodeCountModel:
    # Per-worker rates of benchmarks/bench_fig3f_nodes.py.
    FLOP_RATE, BANDWIDTH, LATENCY = 5.0e7, 2.0e7, 2.0e-5

    def _seconds(self, flops, bytes_per_worker, rounds):
        return (flops / self.FLOP_RATE + bytes_per_worker / self.BANDWIDTH
                + rounds * self.LATENCY)

    def test_incr_ships_fewer_bytes(self, rng):
        # Needs k << n (the paper's regime): factor broadcasts are O(nk)
        # against the O(n^2) operand every product all-gathers.
        n, nodes = 200, 16
        model, counters = _one_refresh(POWERS_8, spectral_normalized(rng, n),
                                       nodes)
        products = counters["REEVAL"].calls_by_op["matmul_into"]
        assert products == 3
        assert model.shuffled_bytes == 0 and model.broadcast_bytes > 0
        assert model.total_bytes < products * n * n * 8 * (nodes - 1)

    def test_fig3f_trend(self, rng):
        """REEVAL speeds up with workers; INCR stays comparatively flat."""
        n = 120
        a = spectral_normalized(rng, n, 0.9)
        reeval_times, incr_times = [], []
        for nodes in (4, 16, 64):
            model, counters = _one_refresh(POWERS_16, a, nodes)
            incr_times.append(self._seconds(
                counters["INCR"].total_flops / nodes,
                model.total_bytes / nodes, model.total_messages / nodes))
            products = counters["REEVAL"].calls_by_op["matmul_into"]
            reeval_times.append(self._seconds(
                counters["REEVAL"].total_flops / nodes,
                products * n * n * 8 * (nodes - 1) / nodes, products))
        assert reeval_times[0] > reeval_times[-1] * 2  # strong scaling
        incr_spread = max(incr_times) / min(incr_times)
        reeval_spread = reeval_times[0] / reeval_times[-1]
        assert incr_spread < reeval_spread  # INCR far less node-sensitive
        assert all(i < r for i, r in zip(incr_times, reeval_times))

    def test_incr_sums_modeled_time_beats_reeval(self, rng):
        n, nodes = 120, 4
        model, counters = _one_refresh(ITERATIVE["sums-EXP"],
                                       spectral_normalized(rng, n), nodes)
        products = counters["REEVAL"].calls_by_op["matmul_into"]
        incr = self._seconds(counters["INCR"].total_flops / nodes,
                             model.total_bytes / nodes,
                             model.total_messages / nodes)
        reeval = self._seconds(counters["REEVAL"].total_flops / nodes,
                               products * n * n * 8 * (nodes - 1) / nodes,
                               products)
        assert incr < reeval


# -- the row-shard layout and its kernels -----------------------------------

class TestBalancedRanges:
    @pytest.mark.parametrize("n_tiles, nodes", [(10, 3), (7, 7), (5, 2),
                                                (12, 5)])
    def test_range_runs_differ_by_at_most_one_tile(self, n_tiles, nodes):
        part = RowShardPartitioner(4 * n_tiles, nodes, tile_rows=4)
        assert part.n_tiles == n_tiles
        sizes = [len(shard) for shard in part.shards]
        assert max(sizes) - min(sizes) <= 1
        # The first ``n_tiles % nodes`` workers take the extra tile.
        assert sizes == sorted(sizes, reverse=True)
        assert [t for shard in part.shards for t in shard] == list(
            range(n_tiles))  # contiguous runs, in worker order

    @pytest.mark.parametrize("n, nodes, tile_rows, message", [
        (0, 1, None, "dimension"),
        (8, 0, None, "nodes"),
        (8, 2, 0, "tile_rows"),
    ])
    def test_invalid_sizes_rejected(self, n, nodes, tile_rows, message):
        with pytest.raises(ValueError, match=message):
            RowShardPartitioner(n, nodes, tile_rows=tile_rows)


def _backend(n=12, nodes=3, tile_rows=5):
    return ShardBackend(LocalShardEngine(
        RowShardPartitioner(n, nodes, tile_rows=tile_rows)))


class TestShardBackendKernels:
    """Each kernel of the Backend surface, by operand kind."""

    def test_put_never_aliases_the_callers_array(self, rng):
        backend = _backend()
        a = rng.normal(size=(12, 12))
        original = a.copy()
        view = backend.put("A", a)
        backend.add_outer_inplace(view, np.ones((12, 1)), np.ones((12, 1)))
        np.testing.assert_array_equal(a, original)
        np.testing.assert_allclose(view, original + 1.0)
        # Storing under a known name overwrites in place.
        assert backend.put("A", original) is view
        np.testing.assert_array_equal(view, original)

    def test_view_times_thin_runs_on_the_tiles(self, rng):
        backend = _backend()
        a = rng.normal(size=(12, 12))
        view = backend.put("A", a)
        u = rng.normal(size=(12, 2))
        np.testing.assert_allclose(backend.matmul_into(view, u, None), a @ u,
                                   atol=1e-12)
        np.testing.assert_allclose(backend.matmul_into(view.T, u, None),
                                   a.T @ u, atol=1e-12)
        assert [e.label for e in backend.engine.model.events
                if e.kind == "gather"] == ["mat_lowrank", "matT_lowrank"]

    def test_add_outer_accumulates_into_the_stored_view(self, rng):
        backend = _backend()
        a = rng.normal(size=(12, 12))
        view = backend.put("A", a)
        u = rng.normal(size=(12, 2))
        v = rng.normal(size=(12, 2))
        assert backend.add_outer_inplace(view, u, v) is view
        assert backend.engine.get("A") is view
        np.testing.assert_allclose(view, a + u @ v.T, atol=1e-12)
        assert backend.began == backend.finished == ["A"]

    def test_thin_work_stays_in_process(self, rng):
        backend = _backend()
        backend.put("A", rng.normal(size=(12, 12)))
        x = rng.normal(size=(12, 3))
        y = rng.normal(size=(3, 2))
        np.testing.assert_allclose(backend.matmul_into(x, y, None), x @ y)
        t = rng.normal(size=(12, 2))
        expect = t + x @ x[:2].T
        backend.add_outer_inplace(t, x, x[:2])
        np.testing.assert_allclose(t, expect)
        assert backend.engine.model.events == []
        assert backend.began == []

    def test_copies_of_a_view_are_thin_operands(self, rng):
        backend = _backend()
        a = rng.normal(size=(12, 12))
        copy = backend.put("A", a).copy()
        u = rng.normal(size=(12, 1))
        np.testing.assert_allclose(backend.matmul_into(copy, u, None), a @ u)
        assert backend.engine.model.events == []

    def test_view_times_square_stays_in_process(self, rng):
        """Only a thin right operand has a tile kernel: what a rebuild's
        re-evaluation multiplies a stored view by is square."""
        backend = _backend()
        a, b = rng.normal(size=(12, 12)), rng.normal(size=(12, 12))
        view = backend.put("A", a)
        np.testing.assert_array_equal(backend.matmul_into(view, b), a @ b)
        np.testing.assert_array_equal(backend.matmul_into(view.T, b), a.T @ b)
        assert backend.engine.model.events == []

    @pytest.mark.parametrize("mode", ["interpret", "codegen"])
    def test_rebuild_and_revalidate_ship_nothing(self, mode, rng):
        """Re-evaluating the views from the inputs runs in the
        coordinator; only factored updates reach the shards."""
        n = 16
        session = shard_session(POWER_CHAIN, {"A": 0.1 * rng.normal(size=(n, n))},
                                process=False, mode=mode)
        u, v = rng.normal(size=(n, 1)), rng.normal(size=(n, 1))
        session.apply_update(FactoredUpdate("A", u, v))
        model = session.backend.engine.model
        assert model.events
        model.reset()
        session.rebuild()
        assert session.revalidate() < 1e-12
        assert model.events == []


class TestModeledLedger:
    """``engine.model``: what each op ships over ``part.nodes`` nodes."""

    N, NODES, TILE_ROWS, K = 20, 4, 6, 2   # 4 tiles, the last of 2 rows

    def _engine(self, strategy="range"):
        engine = LocalShardEngine(RowShardPartitioner(
            self.N, self.NODES, strategy, tile_rows=self.TILE_ROWS))
        engine.put("A", np.eye(self.N))
        return engine

    def _thin(self):
        return np.ones((self.N, self.K))

    def test_lowrank_broadcast_is_linear_bytes(self):
        engine = self._engine()
        engine.add_lowrank("A", self._thin(), self._thin())
        [event] = engine.model.events
        assert (event.kind, event.label) == ("broadcast", "add_lowrank")
        assert event.nbytes == 2 * self.N * self.K * 8 * self.NODES
        assert event.messages == self.NODES

    def test_mat_lowrank_gathers_one_thin_block(self):
        engine = self._engine()
        engine.mat_lowrank("A", self._thin())
        assert engine.model.bytes_by_kind() == {
            "shuffle": 0,
            "broadcast": self.N * self.K * 8 * self.NODES,
            "gather": self.N * self.K * 8,
        }

    def test_matT_lowrank_gathers_one_partial_per_row_tile(self):
        engine = self._engine()
        assert engine.part.n_tiles == 4
        engine.matT_lowrank("A", self._thin())
        assert engine.model.gathered_bytes == 4 * self.N * self.K * 8
        assert engine.model.messages_by_kind()["gather"] == self.NODES

    def test_no_tile_kernel_shuffles(self):
        engine = self._engine()
        thin = self._thin()
        engine.add_lowrank("A", thin, thin)
        engine.mat_lowrank("A", thin)
        engine.matT_lowrank("A", thin)
        assert engine.model.shuffled_bytes == 0
        assert set(engine.model.bytes_by_label()) == {
            "add_lowrank", "mat_lowrank", "matT_lowrank"}

    def test_model_ignores_the_shard_strategy(self):
        ledgers = []
        for strategy in RowShardPartitioner.STRATEGIES:
            engine = self._engine(strategy)
            engine.add_lowrank("A", self._thin(), self._thin())
            engine.matT_lowrank("A", self._thin())
            ledgers.append(engine.model.as_dict())
        assert ledgers[0] == ledgers[1]

    def test_reset_clears_the_ledger_not_the_views(self):
        engine = self._engine()
        engine.add_lowrank("A", self._thin(), self._thin())
        kept = engine.get("A").copy()
        engine.model.reset()
        assert engine.model.total_bytes == 0
        np.testing.assert_array_equal(engine.get("A"), kept)


# -- the iterative models on the shipping layout ----------------------------

@pytest.mark.parametrize("layout", [(1, 24), (3, 5)],
                         ids=["1-node", "3-nodes"])
@pytest.mark.parametrize("mode", ["interpret", "codegen"])
@pytest.mark.parametrize("family", list(ITERATIVE))
def test_shard_matches_reeval(family, mode, layout, rng):
    """Every family equals re-evaluation on the row-shard engine, and the
    modeled ledger shows the paper's claim: under incremental
    maintenance only thin factors move — no tile is ever shuffled."""
    nodes, tile_rows = layout
    n = 24
    program = parse_program(ITERATIVE[family])
    inputs = {sym.name: 0.2 * rng.normal(size=(n, n))
              for sym in program.inputs}
    incr = shard_session(program, {k: v.copy() for k, v in inputs.items()},
                         nodes=nodes, tile_rows=tile_rows, process=False,
                         mode=mode)
    oracle = ReevalSession(program, {k: v.copy() for k, v in inputs.items()})
    n_tiles = incr.engine.part.n_tiles
    for step in range(3):
        incr.engine.model.reset()
        u = np.zeros((n, 1))
        u[rng.integers(n), 0] = 1.0
        update = FactoredUpdate("A", u, 0.05 * rng.normal(size=(n, 1)))
        incr.apply_update(update)
        oracle.apply_update(update)
        assert_views_close(incr, oracle, program, f"after update {step}")
        model = incr.engine.model
        assert model.shuffled_bytes == 0 and model.broadcast_bytes > 0
        assert "add_lowrank" in model.bytes_by_label()
        assert all(e.messages == nodes for e in model.events)
        assert all(e.nbytes % (n_tiles * n * 8) == 0 for e in model.events
                   if e.kind == "gather" and e.label == "matT_lowrank")
    incr.close()
