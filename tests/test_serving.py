"""Differential concurrency harness for the view-serving layer (CQRS).

The ISSUE 6 headline test work: concurrent readers racing a randomized
update stream must only ever observe *exact flushed-epoch states* — the
state the unit-at-a-time oracle reaches after ``snap.seq`` updates —
never a torn read of a half-applied update or a half-copied snapshot.
Plus the contract around it: the staleness bound is always honored,
shutdown drains the queue, re-planning happens on the writer thread,
and writer failures poison the server instead of hanging waiters.
"""

import json
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import session_scenario
from stream_helpers import zipf_row_updates

from repro.frontend import parse_program
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    MaintainerEngine,
    ReplanMonitor,
    ServerClosedError,
    ViewServer,
    WriterFailedError,
    open_session,
    run_load,
)


def _capture(session, names):
    return {name: np.array(session[name], dtype=np.float64) for name in names}


def _oracle_states(program, inputs, names, updates):
    """State after every prefix of ``updates``, applied one at a time."""
    oracle = IVMSession(program, {k: v.copy() for k, v in inputs.items()},
                        mode="interpret", backend="dense")
    states = [_capture(oracle, names)]
    for update in updates:
        oracle.apply_update(update)
        states.append(_capture(oracle, names))
    return states


def _assert_state(observed, want, context):
    for name, got in observed.items():
        scale = max(1.0, float(np.max(np.abs(want[name]))))
        np.testing.assert_allclose(
            got, want[name], rtol=1e-7, atol=1e-8 * scale,
            err_msg=f"{name} diverged {context}",
        )


def _poll_snapshots(server, stop, sink):
    """Reader loop: record every distinct epoch the server publishes."""
    last = -1
    while not stop.is_set():
        snap = server.snapshot
        if snap.epoch != last:
            last = snap.epoch
            sink.append(snap)
    sink.append(server.snapshot)


class TestDifferentialConcurrency:
    """Racing readers vs the unit-at-a-time oracle, across the grid."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_readers_only_observe_flushed_oracle_states(self, data):
        program, n, inputs = data.draw(session_scenario())
        bound = data.draw(st.sampled_from([1, 2, 4, 8]))
        mode = data.draw(st.sampled_from(["interpret", "codegen"]))
        batch = data.draw(st.sampled_from([None, 3]))
        count = data.draw(st.integers(8, 20))
        theta = data.draw(st.sampled_from([0.0, 2.0]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, count, theta,
                                   target=program.input_names[0])
        names = tuple(program.view_names)
        states = _oracle_states(program, inputs, names, updates)

        session = IVMSession(program, {k: v.copy() for k, v in inputs.items()},
                             mode=mode, backend="dense")
        if batch:
            session.set_batching(batch)
        server = ViewServer(session, views=names, max_staleness=bound)
        try:
            stop = threading.Event()
            observed: list[list] = [[], []]
            readers = [
                threading.Thread(target=_poll_snapshots,
                                 args=(server, stop, sink), daemon=True)
                for sink in observed
            ]
            for thread in readers:
                thread.start()
            for index, update in enumerate(updates):
                server.submit(update)
                if index % 5 == 4:
                    time.sleep(0)  # let readers catch mid-stream epochs
            final = server.refresh()
            stop.set()
            for thread in readers:
                thread.join(timeout=30.0)

            assert final.seq == count
            _assert_state(final.views, states[count], "at the final epoch")
            for sink in observed:
                assert sink, "reader never saw a snapshot"
                for snap in sink:
                    # Torn reads (mixed epochs, half-applied updates)
                    # cannot match any exact oracle prefix state.
                    _assert_state(snap.views, states[snap.seq],
                                  f"at observed seq {snap.seq}")
            # The staleness bound held on every publication.
            assert server.stats.applied == count
            assert all(p <= bound for p in server.stats.pending_log)
        finally:
            server.close()

    def test_close_drains_queued_updates(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        updates = zipf_row_updates(rng, n, 17, 1.5)
        names = tuple(program.view_names)
        states = _oracle_states(program, inputs, names, updates)
        server = ViewServer(
            IVMSession(program, {k: v.copy() for k, v in inputs.items()}),
            views=names, max_staleness=64,
        )
        server.submit_many(updates)
        server.close()  # no refresh first: close itself must drain
        snap = server.snapshot
        assert snap.seq == len(updates)
        assert server.stats.applied == len(updates)
        _assert_state(snap.views, states[-1], "after drain-on-close")
        # The closed server still serves its final epoch, read-only.
        arr = server.read(names[0])
        assert not arr.flags.writeable
        with pytest.raises(ServerClosedError):
            server.submit(updates[0])

    def test_replans_happen_on_the_writer_thread(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = open_session(
            program, inputs, plan="incr", backend="dense", mode="interpret",
            batch=4, refresh_count=200,
            replan={"check_every": 5, "probe_every": 100},
            serve={"max_staleness": 4},
        )
        monitor = server._engine.target
        assert isinstance(monitor, ReplanMonitor)
        idents: list[int] = []
        original = monitor.replan

        def spy():
            idents.append(threading.get_ident())
            return original()

        monitor.replan = spy
        try:
            server.submit_many(zipf_row_updates(rng, n, 12, 2.0))
            server.refresh()
            assert idents, "check_every=5 over 12 updates never re-planned"
            assert set(idents) == {server._thread.ident}
            assert threading.get_ident() not in idents
        finally:
            server.close()


def _fixed_scenario(rng):
    program = parse_program("input A(n, n); B := A * A; C := B * B; output C;")
    n = 8
    return program, n, {"A": 0.2 * rng.standard_normal((n, n))}


class TestViewServerContract:
    def test_read_never_blocks_on_queued_work(self, rng):
        """Reads return the published epoch even with a stalled writer."""
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=None)
        gate = threading.Event()
        try:
            before = server.snapshot
            server.call(gate.wait)  # park the writer mid-stream
            server.submit_many(zipf_row_updates(rng, n, 50, 0.0))
            # The writer is stuck and the queue is deep, yet reads serve
            # the last published epoch instantly — the exact same array.
            assert server.read("C") is before.views["C"]
            gate.set()
            assert server.refresh().seq == 51  # the parked call + 50 updates
        finally:
            gate.set()
            server.close()

    def test_call_wait_reads_your_writes(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        session = IVMSession(program, inputs)
        server = ViewServer(session, max_staleness=64)
        try:
            update = zipf_row_updates(rng, n, 1, 0.0)[0]
            server.call(session.apply_update, update, wait=True)
            # wait=True published before returning: the write is visible.
            assert server.snapshot.seq == 1
        finally:
            server.close()

    def test_call_wait_reraises_here_without_poisoning(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs))
        try:
            with pytest.raises(ValueError, match="boom"):
                server.call(_raise_boom, wait=True)
            server.refresh()  # the writer survived the waited failure
        finally:
            server.close()

    def test_writer_failure_poisons_server_and_releases_waiters(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs))
        server.call(_raise_boom)  # fire-and-forget: the failure is fatal
        with pytest.raises(WriterFailedError) as info:
            server.refresh(timeout=30.0)
        assert isinstance(info.value.__cause__, ValueError)
        with pytest.raises(WriterFailedError):
            server.submit(FactoredUpdate("A", np.ones((n, 1)), np.ones((n, 1))))
        with pytest.raises(WriterFailedError):
            server.close()

    def test_watch_grows_the_publish_set_on_demand(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), views=("C",))
        try:
            assert "B" not in server.snapshot.views
            got = server.read("B")  # known to the session, not yet served
            assert "B" in server.snapshot.views
            np.testing.assert_allclose(got, inputs["A"] @ inputs["A"])
            with pytest.raises(KeyError, match="no view named"):
                server.read("nope")
        finally:
            server.close()

    def test_constructor_validation(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        session = IVMSession(program, inputs)
        with pytest.raises(KeyError, match="unknown views"):
            ViewServer(session, views=("C", "nope"))
        with pytest.raises(ValueError, match="max_staleness"):
            ViewServer(session, max_staleness=0)
        with pytest.raises(ValueError, match="max_age"):
            ViewServer(session, max_age=-1.0)
        with pytest.raises(TypeError, match="cannot serve"):
            ViewServer(object())

    def test_staleness_policy_decisions(self, rng):
        """The publish predicate, pinned deterministically."""
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=3)
        server.close()  # the writer is gone; poke the predicate directly
        server._pending = 0
        assert not server._should_publish()
        server._pending = 2
        assert not server._should_publish()
        server._pending = 3
        assert server._should_publish()
        server.max_staleness = None
        assert not server._should_publish()  # idle-only policy
        server.max_age = 0.01
        server._oldest_pending = time.monotonic() - 1.0
        assert server._should_publish()  # age bound fires under load
        server._oldest_pending = time.monotonic()
        assert not server._should_publish()

    def test_open_session_serve_wires_plan_through(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = open_session(program, inputs, plan="incr", backend="dense",
                              serve=True)
        try:
            assert isinstance(server, ViewServer)
            assert server.plan.strategy == "INCR"
            server.submit_many(zipf_row_updates(rng, n, 3, 0.0))
            assert server.refresh().seq == 3
        finally:
            server.close()

    def test_context_manager_closes_and_reports_body_errors_first(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        with ViewServer(IVMSession(program, inputs)) as server:
            server.submit_many(zipf_row_updates(rng, n, 3, 0.0))
        assert server.stats.applied == 3  # exit drained before joining
        with pytest.raises(RuntimeError, match="body wins"):
            with ViewServer(IVMSession(program, inputs)) as server:
                server.call(_raise_boom)  # poisons the writer...
                raise RuntimeError("body wins")  # ...but the body's error

    def test_run_load_reports_the_contract_numbers(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=8)
        pool = zipf_row_updates(rng, n, 64, 1.0)
        try:
            results = run_load(server, lambda i: pool[i % len(pool)],
                               read_names=("C",), duration=0.2, readers=2,
                               reader_rate=0.0)
        finally:
            server.close()
        assert results["reads"] > 0
        assert results["writer_updates"] > 0
        assert results["max_staleness_observed"] <= 8
        assert results["staleness_bound"] == 8
        assert results["read_p50_ms"] <= results["read_p99_ms"]


def _raise_boom():
    raise ValueError("boom")


class TestDriverServing:
    def test_pagerank_serves_exact_ranks_under_edits(self, rng):
        from repro.analytics import IncrementalPageRank

        n = 12
        adjacency = (rng.random((n, n)) < 0.3).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        pr = IncrementalPageRank(adjacency.copy(), k=10, strategy="HYBRID")
        server = pr.serve(max_staleness=2)
        try:
            for _ in range(6):
                s, t = rng.integers(0, n, size=2)
                server.call(pr.add_edge, int(s), int(t))
            server.refresh()
            assert pr.revalidate() < 1e-8
            np.testing.assert_allclose(server.read("ranks"), pr.ranks)
        finally:
            server.close()

    def test_markov_serves_k_step_matrix(self, rng):
        from repro.analytics.markov import (
            KStepTransitionMatrix,
            random_walk_matrix,
            reference_k_step,
        )

        n = 10
        adjacency = (rng.random((n, n)) < 0.4).astype(float)
        p = random_walk_matrix(adjacency)
        chain = KStepTransitionMatrix(p.copy(), k=8)
        server = chain.serve(max_staleness=1)
        try:
            column = rng.random(n) + 0.1
            column /= column.sum()
            server.call(chain.perturb_column, 3, column, wait=True)
            got = server.read("result")
            np.testing.assert_allclose(got, reference_k_step(chain.p, 8),
                                       atol=1e-9)
        finally:
            server.close()

    def test_maintainer_engine_rejects_raw_updates_without_refresh(self):
        engine = MaintainerEngine(object(), views={"x": lambda: np.eye(2)})
        server = ViewServer(engine)
        server.submit(FactoredUpdate("x", np.ones((2, 1)), np.ones((2, 1))))
        with pytest.raises(WriterFailedError) as info:
            server.refresh(timeout=30.0)
        assert isinstance(info.value.__cause__, TypeError)
        with pytest.raises(WriterFailedError):
            server.close()


class TestServeCLI:
    @pytest.fixture
    def program_file(self, tmp_path):
        path = tmp_path / "serve.lvw"
        path.write_text("input A(n, n);\nB := A * A;\noutput B;\n")
        return str(path)

    def test_serve_json_reports_latency_and_staleness(self, program_file,
                                                      capsys):
        from repro.cli import main

        code = main([
            "serve", program_file, "--dims", "n=8", "--duration", "0.15",
            "--readers", "2", "--staleness", "4", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "snapshot"
        results = payload["results"]
        assert results["reads"] > 0
        assert results["max_staleness_observed"] <= 4
        assert results["staleness_bound"] == 4
        stats = payload["server_stats"]
        assert stats["applied"] == stats["submitted"]  # close() drained
        assert stats["epochs"] >= 1


class TestIngressRobustness:
    """Bounded ingress (ISSUE 9): overload policy, timeouts, draining
    shutdown — a stalled writer must cost callers a *typed* error or a
    bounded wait, never a hang or an unbounded queue."""

    def _stalled_server(self, rng, **kwargs):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs),
                            max_staleness=None, **kwargs)
        gate = threading.Event()
        server.call(gate.wait)  # park the writer: nothing drains
        return server, gate, zipf_row_updates(rng, n, 64, 0.0)

    def test_reject_policy_raises_typed_overflow(self, rng):
        from repro.runtime import IngressOverflowError

        server, gate, updates = self._stalled_server(
            rng, max_queue=2, overload="reject")
        try:
            with pytest.raises(IngressOverflowError, match="full"):
                for update in updates:
                    server.submit(update)
            assert server.stats.rejected >= 1
            assert server.stats.submitted == 3  # the parked call + 2 admitted
        finally:
            gate.set()
            server.close()

    def test_shed_oldest_admits_new_and_counts(self, rng):
        server, gate, updates = self._stalled_server(
            rng, max_queue=2, overload="shed-oldest")
        try:
            for update in updates[:10]:
                server.submit(update)
            gate.set()
            server.refresh()
            assert server.stats.shed == 8
            # Everything admitted was either applied or shed, none lost.
            assert server.stats.applied >= 2  # the parked call + newest
        finally:
            gate.set()
            server.close()

    def test_block_policy_timeout_is_bounded(self, rng):
        from repro.runtime import IngressTimeoutError

        server, gate, updates = self._stalled_server(
            rng, max_queue=1, overload="block")
        try:
            server.submit(updates[0])
            started = time.monotonic()
            with pytest.raises(IngressTimeoutError, match="0.1"):
                server.submit(updates[1], timeout=0.1)
            assert time.monotonic() - started < 5.0
        finally:
            gate.set()
            server.close()

    def test_blocked_producer_released_by_close(self, rng):
        server, gate, updates = self._stalled_server(
            rng, max_queue=1, overload="block")
        server.submit(updates[0])
        outcome = []

        def producer():
            try:
                server.submit(updates[1], timeout=30.0)
                outcome.append("enqueued")
            except ServerClosedError:
                outcome.append("closed")

        thread = threading.Thread(target=producer)
        thread.start()
        time.sleep(0.05)  # let the producer block on the full queue
        threading.Timer(0.2, gate.set).start()
        server.close(discard=True)
        thread.join(10.0)
        assert not thread.is_alive(), "producer hung across close()"
        assert outcome == ["closed"]

    def test_close_drains_then_is_idempotent(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=8)
        updates = zipf_row_updates(rng, n, 25, 0.0)
        server.submit_many(updates)
        server.close()
        assert server.stats.applied == len(updates)
        server.close()  # double close is a no-op, not an error
        with pytest.raises(ServerClosedError):
            server.submit(updates[0])

    def test_close_discard_counts_dropped_updates(self, rng):
        server, gate, updates = self._stalled_server(rng)
        for update in updates[:10]:
            server.submit(update)
        # The writer stays parked until after close() has discarded, so
        # every queued update is dropped — deterministically.
        threading.Timer(0.2, gate.set).start()
        server.close(discard=True)
        assert server.stats.discarded == 10
        assert server.stats.applied == 1  # just the parked call

    def test_close_deadline_discards_the_remainder(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=None)
        server.call(time.sleep, 0.5)
        server.submit_many(zipf_row_updates(rng, n, 20, 0.0))
        started = time.monotonic()
        server.close(deadline=0.1)
        assert time.monotonic() - started < 30.0
        assert server.stats.discarded > 0

    def test_readers_keep_serving_through_close(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=4)
        server.submit_many(zipf_row_updates(rng, n, 10, 0.0))
        sums = []

        def reader():
            for _ in range(100):
                sums.append(float(np.sum(server.read("C"))))
                time.sleep(0.0005)

        thread = threading.Thread(target=reader)
        thread.start()
        server.close()
        thread.join(10.0)
        assert not thread.is_alive()
        assert len(sums) == 100  # reads never raised nor blocked

    def test_non_finite_submit_raises_and_the_server_keeps_serving(self, rng):
        from repro.runtime import InvalidUpdateError

        program, n, inputs = _fixed_scenario(rng)
        oracle = IVMSession(program, {"A": inputs["A"].copy()})
        server = ViewServer(IVMSession(program, inputs), max_staleness=None)
        good = zipf_row_updates(rng, n, 1, 0.0)[0]
        bad = FactoredUpdate("A", np.full((n, 1), np.nan), np.ones((n, 1)))
        try:
            with pytest.raises(InvalidUpdateError, match="non-finite"):
                server.submit(bad)
            server.submit(good)
            server.refresh()
            oracle.apply_update(good)
            np.testing.assert_allclose(server.read("C"), oracle["C"],
                                       rtol=1e-12)
            stats = server.stats
            assert (stats.submitted, stats.applied) == (1, 1)
            assert stats.rejected == stats.shed == stats.discarded == 0
        finally:
            server.close()   # the writer survived: close does not raise

    def test_constructor_rejects_unknown_policy(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        with pytest.raises(ValueError, match="overload"):
            ViewServer(IVMSession(program, inputs), max_queue=2,
                       overload="drop-newest")


class TestEpochCheckpointing:
    def test_writer_cuts_due_snapshots_at_publish(self, rng, tmp_path):
        from repro.runtime import restore_session

        program, n, inputs = _fixed_scenario(rng)
        updates = zipf_row_updates(rng, n, 40, 0.0)
        server = open_session(
            program, inputs, serve={"max_staleness": 4},
            checkpoint={"directory": tmp_path, "every": 4, "auto": False})
        for update in updates:
            server.submit(update)
        server.close()
        assert server.stats.checkpoints >= 5
        # The directory restores to a flushed-epoch state a fresh
        # process can serve from.
        restored = restore_session(program, tmp_path)
        assert restored.update_count > 0
        assert restored.update_count % 4 == 0

    def test_unattached_session_cuts_nothing(self, rng):
        program, n, inputs = _fixed_scenario(rng)
        server = ViewServer(IVMSession(program, inputs), max_staleness=4)
        server.submit_many(zipf_row_updates(rng, n, 10, 0.0))
        server.close()
        assert server.stats.checkpoints == 0


class TestCatalogServing:
    """Two served tenants sharing one catalog (the ISSUE 10 satellite):
    concurrent per-tenant writer threads, catalog-atomic captures (no
    torn reads across epochs), and eviction that never blocks readers."""

    @staticmethod
    def _family(rng, n=8):
        t1 = parse_program(
            "input A(n, n); B := A * A; C := B * B; output C;")
        t2 = parse_program(
            "input A(n, n); G := A * A; H := G * A; output H;")
        inputs = {"A": 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)}
        return t1, t2, n, inputs

    def test_two_writers_one_catalog_no_torn_reads(self, rng):
        from repro.catalog import ViewCatalog

        t1_prog, t2_prog, n, inputs = self._family(rng)
        # Room for two of the three distinct nodes: eviction stays live
        # throughout, so every epoch also exercises demand reads.
        catalog = ViewCatalog(memory_budget=2 * n * n * 8)
        tenant1 = catalog.open(t1_prog, inputs, dims={"n": n})
        tenant2 = catalog.open(t2_prog, None, dims={"n": n})
        streams = [
            zipf_row_updates(np.random.default_rng(5), n, 30, 1.5,
                             scale=0.02),
            zipf_row_updates(np.random.default_rng(9), n, 30, 1.5,
                             scale=0.02),
        ]

        server1 = tenant1.serve(views=("A", "B", "C"), max_staleness=1)
        server2 = tenant2.serve(views=("A", "G", "H"), max_staleness=1)
        try:
            stop = threading.Event()
            sinks = [[], []]
            readers = [
                threading.Thread(target=_poll_snapshots,
                                 args=(server, stop, sink), daemon=True)
                for server, sink in zip((server1, server2), sinks)
            ]
            for thread in readers:
                thread.start()

            def pressure(server, stream):
                for update in stream:
                    server.submit(update)
                    time.sleep(0)

            writers = [
                threading.Thread(target=pressure, args=(server1, streams[0]),
                                 daemon=True),
                threading.Thread(target=pressure, args=(server2, streams[1]),
                                 daemon=True),
            ]
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60.0)
                assert not thread.is_alive(), "writer blocked"
            # Drain both ingress queues, then capture the settled state.
            server1.refresh()
            server2.refresh()
            final1 = server1.refresh()
            final2 = server2.refresh()
            stop.set()
            for thread in readers:
                thread.join(timeout=30.0)
                assert not thread.is_alive(), "reader blocked (eviction?)"
        finally:
            server1.close()
            server2.close()

        # Eviction genuinely churned while both readers kept serving.
        assert catalog.stats.evictions >= 1
        assert catalog.stats.demand_reads >= 1
        for sink in sinks:
            assert len(sink) >= 2, "reader saw no epochs"

        # No torn reads: every published epoch is internally consistent
        # — each derived view matches *its own snapshot's* base table,
        # even though a foreign writer raced the capture.
        for snap in sinks[0]:
            a = snap.views["A"]
            _assert_state(
                {"B": snap.views["B"], "C": snap.views["C"]},
                {"B": a @ a, "C": (a @ a) @ (a @ a)},
                f"tenant-1 epoch {snap.epoch}")
        for snap in sinks[1]:
            a = snap.views["A"]
            _assert_state(
                {"G": snap.views["G"], "H": snap.views["H"]},
                {"H": (a @ a) @ a, "G": a @ a},
                f"tenant-2 epoch {snap.epoch}")

        # Both tenants settled on the same shared base table, carrying
        # every update from both writers.
        expected_a = inputs["A"] + sum(
            update.dense() for stream in streams for update in stream)
        _assert_state({"A": final1.views["A"]}, {"A": expected_a},
                      "tenant-1 final")
        _assert_state({"A": final2.views["A"]}, {"A": expected_a},
                      "tenant-2 final")
        _assert_state({"C": final1.views["C"]},
                      {"C": (expected_a @ expected_a)
                            @ (expected_a @ expected_a)},
                      "tenant-1 final view")
