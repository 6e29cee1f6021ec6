"""One differential harness for the one deferral slot.

Every deferral policy — ``None`` (unit-at-a-time),
:class:`~repro.runtime.batching.SessionBatcher` (uniform batches),
:class:`~repro.runtime.heavylight.HeavyLightMaintainer` (row split) —
must be indistinguishable (up to floating-point re-association) from
the unit-at-a-time oracle behind every sink it serves: an INCR session,
a REEVAL session, and a plain ``refresh(u, v)`` maintainer behind
:class:`~repro.runtime.batching.DeferredRefresher`.  The grid checks
mid-stream reads (flush-on-read), a mid-stream ``capture()`` ->
``restore()`` round trip that must continue **bitwise**-identically,
and policy switches with updates pending (flush-before-switch, asserted
at the one install path every switch goes through).  The randomized
form sweeps program shape x Zipf skew x backend x mode x policy knobs,
including ``with_plan`` flips and monitor-driven re-planning.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exprgen import session_scenario
from stream_helpers import (
    BACKENDS,
    SESSION_CONFIGS,
    assert_views_close,
    chain_scenario,
    make_session,
    zipf_row_updates,
)

from repro.planner import MaintenancePlan
from repro.runtime import (
    DeferralSpec,
    DeferredRefresher,
    HeavyLightMaintainer,
    ReplanMonitor,
    Session,
    SessionBatcher,
    open_session,
    resolve_deferral,
)
from repro.runtime.checkpoint import capture_session, rebuild_session

#: One spec per policy kind (small knobs so every flush rule fires).
SPECS = {
    "unit": DeferralSpec(),
    "uniform": DeferralSpec(batch=4),
    "heavy-light": DeferralSpec(partition="heavy-light", heavy_budget=2,
                                rank_bound=3, retune_every=5),
}
POLICY_TYPES = {"unit": type(None), "uniform": SessionBatcher,
                "heavy-light": HeavyLightMaintainer}
SINKS = ("incr", "reeval", "maintainer")


class _Toy:
    """Minimal ``refresh(u, v)`` maintainer: ``state += u v'``."""

    def __init__(self, state):
        self.state = np.array(state, dtype=np.float64)
        self.refreshes = 0

    def refresh(self, u, v):
        self.state += u @ v.T
        self.refreshes += 1

    def result(self):
        return self.state


class _SessionSubject:
    """A session sink under one policy, driven through its public API."""

    names = ("A", "B", "C")

    def __init__(self, program, session):
        self.program, self.session = program, session

    @property
    def policy(self):
        return self.session.deferral

    def apply(self, update):
        self.session.apply_update(update)

    def flush(self):
        self.session.flush()

    def read(self):
        return {name: np.array(self.session[name]) for name in self.names}

    def restored(self):
        """A second subject rebuilt from this (flushed) one's snapshot."""
        header, arrays = capture_session(self.session)
        header = json.loads(json.dumps(header))  # JSON-ready, like on disk
        arrays = {name: arr.copy() for name, arr in arrays.items()}
        return _SessionSubject(
            self.program, rebuild_session(self.program, header, arrays))


class _MaintainerSubject:
    """A ``refresh(u, v)`` sink under one policy (the drivers' shape)."""

    def __init__(self, state, spec, captured=None):
        self.spec = spec
        self.toy = _Toy(state)
        self.policy = resolve_deferral(spec)
        if captured is not None:
            self.policy.restore(captured)
        self.front = (self.toy if self.policy is None
                      else DeferredRefresher(self.toy, self.policy))

    def apply(self, update):
        self.front.refresh(update.u_block, update.v_block)

    def flush(self):
        if self.policy is not None:
            self.front.flush()

    def read(self):
        # ``result`` is reached through __getattr__, which flushes.
        return {"A": np.array(self.front.result())}

    def restored(self):
        captured = None
        if self.policy is not None:
            captured = json.loads(json.dumps(self.policy.capture()))
        return _MaintainerSubject(self.toy.state, self.spec, captured)


def _subject(sink, policy, rng):
    program, n, inputs = chain_scenario(rng)
    spec = SPECS[policy]
    if sink == "maintainer":
        subject = _MaintainerSubject(inputs["A"], spec)
    else:
        session = make_session(program, inputs, sink.upper())
        session.install_deferral(None, spec)
        subject = _SessionSubject(program, session)
    oracle = make_session(program, inputs)
    return subject, oracle, n


def _assert_close(got: dict, oracle, context):
    for name, value in got.items():
        want = oracle[name]
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(value, want, rtol=1e-7,
                                   atol=1e-8 * scale,
                                   err_msg=f"{name} diverged {context}")


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("policy", list(SPECS))
class TestPolicyBySinkGrid:
    def test_stream_matches_unit_oracle(self, rng, policy, sink):
        subject, oracle, n = _subject(sink, policy, rng)
        assert isinstance(subject.policy, POLICY_TYPES[policy])
        updates = zipf_row_updates(rng, n, 30, 2.0)
        for index, update in enumerate(updates):
            oracle.apply_update(update)
            subject.apply(update)
            if index == 13:
                # Flush-on-read: a mid-stream read never lags the
                # updates already issued, whatever is pending where.
                _assert_close(subject.read(), oracle, "at mid-stream read")
                assert policy == "unit" or subject.policy.pending == 0
        _assert_close(subject.read(), oracle, "at stream end")
        if policy != "unit":
            assert subject.policy.stats.updates == len(updates)
        if policy != "unit" and sink == "maintainer":
            # Deferral pays: fewer refreshes reached the maintainer.
            assert subject.toy.refreshes < len(updates)

    def test_capture_restore_continues_bitwise(self, rng, policy, sink):
        subject, oracle, n = _subject(sink, policy, rng)
        updates = zipf_row_updates(rng, n, 34, 2.0)
        for update in updates[:17]:
            oracle.apply_update(update)
            subject.apply(update)
        subject.flush()  # snapshots are cut at flush boundaries
        twin = subject.restored()
        assert isinstance(twin.policy, POLICY_TYPES[policy])
        for update in updates[17:]:
            oracle.apply_update(update)
            subject.apply(update)
            twin.apply(update)
        live, again = subject.read(), twin.read()
        for name in live:
            assert np.array_equal(live[name], again[name]), name
        _assert_close(again, oracle, "after restore + tail")


class TestSwitching:
    """Policy switches with updates pending, at the install path."""

    @pytest.mark.parametrize("strategy", ["INCR", "REEVAL"])
    @pytest.mark.parametrize("to", list(SPECS))
    @pytest.mark.parametrize("start", list(SPECS))
    def test_install_flushes_before_the_switch(self, rng, start, to, strategy):
        program, n, inputs = chain_scenario(rng)
        oracle = make_session(program, inputs)
        session = make_session(program, inputs, strategy)
        session.install_deferral(None, SPECS[start])
        updates = zipf_row_updates(rng, n, 16, 2.0)
        for update in updates[:5]:
            oracle.apply_update(update)
            session.apply_update(update)
        prior = session.deferral
        assert start == "unit" or prior.pending > 0
        session.install_deferral(None, SPECS[to])
        # Flush-before-switch: the prior policy drained into the views
        # (read raw — ``session[...]`` would flush and prove nothing).
        assert prior is None or prior.pending == 0
        for name in ("A", "B", "C"):
            np.testing.assert_allclose(session.views.get_dense(name),
                                       oracle[name], rtol=1e-7, atol=1e-9)
        assert isinstance(session.deferral, POLICY_TYPES[to])
        assert session.deferral_spec == SPECS[to]
        for update in updates[5:]:
            oracle.apply_update(update)
            session.apply_update(update)
        assert_views_close(session, oracle, program, "after the switch")

    def test_every_entry_point_goes_through_the_install_path(
            self, rng, monkeypatch, tmp_path):
        installs = []
        original = Session.install_deferral

        def spy(self, *args, **kwargs):
            installs.append(self)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(Session, "install_deferral", spy)
        program, n, inputs = chain_scenario(rng)

        def installs_during(action):
            before = len(installs)
            result = action()
            assert len(installs) > before, action
            return result

        monitor = installs_during(lambda: open_session(
            program, inputs, plan="incr", replan={"check_every": 4},
            checkpoint={"directory": tmp_path, "every": 3}))
        session = monitor.session
        installs_during(lambda: session.set_batching(3))
        installs_during(lambda: session.set_partition("heavy-light"))
        *head, fourth = zipf_row_updates(rng, n, 4, 2.0)
        monitor.apply_updates(head)  # cuts a snapshot at update 3
        installs_during(lambda: monitor.apply_update(fourth))  # re-plans
        installs_during(lambda: monitor.session.restore())
        installs_during(
            lambda: monitor.session.with_plan(MaintenancePlan("REEVAL")))

    def test_same_kind_switch_carries_stats_sketch_and_heavy_set(self, rng):
        program, n, inputs = chain_scenario(rng)
        session = make_session(program, inputs)
        session.set_partition("heavy-light", heavy_budget=1, retune_every=4)
        for update in zipf_row_updates(rng, n, 8, 3.0):
            session.apply_update(update)
        before = session.deferral
        assert before.heavy_rows
        session.set_partition("heavy-light", heavy_budget=1, retune_every=4,
                              rank_bound=5)
        after = session.deferral
        assert after is not before and after.rank_bound == 5
        assert after.stats is before.stats and after.sketch is before.sketch
        assert after.heavy_rows == before.heavy_rows
        assert after.since_retune == before.since_retune


class TestResolver:
    """``resolve_deferral``: who may re-tune what."""

    def test_plan_derived_split_keeps_caller_options(self, rng):
        """Satellite bugfix: a plan-derived heavy-light policy kept
        losing rank_bound / retune_every / rtol across ``with_plan``
        and across the monitor switching the split on."""
        program, n, inputs = chain_scenario(rng)
        session = make_session(program, inputs)
        session.set_partition("heavy-light", heavy_budget=4, rank_bound=7,
                              retune_every=9, rtol=1e-6, auto=True)
        for plan in (MaintenancePlan("INCR", partition="heavy-light",
                                     heavy_budget=8),
                     MaintenancePlan("REEVAL", partition="heavy-light",
                                     heavy_budget=16)):
            session = session.with_plan(plan)
            policy = session.deferral
            assert (policy.budget, policy.rank_bound, policy.retune_every,
                    policy.rtol) == (4, 7, 9, 1e-6)
        # The mode itself is plan-derived: a uniform plan switches it off.
        assert session.with_plan(MaintenancePlan("INCR")).deferral is None

    def test_monitor_switching_the_split_on_keeps_caller_options(self, rng):
        program, n, inputs = chain_scenario(rng)
        monitor = open_session(program, inputs, plan="incr", replan=True)
        monitor.session.set_partition(
            "heavy-light", rank_bound=7, retune_every=9, rtol=1e-6, auto=True)
        cell = monitor.plan
        monitor._retune(cell)  # the cell says uniform: the split goes off
        assert monitor.session.partition == "uniform"
        monitor._retune(cell.with_overrides(partition="heavy-light",
                                            heavy_budget=8))
        policy = monitor.session.deferral
        assert (policy.budget, policy.rank_bound, policy.retune_every,
                policy.rtol) == (8, 7, 9, 1e-6)
        # The monitor feeds the sketch it hands over.
        assert policy.sketch is monitor.stream_sketch
        assert not policy.observe_stream

    def test_caller_values_are_never_retuned(self, rng):
        """Satellite bugfix: width, mode and budget together — only
        ``"auto"``/``None`` values follow the plan under re-planning."""
        program, n, inputs = chain_scenario(rng)
        inputs = {"A": 0.1 * rng.standard_normal((128, 128))}
        updates = zipf_row_updates(rng, 128, 400, 1.5)

        def run(**options):
            monitor = open_session(
                program, {"A": inputs["A"].copy()}, plan="auto",
                replan=True, refresh_count=20000, **options)
            seen = set()
            for update in updates:
                monitor.apply_update(update)
                session = monitor.session
                seen.add((session.batch_size, session.partition,
                          getattr(session.deferral, "budget", None)))
            return seen

        # Everything "auto": the stream's skew switches the split on
        # and re-planning moves the width (the control for what follows).
        auto = run()
        assert {mode for _, mode, _ in auto} == {"uniform", "heavy-light"}
        assert len({width for width, _, _ in auto}) > 1
        # A forced budget under a plan-derived mode stays put.
        budgets = {budget for _, mode, budget in
                   run(partition="auto", heavy_budget=3)
                   if mode == "heavy-light"}
        assert budgets == {3}
        # A forced width and a forced mode never move either.
        forced = run(batch=6, partition="uniform")
        assert forced == {(6, "uniform", None)}

    def test_unplanned_budget_keeps_the_running_one(self):
        spec = DeferralSpec(partition="heavy-light")
        running = resolve_deferral(
            spec, MaintenancePlan("INCR", partition="heavy-light",
                                  heavy_budget=8))
        again = resolve_deferral(spec, MaintenancePlan("INCR"), prior=running)
        assert running.budget == again.budget == 8

    def test_split_shadows_the_uniform_policy(self, rng):
        """Heavy-light wins when both resolve on; the displaced batcher
        keeps answering ``batch_size`` / ``batch_stats`` and resumes."""
        program, n, inputs = chain_scenario(rng)
        session = make_session(program, inputs)
        session.set_batching(4)
        for update in zipf_row_updates(rng, n, 4, 2.0):
            session.apply_update(update)
        session.set_partition("heavy-light")
        assert (session.partition, session.batch_size) == ("heavy-light", 4)
        assert session.batch_stats.updates == 4
        session.set_partition("uniform")
        assert isinstance(session.deferral, SessionBatcher)
        assert session.batch_stats.updates == 4

    def test_spec_normalizes_and_validates(self):
        assert DeferralSpec(batch=True, partition=True) == DeferralSpec(
            batch="auto", partition="auto")
        assert DeferralSpec(batch="off", partition="off") == DeferralSpec()
        assert DeferralSpec(batch=1).batch is None
        with pytest.raises(ValueError, match="width must be >= 1"):
            DeferralSpec(batch=0)
        with pytest.raises(ValueError, match="batch must be"):
            DeferralSpec(batch=2.5)
        with pytest.raises(ValueError, match="partition must be"):
            DeferralSpec(partition="sometimes")


class TestInstalledOnAUnitSession:
    """A unit-at-a-time open loads neither policy's module; a policy
    installed on it later is the policy opening with it builds."""

    @staticmethod
    def _open(program, inputs, **options):
        return open_session(program, {k: v.copy() for k, v in inputs.items()},
                            plan="incr", **options)

    @pytest.mark.parametrize("install, options", [
        (lambda session: session.set_batching(8), {"batch": 8}),
        (lambda session: session.set_partition("heavy-light"),
         {"batch": "off", "partition": "heavy-light"}),
    ], ids=["set_batching", "set_partition"])
    def test_bitwise_equal_to_opening_with_the_policy(self, rng, install,
                                                      options):
        program, n, inputs = chain_scenario(rng)
        later = self._open(program, inputs, batch="off", partition="uniform")
        assert later.deferral is None
        install(later)
        opened = self._open(program, inputs, **options)
        assert later.plan == opened.plan
        assert type(later.deferral) is type(opened.deferral)
        for index, update in enumerate(zipf_row_updates(rng, n, 40, 2.0)):
            later.apply_update(update)
            opened.apply_update(update)
            if index % 13 == 12:  # a mid-stream read flushes both alike
                assert np.array_equal(later["C"], opened["C"])
        for name in ("A", "B", "C"):
            assert np.array_equal(later[name], opened[name]), name
        assert later.deferral.stats.as_dict() == opened.deferral.stats.as_dict()

    def test_policy_queries_answer_for_every_kind(self, rng):
        from repro.runtime import BatchStats, HeavyLightStats

        program, n, inputs = chain_scenario(rng)
        session = self._open(program, inputs, batch="off", partition="uniform")
        updates = iter(zipf_row_updates(rng, n, 12, 2.0))

        def queries():
            for _ in range(3):
                session.apply_update(next(updates))
            return (session.batch_size, type(session.batch_stats),
                    session.partition, type(session.partition_stats))

        assert queries() == (1, type(None), "uniform", type(None))
        session.set_batching(8)
        assert queries() == (8, BatchStats, "uniform", type(None))
        batch_stats = session.batch_stats
        # The split shadows the uniform batcher, which keeps answering.
        session.set_partition("heavy-light")
        assert queries() == (8, BatchStats, "heavy-light", HeavyLightStats)
        assert session.batch_stats is batch_stats
        assert session.batch_stats.updates == 3
        assert session.partition_stats.updates == 3
        session.set_batching(None)
        assert queries() == (1, type(None), "heavy-light", HeavyLightStats)
        assert session.partition_stats.updates == 6


class TestDeferredRefresher:
    """The one flush-on-read front end of the analytics drivers."""

    def test_width_and_staleness_bound_the_pending_count(self, rng):
        n = 10
        front = DeferredRefresher(_Toy(np.zeros((n, n))),
                                  SessionBatcher(50, max_staleness=2))
        for update in zipf_row_updates(rng, n, 5, 1.0):
            front.refresh(update.u_block, update.v_block)
        assert front.policy.pending == 1
        assert front.stats.flushes == 2

    def test_apply_hook_replays_rank1_after_compaction(self, rng):
        """The OLS sink's shape: compacted factors replayed column by
        column still match the block flush, and still compacted."""
        n = 10
        block_toy, column_toy = _Toy(np.zeros((n, n))), _Toy(np.zeros((n, n)))

        def replay(u, v):
            for col in range(u.shape[1]):
                assert u[:, col:col + 1].shape == (n, 1)
                column_toy.refresh(u[:, col:col + 1], v[:, col:col + 1])

        block = DeferredRefresher(block_toy, SessionBatcher(4))
        column = DeferredRefresher(column_toy, SessionBatcher(4), apply=replay)
        for update in zipf_row_updates(rng, n, 4, 3.0):
            block.refresh(update.u_block, update.v_block)
            column.refresh(update.u_block, update.v_block)
        np.testing.assert_allclose(column.result(), block.result(), atol=1e-9)
        # 4 updates on a skewed stream: fewer columns than updates.
        assert column_toy.refreshes == column.stats.log[0][1] <= 3

    def test_transpose_keys_the_split_on_the_right_factor(self, rng):
        n = 12
        direct = _Toy(np.zeros((n, n)))
        front = DeferredRefresher(
            _Toy(np.zeros((n, n))),
            HeavyLightMaintainer(budget=2, rank_bound=3), transpose=True)
        for update in zipf_row_updates(rng, n, 20, 3.0):
            # Dense left factor, indicator right factor (pagerank's shape).
            direct.refresh(update.v_block, update.u_block)
            front.refresh(update.v_block, update.u_block)
        np.testing.assert_allclose(front.result(), direct.result(),
                                   rtol=1e-10, atol=1e-12)
        assert front.maintainer.refreshes < direct.refreshes
        assert front.stats.heavy_hits + front.stats.light_hits == 20


class TestRandomizedHarness:
    """Deferred sessions vs the unit-at-a-time interpreter oracle."""

    @staticmethod
    def _configure(data, session):
        """Draw a policy and its knobs; returns the stats accessor."""
        if data.draw(st.booleans(), label="heavy-light"):
            session.set_partition(
                "heavy-light",
                heavy_budget=data.draw(st.sampled_from([1, 2, 4])),
                rank_bound=data.draw(st.sampled_from([2, 3, 8])),
                retune_every=3)
            return "heavy-light"
        session.set_batching(data.draw(st.sampled_from([2, 3, 5, 8])))
        return "uniform"

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_deferred_stream_matches_unit_oracle(self, data):
        program, n, inputs = data.draw(session_scenario())
        theta = data.draw(st.sampled_from([0.0, 1.2, 1.5, 3.0]))
        rank = data.draw(st.sampled_from([1, 1, 2]))
        backend = data.draw(st.sampled_from(BACKENDS))
        strategy, mode = data.draw(st.sampled_from(SESSION_CONFIGS))
        count = data.draw(st.integers(5, 16))
        read_at = data.draw(st.integers(0, count - 1))

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, count, theta,
                                   target=program.input_names[0], rank=rank)

        oracle = make_session(program, inputs)
        deferred = make_session(program, inputs, strategy, mode, backend)
        kind = self._configure(data, deferred)

        for index, update in enumerate(updates):
            oracle.apply_update(update)
            deferred.apply_update(update)
            if index == read_at:
                assert_views_close(deferred, oracle, program,
                                   context=f"at mid-stream read {index}")
        assert_views_close(deferred, oracle, program, context="at stream end")
        if kind == "uniform":
            stats = deferred.batch_stats
            assert stats.updates == count
            assert stats.stacked_width == count * rank
        else:
            stats = deferred.partition_stats
            assert stats.updates == count
            assert stats.heavy_hits + stats.light_hits == count * rank

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_with_plan_flip_flushes_pending_and_carries_policy(self, data):
        """A mid-stream ``with_plan`` switch must land pending deltas
        first and keep the forced policy (flush-before-switch)."""
        program, n, inputs = data.draw(session_scenario())
        count = data.draw(st.integers(6, 12))
        flip_at = data.draw(st.integers(1, count - 1))
        to_strategy = data.draw(st.sampled_from(["INCR", "REEVAL"]))
        to_backend = data.draw(st.sampled_from(BACKENDS))

        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        updates = zipf_row_updates(rng, n, count, 2.0,
                                   target=program.input_names[0])

        oracle = make_session(program, inputs)
        session = make_session(program, inputs)
        kind = self._configure(data, session)
        width = session.batch_size

        for index, update in enumerate(updates):
            oracle.apply_update(update)
            session.apply_update(update)
            if index == flip_at:
                # The plan's own deferral axes differ: forced values win.
                plan = MaintenancePlan(to_strategy, backend=to_backend,
                                       batch_size=width + 1)
                session = session.with_plan(plan)
                assert session.batch_size == width
                assert session.partition == (
                    "heavy-light" if kind == "heavy-light" else "uniform")
        assert_views_close(session, oracle, program, context="after flip")
        stats = (session.partition_stats if kind == "heavy-light"
                 else session.batch_stats)
        assert stats.updates == count  # spans the whole stream

    @pytest.mark.parametrize("options", [{"batch": 4},
                                         {"partition": "auto"}])
    def test_monitor_driven_replan_keeps_parity(self, rng, options):
        """ReplanMonitor probing/re-planning over a deferred session;
        the sketch it shares with a split is not double-counted."""
        program, n, inputs = chain_scenario(rng)
        updates = zipf_row_updates(rng, n, 40, 2.5, target="A")

        oracle = make_session(program, inputs)
        monitored = open_session(
            program, {k: v.copy() for k, v in inputs.items()},
            plan="incr", backend="dense", mode="interpret",
            refresh_count=len(updates),
            replan={"check_every": 8, "probe_every": 6}, **options,
        )
        assert isinstance(monitored, ReplanMonitor)
        for update in updates:
            oracle.apply_update(update)
            monitored.apply_update(update)
        assert_views_close(monitored.session, oracle, program,
                           context="after monitored stream")
        # The sketch followed the stream it supervised.
        assert monitored.stream_sketch.total == len(updates)
