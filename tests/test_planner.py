"""Cost-driven maintenance planner: plans, stats, factories, sessions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analytics import make_ols
from repro.backends import get_backend
from repro.frontend import parse_program
from repro.iterative import make_general, make_powers
from repro.planner import (
    MaintenancePlan,
    WorkloadStats,
    plan_general,
    plan_powers,
    plan_program,
    rank_program,
)
from repro.runtime import (
    FactoredUpdate,
    IVMSession,
    ReevalSession,
    SessionDriftMonitor,
    ShardedSession,
    open_session,
)

A4_SOURCE = "input A(n, n); B := A * A; C := B * B; output C;"


def sparse_matrix(rng, n, density):
    return (rng.random((n, n)) < density) * rng.standard_normal((n, n)) / n


class TestMaintenancePlan:
    def test_label(self):
        plan = MaintenancePlan("HYBRID", "skip", 4, "sparse", "interpret")
        assert plan.label == "HYBRID-SKIP-4@sparse/interpret"
        plan = MaintenancePlan("INCR", "linear", None, "dense", "codegen")
        assert plan.label == "INCR-LIN@dense/codegen"

    def test_validation(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            MaintenancePlan("EAGER")
        with pytest.raises(ValueError, match="unknown mode"):
            MaintenancePlan("INCR", mode="jit")

    def test_iterative_model(self):
        assert MaintenancePlan("INCR", "exponential").iterative_model().name == "EXP"
        assert MaintenancePlan("INCR", "skip", 8).iterative_model().name == "SKIP-8"

    def test_with_overrides(self):
        plan = MaintenancePlan("INCR", backend="sparse", mode="codegen")
        forced = plan.with_overrides(backend="dense")
        assert (forced.backend, forced.mode) == ("dense", "codegen")
        assert plan.with_overrides() is plan
        assert plan.with_overrides(backend="sparse", rank=None) is plan
        assert plan.with_overrides(rank=3).rank == 3
        with pytest.raises(TypeError):
            plan.with_overrides(colour="red")
        with pytest.raises(TypeError):
            plan.with_overrides(optimize=True)

    def test_rank_is_validated(self):
        with pytest.raises(ValueError, match="rank"):
            MaintenancePlan("INCR", rank=0)

    @pytest.mark.parametrize("tenant", range(8))
    def test_as_dict_is_the_constructor_arguments(self, tenant, rng):
        """``as_dict`` and the checkpoint header derive from the field
        list, so every field — the next one added included — rebuilds
        the plan: over the ranked cells of the eight ``bench_e2e``
        tenant programs (the shared chain plus one private view)."""
        import json

        from repro.planner import StreamSketch, rank_program

        program = parse_program(
            f"input A(n, n); B := A * A; C := B * B; "
            f"P := {float(tenant + 2):g} * C + A; output P;")
        sketch = StreamSketch()
        for key in rng.zipf(1.5, size=400) % 64:
            sketch.observe_key(int(key))
        cells = rank_program(
            program, {"A": sparse_matrix(rng, 64, 0.5)},
            stats=WorkloadStats(n=1, update_rank=1 + tenant % 3,
                                distinct_fraction=sketch),
            nodes=(1, 2))
        assert len(cells) >= 2
        for cell in cells:
            stored = json.loads(json.dumps(cell.as_dict()))
            assert stored.pop("label") == cell.label
            assert MaintenancePlan(**stored) == cell
            assert cell.rank == 1 + tenant % 3

    def test_as_dict_round_trips_json(self):
        import json

        plan = MaintenancePlan("REEVAL", predicted_time=1.0, predicted_space=2.0)
        assert json.loads(json.dumps(plan.as_dict()))["strategy"] == "REEVAL"


class TestWorkloadStats:
    def test_measure_density(self, rng):
        a = np.zeros((20, 20))
        a[:10, :10] = 1.0
        assert WorkloadStats.measure_density(a) == pytest.approx(0.25)

    def test_measure_density_scipy(self):
        sparse = pytest.importorskip("scipy.sparse")
        m = sparse.eye_array(100, format="csr")
        assert WorkloadStats.measure_density(m) == pytest.approx(0.01)

    def test_from_matrix(self, rng):
        stats = WorkloadStats.from_matrix(np.eye(50), k=8)
        assert stats.n == 50
        assert stats.density == pytest.approx(0.02)
        assert stats.k == 8


class TestIterativePlanning:
    def test_density_flips_backend(self):
        pytest.importorskip("scipy")
        dense = plan_general(WorkloadStats(n=2000, p=1, k=16, density=1.0))
        sparse = plan_general(WorkloadStats(n=2000, p=1, k=16, density=0.01))
        assert dense.backend == "dense"
        assert sparse.backend == "sparse"

    def test_powers_density_flips_backend(self):
        pytest.importorskip("scipy")
        assert plan_powers(WorkloadStats(n=2000, k=16, density=1.0)).backend == "dense"
        assert plan_powers(WorkloadStats(n=2000, k=16, density=0.01)).backend == "sparse"

    def test_long_streams_amortize_view_building(self):
        # A long dense p=16 stream should leave plain re-evaluation for
        # a maintained-view configuration (the Fig. 3h regime).
        plan = plan_general(
            WorkloadStats(n=1000, p=16, k=16, density=1.0, refresh_count=500)
        )
        assert plan.strategy in ("INCR", "HYBRID")
        assert plan.model in ("exponential", "skip")

    def test_plans_drive_factories(self, rng):
        n, k = 24, 4
        a = rng.normal(size=(n, n)) / n
        plan = plan_powers(WorkloadStats.from_matrix(a, k=k))
        maintainer = make_powers(plan, a, k)
        u = np.zeros((n, 1))
        u[1, 0] = 1.0
        maintainer.refresh(u, 0.01 * rng.normal(size=(n, 1)))
        be = get_backend(plan.backend)
        exact = np.linalg.matrix_power(be.materialize(maintainer.a), k)
        np.testing.assert_allclose(
            be.materialize(maintainer.result()), exact,
            rtol=1e-8, atol=1e-10,
        )

    def test_factory_rejects_bare_name_without_model(self, rng):
        with pytest.raises(TypeError, match="model is required"):
            make_powers("INCR", rng.normal(size=(4, 4)), 2)


class TestProgramPlanning:
    def test_sparse_graph_program_plans_sparse(self, rng):
        pytest.importorskip("scipy")
        program = parse_program(A4_SOURCE)
        a = sparse_matrix(rng, 600, 0.01)
        plan = plan_program(program, {"A": a})
        assert plan.backend == "sparse"
        assert plan.strategy == "INCR"

    def test_small_dense_program_plans_dense(self, rng):
        program = parse_program(A4_SOURCE)
        plan = plan_program(program, {"A": rng.normal(size=(48, 48))})
        assert plan.backend == "dense"
        assert plan.strategy == "INCR"

    def test_forced_strategy_grid(self, rng):
        program = parse_program(A4_SOURCE)
        plan = plan_program(program, {"A": rng.normal(size=(16, 16))},
                            strategies=("REEVAL",))
        assert plan.strategy == "REEVAL"


class TestOpenSession:
    def make_inputs(self, rng, n=16):
        return {"A": rng.normal(size=(n, n)) / n}

    def test_auto_attaches_plan(self, rng):
        # n is large enough that factored triggers beat re-evaluation
        # even with per-call overhead charged (at toy sizes the planner
        # now honestly prefers REEVAL — dispatch cost eats INCR's win).
        session = open_session(parse_program(A4_SOURCE),
                               self.make_inputs(rng, n=48))
        assert isinstance(session, IVMSession)
        assert session.plan.strategy == "INCR"

    def test_forced_strategies(self, rng):
        program = parse_program(A4_SOURCE)
        inputs = self.make_inputs(rng)
        assert isinstance(open_session(program, inputs, plan="reeval"),
                          ReevalSession)
        assert isinstance(open_session(program, inputs, plan="incr"),
                          IVMSession)

    def test_explicit_plan_and_overrides(self, rng):
        pytest.importorskip("scipy")  # forces backend="sparse"
        program = parse_program(A4_SOURCE)
        inputs = self.make_inputs(rng)
        plan = MaintenancePlan("INCR", backend="dense", mode="interpret")
        session = open_session(program, inputs, plan=plan)
        assert session.plan is plan
        forced = open_session(program, inputs, plan="incr", mode="codegen",
                              backend="sparse")
        assert forced.plan.mode == "codegen"
        assert forced.plan.backend == "sparse"

    def test_backend_instance_is_the_one_the_session_runs_on(self, rng):
        # A name is resolved through the registry; an instance used to
        # be too — silently replaced by a default one of the same name.
        from repro.backends import DenseBackend

        class AuditedDense(DenseBackend):
            pass

        program = parse_program(A4_SOURCE)
        inputs = self.make_inputs(rng)
        mine = AuditedDense()
        for options in ({"plan": "incr"}, {"plan": "reeval"},
                        {"plan": "auto", "replan": True}):
            session = open_session(program, inputs, backend=mine, **options)
            assert session.backend is mine
            assert session.views.backend is mine
            assert session.plan.backend == "dense"

    def test_backend_instance_keeps_its_thresholds(self, rng):
        pytest.importorskip("scipy")
        from repro.backends import SparseBackend

        mine = SparseBackend(sparsify_below=0.123)
        session = open_session(parse_program(A4_SOURCE),
                               self.make_inputs(rng), plan="incr",
                               backend=mine)
        assert session.backend is mine
        assert session.backend.sparsify_below == 0.123
        assert session.plan.backend == "sparse"
        # A plan switch resolves by the plan's name (documented).
        switched = session.with_plan(session.plan)
        assert switched.backend is not mine
        assert switched.backend.name == "sparse"

    def test_a_given_backend_is_the_only_one_priced(self):
        # The grid's cheapest cell runs on sparse; forced onto dense, the
        # session must run dense's cheapest cell, not sparse's strategy.
        sp = pytest.importorskip("scipy.sparse")
        program = parse_program(A4_SOURCE)
        a = sp.random(300, 300, density=0.002, random_state=1).toarray()
        session = open_session(program, {"A": a}, refresh_count=200,
                               backend="dense")
        dense = rank_program(program, {"A": a},
                             stats=WorkloadStats(n=1, refresh_count=200),
                             backends=("dense",))[0]
        assert (session.plan.strategy, session.plan.mode) == (
            dense.strategy, dense.mode)
        assert session.plan.predicted_time == dense.predicted_time

    @pytest.mark.parametrize("plan", ["incr", "reeval"])
    def test_a_scipy_input_on_the_dense_backend(self, rng, plan):
        sp = pytest.importorskip("scipy.sparse")
        program = parse_program(A4_SOURCE)
        csr = sp.random(40, 40, density=0.1, random_state=2, format="csr")
        sessions = [open_session(program, {"A": value}, plan=plan,
                                 backend="dense", batch="off")
                    for value in (csr, csr.toarray())]
        for _ in range(3):
            update = FactoredUpdate("A", rng.normal(size=(40, 1)),
                                    0.05 * rng.normal(size=(40, 1)))
            for session in sessions:
                session.apply_update(update)
        for name in ("A", "B", "C"):
            assert isinstance(sessions[0][name], np.ndarray)
            assert np.array_equal(sessions[0][name], sessions[1][name])

    def test_bad_plan_rejected(self, rng):
        with pytest.raises(ValueError, match="plan must be"):
            open_session(parse_program(A4_SOURCE), self.make_inputs(rng),
                         plan="lazy")

    def test_hybrid_plan_opens_a_hybrid_session(self, rng):
        # HYBRID runs its own lowered list (non-square views' deltas
        # dense; the chain has none, so it is INCR's), and the plan
        # reports what executed.
        from repro.runtime.session import HybridSession

        inputs = self.make_inputs(rng)
        session = open_session(parse_program(A4_SOURCE), inputs,
                               plan=MaintenancePlan("HYBRID"))
        assert isinstance(session, HybridSession)
        assert session.plan.strategy == "HYBRID"
        session.apply_update(FactoredUpdate("A", np.eye(len(inputs["A"]))[:, :1],
                                            0.01 * np.ones((len(inputs["A"]), 1))))
        np.testing.assert_allclose(
            session["C"], np.linalg.matrix_power(session["A"], 4), atol=1e-9)

    def test_sharded_hybrid_plan_is_a_typed_error(self, rng, monkeypatch):
        """HYBRID on ``nodes > 1`` is refused before any worker spawns."""
        from repro.runtime import UnsupportedCombinationError
        from repro.runtime import sharded_session

        def spawned(*args, **kwargs):
            raise AssertionError("a sharded session was started")

        monkeypatch.setattr(sharded_session, "ShardedSession", spawned)
        with pytest.raises(UnsupportedCombinationError, match="INCR-only"):
            open_session(parse_program(A4_SOURCE), self.make_inputs(rng),
                         plan=MaintenancePlan("HYBRID", nodes=2))

    def test_reeval_plan_runs_the_mode_given(self, rng):
        # REEVAL runs a lowered list like INCR, so a codegen override
        # executes, and the plan reports what executed.
        session = open_session(parse_program(A4_SOURCE),
                               self.make_inputs(rng),
                               plan="reeval", mode="codegen")
        assert session.plan.mode == "codegen"
        assert session.plan.label.endswith("/codegen")
        assert all(hasattr(fn, "__source__")
                   for fn in session._executors.values())
        assert set(session._executors) == {"A"}

    def test_dims_inferred_from_inputs(self, rng):
        session = open_session(parse_program(A4_SOURCE),
                               self.make_inputs(rng, n=10))
        assert session.output().shape == (10, 10)

    def test_auto_matches_reeval_reference(self, rng):
        program = parse_program(A4_SOURCE)
        n = 12
        inputs = self.make_inputs(rng, n)
        auto = open_session(program, inputs, refresh_count=100)
        reference = ReevalSession(program, inputs, dims={"n": n})
        for _ in range(6):
            update = FactoredUpdate("A", rng.normal(size=(n, 1)),
                                    0.05 * rng.normal(size=(n, 1)))
            auto.apply_update(update)
            reference.apply_update(update)
        np.testing.assert_allclose(auto["C"], reference["C"],
                                   rtol=1e-7, atol=1e-9)


class TestDeterminedOpen:
    """A plan the caller's arguments determine is not priced; anything
    that leaves a decision still is."""

    DETERMINED = dict(plan="incr", batch="off")

    @pytest.fixture
    def rankings(self, monkeypatch):
        import repro.planner.planner as planner_mod

        calls = []
        original = planner_mod.rank_program

        def counting(*args, **kwargs):
            calls.append(original(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(planner_mod, "rank_program", counting)
        return calls

    @pytest.mark.parametrize("options", [
        dict(mode="codegen", partition="uniform"),    # as bench_e2e opens
        dict(partition="auto"),
        dict(plan="reeval", batch=4),
        dict(refresh_count=4, rank=2),
        dict(nodes=1), dict(nodes=(1,)),
    ])
    def test_grid_of_one_is_not_priced(self, rng, rankings, options):
        import math

        program = parse_program(A4_SOURCE)
        inputs = {"A": rng.normal(size=(96, 96)) / 96}
        options = {**self.DETERMINED, **options}
        session = open_session(program, inputs, **options)
        assert rankings == []
        plan = session.plan
        assert math.isnan(plan.predicted_time)
        assert math.isnan(plan.predicted_space)
        # The same cell pricing would have named.
        priced = plan_program(
            program, inputs, strategies=(options["plan"].upper(),),
            stats=WorkloadStats(
                n=1, update_rank=options.get("rank", 1),
                **({"refresh_count": options["refresh_count"]}
                   if "refresh_count" in options else {})))
        assert len(rankings) == 1 and len(rankings[0]) == 1
        priced = priced.with_overrides(mode=options.get("mode"))
        if options["plan"] == "reeval":
            priced = priced.with_overrides(mode="interpret")
        assert plan.label == priced.label
        assert (plan.rank, plan.partition, plan.heavy_budget, plan.nodes) == (
            priced.rank, priced.partition, priced.heavy_budget, priced.nodes)

    def test_one_forced_node_count_is_not_priced(self, rng, rankings):
        import math

        program = parse_program(A4_SOURCE)
        inputs = {"A": rng.normal(size=(16, 16)) / 16}
        with open_session(program, inputs, nodes=(2,),
                          **self.DETERMINED) as session:
            assert rankings == []
            assert isinstance(session, ShardedSession)
            assert session.plan.label == "INCR-LIN@dense/codegen/x2"
            assert math.isnan(session.plan.predicted_time)

    @pytest.mark.parametrize("options,cells", [
        (dict(plan="auto"), 2),
        (dict(batch="auto"), 1),
        (dict(nodes=(2,), batch="auto"), 1),
        (dict(nodes=2), 2),
    ])
    def test_anything_wider_is_priced(self, rng, rankings, options, cells):
        program = parse_program(A4_SOURCE)
        inputs = {"A": rng.normal(size=(16, 16)) / 16}
        with open_session(program, inputs,
                          **{**self.DETERMINED, **options}) as session:
            assert len(rankings) == 1 and len(rankings[0]) == cells
            assert session.plan.predicted_time > 0

    def test_a_given_backend_determines_the_backend(self, rng, rankings):
        program = parse_program(A4_SOURCE)
        a = sparse_matrix(rng, 128, 0.05)
        session = open_session(program, {"A": a}, backend="dense",
                               **self.DETERMINED)
        assert rankings == []
        assert session.plan.backend == "dense"

    def test_a_csr_eligible_input_is_priced_on_both_backends(self, rng,
                                                             rankings):
        pytest.importorskip("scipy")
        program = parse_program(A4_SOURCE)
        a = sparse_matrix(rng, 128, 0.05)
        session = open_session(program, {"A": a}, **self.DETERMINED)
        assert {cell.backend for cell in rankings[0]} == {"dense", "sparse"}
        assert session.plan.predicted_time > 0


class TestSessionDrift:
    def test_factory_drift_kwarg_rebuilds(self, rng):
        program = parse_program(A4_SOURCE)
        n = 10
        inputs = {"A": rng.normal(size=(n, n)) / n}
        monitor = open_session(
            program, inputs, plan="incr",
            drift={"check_every": 1, "tolerance": 1e-30, "action": "rebuild"},
        )
        assert isinstance(monitor, SessionDriftMonitor)
        monitor.apply_update(FactoredUpdate("A", rng.normal(size=(n, 1)),
                                            rng.normal(size=(n, 1))))
        # Any nonzero drift beats 1e-30, so the policy must have rebuilt
        # and the views must now match recomputation exactly.
        assert monitor.rebuild_count >= 1
        assert monitor.revalidate() == 0.0

    def test_raise_action(self, rng):
        from repro.runtime import DriftExceededError

        program = parse_program(A4_SOURCE)
        n = 10
        monitor = open_session(
            program, {"A": rng.normal(size=(n, n)) / n}, plan="incr",
            drift={"check_every": 1, "tolerance": 1e-30, "action": "raise"},
        )
        with pytest.raises(DriftExceededError):
            monitor.apply_update(FactoredUpdate("A", rng.normal(size=(n, 1)),
                                                rng.normal(size=(n, 1))))

    def test_drift_true_uses_defaults(self, rng):
        program = parse_program(A4_SOURCE)
        monitor = open_session(program,
                               {"A": rng.normal(size=(48, 48)) / 48},
                               drift=True)
        assert monitor.check_every == 100
        assert monitor.plan.strategy == "INCR"

    def test_monitor_validates_options(self, rng):
        program = parse_program(A4_SOURCE)
        inputs = {"A": rng.normal(size=(8, 8))}
        with pytest.raises(ValueError, match="check_every"):
            open_session(program, inputs, drift={"check_every": 0})

    def test_monitor_survives_copy(self, rng):
        import copy

        program = parse_program(A4_SOURCE)
        monitor = open_session(program, {"A": rng.normal(size=(6, 6))},
                               drift=True)
        clone = copy.copy(monitor)  # must not hit __getattr__ recursion
        assert clone.check_every == monitor.check_every


class TestDriverRouting:
    @pytest.mark.parametrize("m, n, label", [
        (600, 300, "INCR-LIN@dense/codegen"),
        (60, 20, "REEVAL-LIN@dense/interpret"),
    ])
    def test_make_ols_opens_the_planners_first_cell(self, rng, m, n, label):
        """``make_ols`` plans the OLS program like any other: INCR at the
        example's 600 x 300; REEVAL at 60 x 20, where five kernel calls
        an update are priced (and measure) below INCR's 27."""
        from repro.analytics.ols import OLS_PROGRAM

        x = rng.normal(size=(m, n))
        x[:n] += 0.5 * np.eye(n)
        y = rng.normal(size=(m, 1))
        session = make_ols(x, y)
        assert session.plan == plan_program(
            OLS_PROGRAM, {"X": x, "Y": y}, stats=WorkloadStats(n=1))
        assert session.plan.label == label
        session.apply_update(FactoredUpdate(
            "X", rng.normal(size=(m, 1)), 0.01 * rng.normal(size=(n, 1))))
        assert session.revalidate() < 1e-6

    def test_pagerank_auto(self, rng):
        from repro.analytics import IncrementalPageRank
        from repro.workloads import random_adjacency

        adjacency = random_adjacency(rng, 40, avg_out_degree=4)
        index = IncrementalPageRank(adjacency, k=8, strategy="auto")
        assert index.plan is not None
        index.add_edge(1, 2)
        assert index.revalidate() < 1e-8

    def test_named_backend_that_cannot_load_raises_its_own_error(
            self, rng, monkeypatch):
        """``"sparse"`` without SciPy (real under ``pytest --no-scipy``,
        simulated otherwise): the backend's error, not an empty grid."""
        import repro.backends as backends
        from repro.analytics import IncrementalPageRank, KStepTransitionMatrix
        from repro.analytics.markov import random_walk_matrix
        from repro.workloads import random_adjacency

        try:
            import scipy.sparse  # noqa: F401
        except ImportError:
            pass
        else:
            def missing():
                raise RuntimeError("SparseBackend requires scipy")

            monkeypatch.setitem(backends._FACTORIES, "sparse", missing)
        adjacency = random_adjacency(rng, 400, 4)
        with pytest.raises(RuntimeError, match="requires scipy"):
            IncrementalPageRank(adjacency, k=8, strategy="auto",
                                backend="sparse")
        with pytest.raises(RuntimeError, match="requires scipy"):
            KStepTransitionMatrix(random_walk_matrix(adjacency),
                                  k=4, strategy="auto", backend="sparse")
        with pytest.raises(RuntimeError, match="requires scipy"):
            open_session(parse_program(A4_SOURCE), {"A": np.eye(8)},
                         backend="sparse")

    @pytest.mark.parametrize("backend", [None, "dense", "sparse"])
    def test_pagerank_plan_names_the_backend_that_runs(self, rng, backend):
        """At 400 nodes the unnamed grid picks sparse: a named backend
        must be the only one priced, not overridden after the fact."""
        if backend == "sparse":
            pytest.importorskip("scipy")
        from repro.analytics import IncrementalPageRank
        from repro.workloads import random_adjacency

        index = IncrementalPageRank(random_adjacency(rng, 400, 4), k=8,
                                    strategy="auto", backend=backend)
        assert index.plan.backend == index._backend.name
        assert backend in (None, index.plan.backend)

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_every_iterative_driver_prices_its_named_backend(self, rng,
                                                             backend):
        if backend == "sparse":
            pytest.importorskip("scipy")
        from repro.analytics import (
            GradientDescentLR,
            IncrementalPowerIteration,
            KStepDistribution,
            KStepTransitionMatrix,
        )
        from repro.analytics.markov import random_walk_matrix

        adjacency = (rng.random((40, 40)) < 0.1).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        p = random_walk_matrix(adjacency)
        x = rng.normal(size=(60, 40)) * (rng.random((60, 40)) < 0.05)
        drivers = [
            KStepTransitionMatrix(p, k=4, strategy="auto", backend=backend),
            KStepDistribution(p, np.full(40, 1 / 40), k=4, strategy="auto",
                              backend=backend),
            IncrementalPowerIteration(p, k=8, strategy="auto",
                                      backend=backend),
            GradientDescentLR(x, rng.normal(size=(60, 1)), k=4,
                              strategy="auto", backend=backend),
        ]
        assert [driver.plan.backend for driver in drivers] == [backend] * 4

    def test_power_iteration_auto(self, rng):
        from repro.analytics import IncrementalPowerIteration

        a = rng.normal(size=(24, 24)) / 24 + np.eye(24)
        power = IncrementalPowerIteration(a, k=8, strategy="auto")
        assert power.plan is not None
        power.refresh(0.01 * rng.normal(size=(24, 1)),
                      rng.normal(size=(24, 1)))
        assert power.residual() < 1.0

    def test_markov_auto_and_backend(self, rng):
        from repro.analytics import KStepTransitionMatrix, reference_k_step
        from repro.analytics.markov import random_walk_matrix

        adjacency = (rng.random((30, 30)) < 0.2).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        p = random_walk_matrix(adjacency)
        chain = KStepTransitionMatrix(p, k=4, strategy="auto")
        assert chain.plan is not None
        new_col = np.full(30, 1.0 / 30)
        chain.perturb_column(3, new_col)
        drift = np.abs(chain.result() - reference_k_step(chain.p, 4)).max()
        assert drift < 1e-8

    def test_expm_backend_param(self, rng):
        pytest.importorskip("scipy")
        from repro.analytics import WeightedPowerSum

        a = sparse_matrix(rng, 80, 0.05) * 20
        dense_view = WeightedPowerSum(a, [1.0, 1.0, 0.5], backend="dense")
        sparse_view = WeightedPowerSum(a, [1.0, 1.0, 0.5], backend="sparse")
        u = np.zeros((80, 1))
        u[3, 0] = 1.0
        v = 0.01 * rng.normal(size=(80, 1))
        dense_view.refresh(u, v)
        sparse_view.refresh(u, v)
        np.testing.assert_allclose(sparse_view.result(), dense_view.result(),
                                   rtol=1e-8, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=24),
    log_k=st.integers(min_value=1, max_value=3),
    density=st.sampled_from([0.05, 0.3, 1.0]),
    p=st.integers(min_value=1, max_value=3),
    updates=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_planned_general_matches_dense_reeval(
    n, log_k, density, p, updates, seed
):
    """Whatever the planner picks must compute the same view states as
    the dense REEVAL reference over random factored-update streams."""
    from repro.iterative import parse_model

    k = 2 ** log_k
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * rng.normal(size=(n, n)) / n
    b = rng.normal(size=(n, p))
    t0 = rng.normal(size=(n, p))
    plan = plan_general(WorkloadStats.from_matrix(a, p=p, k=k))
    planned = make_general(plan, a, b, t0, k)
    reference = make_general("REEVAL", a, b, t0, k, parse_model("LIN"),
                             backend="dense")
    for _ in range(updates):
        u = rng.normal(size=(n, 1))
        v = 0.05 * rng.normal(size=(n, 1))
        planned.refresh(u, v)
        reference.refresh(u, v)
    planned_result = get_backend(plan.backend).materialize(planned.result())
    np.testing.assert_allclose(planned_result, reference.result(),
                               rtol=1e-6, atol=1e-8)


@settings(max_examples=10, deadline=None)
@given(
    n=st.integers(min_value=6, max_value=20),
    density=st.sampled_from([0.1, 1.0]),
    updates=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_property_planned_session_matches_dense_reeval(
    n, density, updates, seed
):
    """Auto-planned sessions agree with the dense REEVAL session."""
    program = parse_program(A4_SOURCE)
    rng = np.random.default_rng(seed)
    a = (rng.random((n, n)) < density) * rng.normal(size=(n, n)) / n
    planned = open_session(program, {"A": a})
    reference = ReevalSession(program, {"A": a}, dims={"n": n},
                              backend="dense")
    for _ in range(updates):
        update = FactoredUpdate("A", rng.normal(size=(n, 1)),
                                0.05 * rng.normal(size=(n, 1)))
        planned.apply_update(update)
        reference.apply_update(update)
    for name in ("A", "B", "C"):
        np.testing.assert_allclose(planned[name], reference[name],
                                   rtol=1e-6, atol=1e-8)


class TestPlannerAwareBatching:
    """The batch-width axis: plans carry a recommended BatchCollector size."""

    def _plan(self, rng, refreshes=500, batch_hint=None, strategies=None):
        program = parse_program(A4_SOURCE)
        a = rng.normal(size=(128, 128))
        stats = WorkloadStats(n=1, refresh_count=refreshes,
                              batch_hint=batch_hint)
        kwargs = {} if strategies is None else {"strategies": strategies}
        from repro.planner import rank_program

        return rank_program(program, {"A": a}, stats=stats,
                            calibration=None, **kwargs)

    def test_every_candidate_carries_a_batch_size(self, rng):
        for candidate in self._plan(rng):
            assert candidate.batch_size is not None
            assert candidate.batch_size >= 1

    def test_reeval_amortizes_into_large_batches(self, rng):
        reeval = [c for c in self._plan(rng) if c.strategy == "REEVAL"]
        assert reeval and all(c.batch_size > 1 for c in reeval), (
            "batching a REEVAL refresh amortizes the whole re-evaluation"
        )

    def test_batch_hint_caps_the_width(self, rng):
        for candidate in self._plan(rng, batch_hint=4):
            assert candidate.batch_size <= 4

    def test_batch_hint_one_disables_batching(self, rng):
        for candidate in self._plan(rng, batch_hint=1):
            assert candidate.batch_size == 1

    def test_plan_as_dict_includes_batch_size(self, rng):
        plan = self._plan(rng)[0]
        assert "batch_size" in plan.as_dict()

    def test_compaction_cost_scales_with_width(self):
        from repro.backends import get_backend
        from repro.cost.estimate import batch_unit_cost, compaction_cost

        be = get_backend("dense")
        assert compaction_cost(be, 512, 512, 8) < compaction_cost(
            be, 512, 512, 32)
        # Unit cost at batch=1 is exactly the per-refresh cost (no
        # compaction charged).
        refresh = lambda r: 1000.0 * r  # noqa: E731
        assert batch_unit_cost(be, refresh, 512, 512, 1) == 1000.0


def _calibration():
    """A hand-built calibration in the measured regime: sparse kernel
    calls cost more than dense ones."""
    from repro.calibrate import BackendCalibration, Calibration, cache_key

    return Calibration(key=cache_key(), backends={
        "dense": BackendCalibration(
            backend="dense", flops_per_second=5e10,
            call_overhead_flops=50_000.0),
        "sparse": BackendCalibration(
            backend="sparse", flops_per_second=5e10,
            call_overhead_flops=150_000.0, sparse_overhead=16.0,
            sparse_update_overhead=256.0, sparse_spgemm_overhead=400.0),
    })


#: (source, n, input density, refresh count, strategies, nodes): the
#: session programs ``bench_e2e`` opens (dense_small, dense_chain =
#: served, the zipf pair, sharded_chain, a catalog tenant), the grid
#: this file plans over, and both sides of the sparse entry rule.
SESSION_CASES = [
    (A4_SOURCE, 128, 1.0, 1000, ("INCR",), (1,)),
    (A4_SOURCE, 512, 1.0, 1000, ("INCR",), (1,)),
    (A4_SOURCE, 512, 1.0, 36000, ("REEVAL", "INCR"), (1,)),
    (A4_SOURCE, 1024, 1.0, 1000, ("INCR",), (2,)),
    ("input A(n, n); B := A * A; C := B * B; P := 3 * C + A; output P;",
     128, 1.0, 1000, ("REEVAL", "INCR"), (1,)),
    (A4_SOURCE, 16, 1.0, 4, ("REEVAL", "INCR"), (1,)),
    (A4_SOURCE, 48, 0.05, 1000, ("REEVAL", "INCR"), (1,)),
    (A4_SOURCE, 600, 0.01, 1000, ("REEVAL", "INCR"), (1,)),
    (A4_SOURCE, 128, 0.08, 1000, ("REEVAL", "INCR"), (1, 2)),
    (A4_SOURCE, 128, 0.25, 1000, ("REEVAL", "INCR"), (1,)),
]


class TestAdmissibleGrid:
    """Pruning never decides: the default grid is the full grid minus
    the cells of backends that would store every input dense."""

    @pytest.mark.parametrize("calibrated", [False, True])
    @pytest.mark.parametrize("case", SESSION_CASES)
    def test_session_ranking_is_the_full_ranking_filtered(
            self, rng, case, calibrated):
        from repro.backends import admissible_backends
        from repro.planner import rank_program

        source, n, density, refreshes, strategies, nodes = case
        a = rng.standard_normal((n, n)) / n
        if density < 1.0:
            a *= rng.random((n, n)) < density
        options = dict(
            stats=WorkloadStats(n=1, refresh_count=refreshes),
            strategies=strategies, nodes=nodes,
            calibration=_calibration() if calibrated else None)
        program = parse_program(source)
        # Naming both backends is the grid before admissibility.
        full = rank_program(program, {"A": a}, backends=("dense", "sparse"),
                            **options)
        ranked = rank_program(program, {"A": a}, **options)
        admitted = admissible_backends(
            [(n, n, WorkloadStats.measure_density(a))])
        assert admitted == (["dense", "sparse"]
                            if n >= 64 and density <= 0.10 else ["dense"])
        assert ranked == [cell for cell in full if cell.backend in admitted]
        assert ranked[0].label == full[0].label

    @pytest.mark.parametrize("calibrated", [False, True])
    @pytest.mark.parametrize("n,density", [
        (2048, 0.0098),   # bench_e2e's sparse_pagerank graph
        (2000, 0.01), (48, 0.05), (600, 0.5), (128, 0.10), (128, 0.11),
    ])
    def test_advisor_ranking_is_the_full_ranking_filtered(
            self, n, density, calibrated):
        from repro.cost.advisor import recommend_general, recommend_powers

        calibration = _calibration() if calibrated else None
        for recommend, shape in ((recommend_general, (n, 1, 16)),
                                 (recommend_powers, (n, 16))):
            full = recommend(*shape, density=density, calibration=calibration,
                             backends=("dense", "sparse"))
            ranked = recommend(*shape, density=density,
                               calibration=calibration)
            sparse_admitted = n >= 64 and density <= 0.10
            assert ranked == [cell for cell in full
                              if sparse_admitted or cell.backend == "dense"]
            assert ranked[0].label == full[0].label

    def test_sparse_backend_states_the_registry_rule(self):
        """One entry rule: the registry's, read by the engine."""
        pytest.importorskip("scipy")
        from repro.backends import SparseBackend, stores_sparse

        default = SparseBackend()
        for rows, cols, density in [(64, 64, 0.10), (63, 64, 0.01),
                                    (512, 512, 0.1001), (512, 80, 0.02)]:
            stored = default.est_stored_density(rows, cols, density)
            assert (stored < 1.0) == stores_sparse(rows, cols, density)
        custom = SparseBackend(min_sparse_dim=8, sparsify_below=0.3)
        assert custom.est_stored_density(16, 16, 0.25) == 0.25

    def test_memo_returns_the_same_ranking_and_walks_nothing_twice(
            self, rng, monkeypatch):
        import repro.planner.planner as planner_mod

        program = parse_program(A4_SOURCE)
        inputs = {"A": rng.standard_normal((96, 96)) / 96}
        stats = WorkloadStats(n=1, refresh_count=5000)
        walks = []
        original = planner_mod.program_cost

        def counting(*args, **kwargs):
            walks.append(kwargs.get("rank"))
            return original(*args, **kwargs)

        monkeypatch.setattr(planner_mod, "program_cost", counting)
        memo = {}
        fresh = planner_mod.rank_program(program, inputs, stats=stats)
        first_walks = len(walks)
        first = planner_mod.rank_program(program, inputs, stats=stats,
                                         memo=memo)
        assert len(walks) == 2 * first_walks
        again = planner_mod.rank_program(program, inputs, stats=stats,
                                         memo=memo)
        assert len(walks) == 2 * first_walks      # nothing re-walked
        assert fresh == first == again
        # A moved density drops the memo: everything is walked again.
        inputs["A"][0, :] = 0.0
        planner_mod.rank_program(program, inputs, stats=stats, memo=memo)
        assert len(walks) == 3 * first_walks
