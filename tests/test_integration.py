"""Cross-module integration: the full pipeline and cross-strategy accord."""

import numpy as np
import pytest

from repro.compiler import compile_program, generate_octave_trigger, optimize_trigger
from repro.frontend import parse_program
from repro.iterative import Model, make_general, make_powers, make_sums
from repro.runtime import IVMSession, ReevalSession
from repro.workloads import (
    random_adjacency,
    row_update_factors,
    spectral_normalized,
    update_stream,
    zipf_batch_update,
)

OLS_SOURCE = """
# Ordinary least squares (Section 5.1)
input X(m, n);
input Y(m, p);
Z := X' * X;
W := inv(Z);
C := X' * Y;
beta := W * C;
output beta;
"""


class TestFullPipeline:
    def test_parse_optimize_codegen_run(self, rng):
        """source -> AST -> triggers -> optimizer -> Octave text, and the
        session's own (merged, lowered) triggers -> stream."""
        program = parse_program(OLS_SOURCE)
        triggers = compile_program(program, dynamic_inputs=["X"])
        optimized = optimize_trigger(triggers["X"])
        octave = generate_octave_trigger(optimized)
        assert "function on_update_X" in octave

        sizes = {"m": 18, "n": 6, "p": 2}
        design = rng.normal(size=(18, 6))
        design[:6] += np.eye(6)
        inputs = {"X": design, "Y": rng.normal(size=(18, 2))}
        for mode in ("interpret", "codegen"):
            incr = IVMSession(program, inputs, dims=sizes, mode=mode)
            reeval = ReevalSession(program, inputs, dims=sizes)
            for event in update_stream(rng, "X", 18, 6, 5, scale=0.05):
                incr.apply_update(event)
                reeval.apply_update(event)
            np.testing.assert_allclose(
                incr["beta"], reeval["beta"], rtol=1e-6, atol=1e-8
            )

    def test_zipf_batches_through_session(self, rng):
        program = parse_program("input A(n, n); B := A * A; output B;")
        size = 40
        a0 = spectral_normalized(rng, size)
        incr = IVMSession(program, {"A": a0}, dims={"n": size})
        reeval = ReevalSession(program, {"A": a0}, dims={"n": size})
        for theta in (3.0, 1.0):
            event = zipf_batch_update(rng, "A", size, size,
                                      batch_size=50, theta=theta)
            incr.apply_update(event)
            reeval.apply_update(event)
        np.testing.assert_allclose(incr["B"], reeval["B"], rtol=1e-7)


class TestCrossStrategyAccord:
    """All strategies agree on all programs (docs/invariants.md, exactness)."""

    MODELS = [Model.linear(), Model.exponential(), Model.skip(4)]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: m.name)
    def test_powers_sums_general_agree(self, model, rng):
        n, p, k = 10, 2, 16
        a = spectral_normalized(rng, n)
        b = rng.normal(size=(n, p))
        t0 = rng.normal(size=(n, p))
        powers = [make_powers(s, a, k, model) for s in ("REEVAL", "INCR")]
        sums = [make_sums(s, a, k, model) for s in ("REEVAL", "INCR")]
        generals = [
            make_general(s, a, b, t0, k, model)
            for s in ("REEVAL", "INCR", "HYBRID")
        ]
        for u, v in row_update_factors(rng, n, n, 4, scale=0.05):
            for maintainer in powers + sums + generals:
                maintainer.refresh(u, v)
        np.testing.assert_allclose(powers[0].result(), powers[1].result(),
                                   atol=1e-9)
        np.testing.assert_allclose(sums[0].result(), sums[1].result(),
                                   atol=1e-9)
        for maintainer in generals[1:]:
            np.testing.assert_allclose(generals[0].result(),
                                       maintainer.result(), atol=1e-9)

    def test_models_agree_with_each_other(self, rng):
        """LIN, EXP and SKIP-s compute the same A^16 after updates."""
        n, k = 9, 16
        a = spectral_normalized(rng, n)
        maintainers = [
            make_powers("INCR", a, k, m)
            for m in (Model.linear(), Model.exponential(),
                      Model.skip(2), Model.skip(8))
        ]
        for u, v in row_update_factors(rng, n, n, 3, scale=0.05):
            for maintainer in maintainers:
                maintainer.refresh(u, v)
        for maintainer in maintainers[1:]:
            np.testing.assert_allclose(
                maintainers[0].result(), maintainer.result(), atol=1e-9
            )


class TestDistributedVsLocal:
    def test_distributed_matches_local_incremental(self, rng):
        from repro.distributed import (LocalShardEngine, RowShardPartitioner,
                                       ShardBackend)
        from repro.planner import MaintenancePlan
        from repro.runtime import FactoredUpdate, ShardedSession

        n = 20
        program = parse_program(
            "input A(n, n); P2 := A * A; P4 := P2 * P2; P8 := P4 * P4; "
            "output P8;")
        a = spectral_normalized(rng, n)
        local = IVMSession(program, {"A": a})
        dist = ShardedSession(
            program, {"A": a},
            backend=ShardBackend(LocalShardEngine(
                RowShardPartitioner(n, 4, tile_rows=5))),
            plan=MaintenancePlan("INCR", nodes=4))
        for u, v in row_update_factors(rng, n, n, 3, scale=0.05):
            local.apply_update(FactoredUpdate("A", u, v))
            dist.apply_update(FactoredUpdate("A", u, v))
        np.testing.assert_allclose(local["P8"], dist["P8"], atol=1e-9)


class TestAnalyticsOnGraphWorkloads:
    def test_pagerank_general_form_shapes(self, rng):
        from repro.analytics import IncrementalPageRank

        adj = random_adjacency(rng, 40, avg_out_degree=5)
        pr = IncrementalPageRank(adj, k=32, strategy="HYBRID",
                                 model=Model.linear())
        for _ in range(10):
            src = int(rng.integers(0, 40))
            dst = int(rng.integers(0, 40))
            if src != dst:
                pr.add_edge(src, dst)
        assert pr.revalidate() < 1e-9
        assert abs(pr.ranks.sum() - 1.0) < 1e-9
