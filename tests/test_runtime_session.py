"""IVM sessions: initialization, maintenance, modes, validation."""

import numpy as np
import pytest

from repro.compiler import Program, Statement
from repro.cost import Counter
from repro.expr import MatrixSymbol, NamedDim, matmul
from repro.runtime import FactoredUpdate, IVMSession, ReevalSession

n = NamedDim("n")
A = MatrixSymbol("A", n, n)
B = MatrixSymbol("B", n, n)
C = MatrixSymbol("C", n, n)


def a4_program():
    return Program([A], [Statement(B, matmul(A, A)), Statement(C, matmul(B, B))])


def make_updates(rng, size, count, scale=1.0):
    return [
        FactoredUpdate("A", scale * rng.normal(size=(size, 1)),
                       scale * rng.normal(size=(size, 1)))
        for _ in range(count)
    ]


class TestInitialization:
    def test_views_materialized(self, rng):
        size = 6
        a0 = rng.normal(size=(size, size))
        session = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        np.testing.assert_allclose(session["B"], a0 @ a0)
        np.testing.assert_allclose(session["C"], np.linalg.matrix_power(a0, 4))

    def test_output_accessor(self, rng):
        size = 5
        session = IVMSession(
            a4_program(), {"A": rng.normal(size=(size, size))}, dims={"n": size}
        )
        np.testing.assert_array_equal(session.output(), session["C"])

    def test_missing_input_rejected(self):
        with pytest.raises(ValueError, match="missing initial values"):
            IVMSession(a4_program(), {}, dims={"n": 4})

    @pytest.mark.parametrize("plan", ["reeval", "incr", "auto"])
    def test_dims_of_eye_inferred_from_the_inputs(self, rng, plan):
        """A program with ``eye(n)`` opens without ``dims=``: the session
        infers ``n`` from its inputs once, for the build and for every
        update, bitwise as when ``n`` is given."""
        from repro.frontend import parse_program
        from repro.runtime import open_session

        program = parse_program(
            "input A(n, n); B := A + eye(n); C := inv(B) * A';")
        a0 = rng.normal(size=(6, 6)) / 6
        updates = make_updates(rng, 6, 3, scale=0.1)
        sessions = [open_session(program, {"A": a0}, dims=dims, plan=plan)
                    for dims in (None, {"n": 6})]
        for session in sessions:
            session.apply_updates(updates)
        assert sessions[0].plan == sessions[1].plan
        for name in ("A", "B", "C"):
            assert np.array_equal(sessions[0][name], sessions[1][name])

    def test_unknown_mode_rejected(self, rng):
        with pytest.raises(ValueError, match="unknown mode"):
            IVMSession(a4_program(), {"A": rng.normal(size=(4, 4))},
                       dims={"n": 4}, mode="jit")


class TestMaintenance:
    def test_interpret_matches_reeval(self, rng):
        size = 7
        a0 = rng.normal(size=(size, size))
        incr = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        reeval = ReevalSession(a4_program(), {"A": a0}, dims={"n": size})
        for update in make_updates(rng, size, 8):
            incr.apply_update(update)
            reeval.apply_update(update)
        for name in ("A", "B", "C"):
            np.testing.assert_allclose(incr[name], reeval[name],
                                       rtol=1e-6, atol=1e-8)

    def test_codegen_matches_interpret(self, rng):
        size = 7
        a0 = rng.normal(size=(size, size))
        interp = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        codegen = IVMSession(a4_program(), {"A": a0}, dims={"n": size},
                             mode="codegen")
        for update in make_updates(rng, size, 5):
            interp.apply_update(update)
            codegen.apply_update(update)
        for name in ("A", "B", "C"):
            np.testing.assert_allclose(interp[name], codegen[name], rtol=1e-9)

    def test_apply_updates_batch_api(self, rng):
        size = 5
        a0 = rng.normal(size=(size, size))
        one_by_one = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        batched = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        updates = make_updates(rng, size, 4)
        for update in updates:
            one_by_one.apply_update(update)
        batched.apply_updates(updates)
        np.testing.assert_allclose(one_by_one["C"], batched["C"])
        assert batched.update_count == 4

    def test_update_for_unknown_input_rejected(self, rng):
        session = IVMSession(
            a4_program(), {"A": rng.normal(size=(4, 4))}, dims={"n": 4}
        )
        with pytest.raises(KeyError, match="no trigger"):
            session.apply_update(
                FactoredUpdate("Z", np.ones((4, 1)), np.ones((4, 1)))
            )

    def test_rank_k_update_accepted(self, rng):
        size = 6
        a0 = rng.normal(size=(size, size))
        incr = IVMSession(a4_program(), {"A": a0}, dims={"n": size})
        reeval = ReevalSession(a4_program(), {"A": a0}, dims={"n": size})
        update = FactoredUpdate("A", rng.normal(size=(size, 3)),
                                rng.normal(size=(size, 3)))
        incr.apply_update(update)
        reeval.apply_update(update)
        np.testing.assert_allclose(incr["C"], reeval["C"], rtol=1e-7)

    def test_revalidate_reports_small_drift(self, rng):
        size = 6
        session = IVMSession(
            a4_program(),
            {"A": rng.normal(size=(size, size)) / size},
            dims={"n": size},
        )
        for update in make_updates(rng, size, 50, scale=0.05):
            session.apply_update(update)
        assert session.revalidate() < 1e-6


class TestCounters:
    def test_incremental_avoids_cubic_work(self, rng):
        """The headline claim: INCR refreshes do O(n^2), REEVAL O(n^3)."""
        results = {}
        for size in (16, 32, 64):
            a0 = rng.normal(size=(size, size))
            incr_counter, reeval_counter = Counter(), Counter()
            incr = IVMSession(a4_program(), {"A": a0}, dims={"n": size},
                              counter=incr_counter)
            reeval = ReevalSession(a4_program(), {"A": a0}, dims={"n": size},
                                   counter=reeval_counter)
            incr_counter.reset()
            reeval_counter.reset()
            update = FactoredUpdate("A", rng.normal(size=(size, 1)),
                                    rng.normal(size=(size, 1)))
            incr.apply_update(update)
            reeval.apply_update(update)
            results[size] = (incr_counter.total_flops,
                             reeval_counter.total_flops)
        # doubling n: INCR grows ~4x, REEVAL ~8x
        incr_growth = results[64][0] / results[16][0]
        reeval_growth = results[64][1] / results[16][1]
        assert incr_growth < 6.0**2       # ~16x over two doublings
        assert reeval_growth > 6.0**2     # ~64x over two doublings
        assert results[64][1] > 5 * results[64][0]


#: FLOPs of three updates (n=12, p=3, m=20) as charged by the AST-walk
#: trigger executor that the lowered form replaced, and the bytes it
#: charged (``rows x cols`` doubles per product, buffer or not):
#: name -> (source, updated input, {rank: (flops by op, bytes)}).  The
#: chain, the Table 2 programs (powers, sums, general form) and two
#: programs covering the remaining charges (scale, inverse).
PARENT_CHARGES = {
    "chain": (
        "input A(n, n); B := A * A; C := B * B; output C;", "A",
        {1: ({"add": 108, "matmul": 11952}, 13080),
         2: ({"add": 216, "matmul": 25344}, 16032)}),
    "powers": (
        "input A(n, n); P2 := A * A; P3 := P2 * A; P4 := P3 * A; "
        "output P4;", "A",
        {1: ({"add": 108, "matmul": 17280}, 17424),
         2: ({"add": 216, "matmul": 36288}, 21312)}),
    "sums": (
        "input A(n, n); P2 := A * A; P3 := P2 * A; S := A + P2 + P3; "
        "output S;", "A",
        {1: ({"add": 72, "matmul": 15120}, 15912),
         2: ({"add": 144, "matmul": 31104}, 18144)}),
    "general": (
        "input A(n, n); input T0(n, p); input B(n, p); "
        "T1 := A * T0 + B; T2 := A * T1 + B; output T2;", "A",
        {1: ({"add": 36, "matmul": 2952}, 5928),
         2: ({"add": 72, "matmul": 6192}, 6720)}),
    "mixed": (
        "input A(n, n); R := 2 * A * A - A'; output R;", "A",
        {1: ({"add": 36, "matmul": 5328, "scalar_mul": 108}, 7800),
         2: ({"add": 72, "matmul": 10944, "scalar_mul": 216}, 8736)}),
    "ols": (
        "input X(m, n); input Y(m, p); Z := X' * X; W := inv(Z); "
        "C := X' * Y; beta := W * C; output beta;", "X",
        {1: ({"add": 84, "inverse": 48, "matmul": 16536,
              "scalar_mul": 72}, 18624),
         2: ({"add": 192, "inverse": 384, "matmul": 35184,
              "scalar_mul": 144}, 23376)}),
}

#: FLOPs the merged list no longer spends over the three updates:
#: ``X' * u_X`` appears twice in ``dZ`` and runs once (2 m n r an update).
MERGED = {("ols", 1): 1440, ("ols", 2): 2880}

#: The AST walk's operation kind of each kernel the ledger names.  The
#: update statement ``V += U W'`` was charged as a product; stacks carry
#: no FLOPs.
KIND = {"matmul_into": "matmul", "add_outer_inplace": "matmul",
        "add_into": "add", "sub_into": "add", "add_inplace": "add",
        "scale_into": "scalar_mul", "inv": "inverse",
        "hstack_into": None, "vstack_into": None}

#: Bytes the kernels allocated over the three updates: every product,
#: sum and stack writes a leased buffer, and only ``inv`` (which has no
#: ``out``) allocates — its ``2r x 2r`` result, once an update.
ALLOCATED = {("ols", 1): 3 * 2 * 2 * 8, ("ols", 2): 3 * 4 * 4 * 8}


class TestInterpretCharges:
    """The backend's kernels charge the ledger (:func:`counted`): each
    kernel under its own name, so the FLOPs fold onto the AST walk's
    operation kinds exactly (less a merged record's), and only results
    the kernels allocate count as bytes."""

    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("name", sorted(PARENT_CHARGES))
    def test_totals_equal_the_ast_walks(self, name, rank):
        from repro.frontend import parse_program

        source, target, expected = PARENT_CHARGES[name]
        dims = {"n": 12, "p": 3, "m": 20}
        program = parse_program(source)
        rng = np.random.default_rng(7)
        inputs = {}
        for sym in program.inputs:
            shape = (dims[sym.shape.rows.name], dims[sym.shape.cols.name])
            inputs[sym.name] = rng.normal(size=shape)
            if name == "ols":
                inputs[sym.name] += 5 * np.eye(*shape)
        counter = Counter()
        session = IVMSession(program, inputs, dims=dims, rank=rank,
                             counter=counter)
        counter.reset()
        rows, cols = inputs[target].shape
        for _ in range(3):
            session.apply_update(FactoredUpdate(
                target, 0.01 * rng.normal(size=(rows, rank)),
                rng.normal(size=(cols, rank))))
        flops, _ = expected[rank]
        flops = {**flops,
                 "matmul": flops["matmul"] - MERGED.get((name, rank), 0)}
        folded = {}
        for kernel, charged in counter.snapshot().items():
            if KIND[kernel] is not None:
                folded[KIND[kernel]] = folded.get(KIND[kernel], 0) + charged
        assert folded == flops
        assert counter.bytes_allocated == ALLOCATED.get((name, rank), 0)
        assert session.revalidate() < 1e-8

    def test_codegen_charges_what_interpret_charges(self, rng):
        a0 = rng.normal(size=(6, 6))
        updates = [FactoredUpdate("A", rng.normal(size=(6, width)),
                                  rng.normal(size=(6, width)))
                   for width in (1, 2)]  # the printed function, the loop
        ledgers = []
        for mode in ("interpret", "codegen"):
            counter = Counter()
            session = IVMSession(a4_program(), {"A": a0}, mode=mode,
                                 counter=counter)
            session.apply_updates(updates)
            ledgers.append((counter.snapshot(), dict(counter.calls_by_op),
                            counter.bytes_allocated))
        assert ledgers[0] == ledgers[1]
        assert ledgers[0][1]["add_outer_inplace"] == 2 * 3

    @pytest.mark.parametrize("source, targets", [
        ("input A(n, n); B := A * A; C := A * B; output C;", "A"),
        ("input A(n, n); input B(n, n); C := A * B + B * A; output C;",
         "AB"),
    ])
    def test_sharded_ledger_equals_the_single_process_one(
            self, source, targets):
        """A sharded interpret session is the same list on another
        backend: every kernel call is charged what the single-process
        one is (no made-up per-refresh entry), set-up included, and the
        bytes differ by exactly the products' results and the views the
        set-up computes in their segments."""
        from repro.frontend import parse_program
        from stream_helpers import shard_session

        n = 24
        program = parse_program(source)
        rng = np.random.default_rng(3)
        inputs = {sym.name: rng.normal(size=(n, n)) / np.sqrt(n)
                  for sym in program.inputs}
        updates = [
            FactoredUpdate(targets[index % len(targets)],
                           0.01 * rng.normal(size=(n, 1)),
                           rng.normal(size=(n, 1)))
            for index in range(4)
        ]
        plain, sharded = Counter(), Counter()
        single = IVMSession(program, inputs, counter=plain)
        single.apply_updates(updates)
        with shard_session(program, inputs, counter=sharded,
                           timeout=60.0) as session:
            session.apply_updates(updates)
        assert sharded.snapshot() == plain.snapshot()
        assert sharded.calls_by_op == plain.calls_by_op
        # A product on the shards returns its (n, k) result as a new
        # array where the dense kernel writes the leased buffer: as many
        # bytes as its thin operand, which the model broadcasts once to
        # the one remote node.
        results = sum(event.nbytes for event in session.engine.model.events
                      if event.kind == "broadcast"
                      and event.label != "add_lowrank")
        assert results > 0
        # The open evaluates each view into its segment, where the
        # single-process one allocates it.
        landed = len(program.view_names) * n * n * 8
        assert (sharded.bytes_allocated
                == plain.bytes_allocated - landed + results)
        assert "sharded_refresh" not in sharded.snapshot()
