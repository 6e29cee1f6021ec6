"""Cost estimation for compiled linear-algebra programs (sessions).

The planner prices a session cell by walking the lowered kernel lists
the session runs (:class:`~repro.compiler.compile.CompiledProgram`),
charging each record through the backend's ``est_*`` cost hooks:

* **setup** (the initial build), **space** and a catalog's demand read
  (:func:`evaluation_ledger`) walk the evaluation list, every statement
  from the inputs;
* **REEVAL** walks the updated input's REEVAL list: the update applied
  to the input, then every statement;
* **INCR** walks the updated input's trigger list, bound at the update
  width, on ``nodes`` row-shard nodes as a sharded session runs it;
  **HYBRID** walks its own trigger list (non-square views' deltas
  dense), single-process.

No delta rule, evaluation order or traffic formula is restated here,
so on the dense backend the predicted calls and FLOPs per update
(:func:`refresh_ledger`) are a counted session's ledger, under any
strategy, and the predicted shard traffic (:func:`refresh_traffic`) is
the engine's ``model``.

Densities of computed values follow the expected-overlap heuristic
``density(AB) ~ min(1, d_a d_b m)`` for inner dimension ``m`` — the
same convention as :mod:`repro.cost.estimate` — sums add densities,
stacks keep the densest block and inverses are dense.  A trigger reads
the views at those densities; its thin factor blocks are dense, and its
applies to derived views assume the updated input's column sparsity (a
row update's indicator column stays 1-sparse; one hop through a sparse
operand spreads it to ``~n*d`` nonzeros).

Every kernel call is also charged one call overhead — the per-call
accounting :mod:`repro.cost.estimate` applies to the iterative models.
Factored INCR trades a few big products for many thin calls, so
omitting it would (a) recommend INCR where dispatch overhead eats the
win and (b) price two backends alike whenever fill-in pushes their
stored densities to 1.0, leaving online re-planning blind to the
backends' different kernel overheads.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ..compiler.codegen.fused import BACKEND_KERNELS
from ..compiler.compile import UPDATE_WIDTH, compiled_program
from ..compiler.program import Program, Statement
from ..cost.estimate import CostEstimate
from ..expr import MatrixSymbol
from ..runtime.executor import resolve_dim


class _Annotation(NamedTuple):
    """(rows, cols, density) of one list operand."""

    rows: int
    cols: int
    density: float = 1.0


#: Kernels whose last operand is the ``out`` they write.
_WRITES_OUT = frozenset(
    {"matmul", "add", "sub", "scale", "hstack", "vstack", "copy"})


def _product_density(da: float, db: float, inner: int) -> float:
    return float(min(1.0, da * db * max(inner, 1)))


def _walk(be, lowered, env: dict, dims, thin_dense: bool = False,
          u_nnz: float = 1.0, part=None) -> tuple[Counter, Counter, list]:
    """``(calls, flops, roundtrips)`` of one run of ``lowered``, keyed by
    backend kernel; every record's result is annotated into ``env``,
    which holds the inputs' and views' annotations on entry.
    ``thin_dense`` annotates every computed value dense (a trigger's
    factor blocks).

    Under a row-shard partitioner ``part``, the records a
    :class:`~repro.distributed.sharded.ShardBackend` runs as tile ops
    (:func:`~repro.distributed.sharded.tile_ops`) are charged at the
    largest shard's share of the rows, and each adds to ``roundtrips``
    the events the engine's ``model`` logs for it.
    """
    for name, (kind, *shape) in lowered.constants.items():
        sizes = [resolve_dim(dim, dims) for dim in shape]
        env[name] = (_Annotation(sizes[0], sizes[0], 1.0 / max(sizes[0], 1))
                     if kind == "eye" else _Annotation(*sizes, 0.0))
    calls, flops, roundtrips, tiles = Counter(), Counter(), [], {}
    if part is not None:
        from ..distributed.comm import tile_traffic
        from ..distributed.sharded import tile_ops

        tiles = tile_ops(lowered)
        share = max(map(part.shard_rows, range(part.nodes))) / part.n
    for op in (*lowered.ops, *lowered.applies):
        # Operands in call order; ``scale``'s coefficient and the ``out``
        # a record writes (a buffer, or the view a REEVAL list computes
        # into) are not annotated.
        srcs = op.srcs[:-1] if op.kernel in _WRITES_OUT else op.srcs
        a, *rest = (env[src] for src in srcs if src in env)
        rows, cols, density, cost = *a, 0.0
        if op.kernel in ("transpose", "copy", "store"):
            env.setdefault(op.dst, a._replace(rows=cols, cols=rows)
                           if op.kernel == "transpose" else a)
            continue
        if op.kernel == "matmul":
            cols = rest[0].cols
            cost = be.est_matmul_flops((rows, a.cols), (a.cols, cols),
                                       a.density, rest[0].density)
            density = _product_density(a.density, rest[0].density, a.cols)
        elif op.kernel in ("hstack", "vstack"):
            blocks = (a, *rest)
            density = max(block.density for block in blocks)
            if op.kernel == "hstack":
                cols = sum(block.cols for block in blocks)
            else:
                rows = sum(block.rows for block in blocks)
        elif op.kernel == "inv":
            cost, density = 2.0 * rows ** 3, 1.0
        elif op.kernel == "outer":
            # The update's own factor is an indicator column.
            cost = be.est_add_outer_flops(
                (rows, cols), a.density, rest[0].cols,
                1.0 if op.srcs[1] in lowered.params else u_nnz)
        elif op.kernel in ("add", "sub") and not thin_dense:
            density = min(1.0, a.density + rest[0].density)
            cost = be.est_add_flops((rows, cols), density)
        else:  # scale, applyadd; a trigger's sums
            cost = be.est_add_flops((rows, cols), a.density)
        # A product on a stored view runs in process unless ``b`` is thin.
        if tiles.get(op) and (op.kernel == "outer"
                              or rest[0].cols < rest[0].rows):
            cost *= share
            roundtrips.append(tile_traffic(
                part, tiles[op], *(factor[:2] for factor in rest)))
        calls[BACKEND_KERNELS[op.kernel]] += 1
        flops[BACKEND_KERNELS[op.kernel]] += cost
        # An apply's view keeps its annotation.
        env.setdefault(op.dst, _Annotation(
            rows, cols, 1.0 if thin_dense else density))
    return calls, flops, roundtrips


def _setup(be, program: Program, dims, input_density):
    """``(annotations of every input and view, calls, flops)`` of the
    evaluation list: what an initial build runs."""
    env = {sym.name: _Annotation(resolve_dim(sym.shape.rows, dims),
                                 resolve_dim(sym.shape.cols, dims),
                                 float(input_density.get(sym.name, 1.0)))
           for sym in program.inputs}
    calls, flops, _ = _walk(be, compiled_program(program).evaluation(), env,
                            dims)
    stored = (*program.input_names, *program.view_names)
    return {name: env[name] for name in stored}, calls, flops


def _refresh(be, strategy: str, program: Program, ann: dict, dims,
             rank: int, update_input: str,
             nodes: int = 1) -> tuple[Counter, Counter, list]:
    """``(calls, flops, roundtrips)`` of one width-``rank`` update to
    ``update_input``, from the stored annotations ``ann``, on ``nodes``
    row-shard nodes (:func:`_walk`)."""
    compiled = compiled_program(program)
    lowered = getattr(compiled, {"INCR": "lowered", "HYBRID": "hybrid",
                                 "REEVAL": "reevaluated"}[strategy])(update_input)
    upd = ann[update_input]
    part = None
    if nodes > 1:
        from ..distributed.partitioner import RowShardPartitioner

        part = RowShardPartitioner(upd.rows, nodes)
    u, v = lowered.params
    env = {**ann, u: _Annotation(upd.rows, rank),
           v: _Annotation(upd.cols, rank)}
    return _walk(be, lowered, env, {**dims, UPDATE_WIDTH.name: rank},
                 thin_dense=strategy != "REEVAL",
                 u_nnz=max(1.0, upd.rows * upd.density), part=part)


def evaluation_ledger(be, program: Program, dims: dict[str, int],
                      input_density: dict[str, float]) -> tuple[Counter, Counter]:
    """Predicted ``(calls, flops)`` of one run of the evaluation list —
    an initial build, or a catalog's demand read of an evicted node —
    keyed by backend kernel like :func:`refresh_ledger`; call overhead
    excluded."""
    return _setup(be, program, dims, input_density)[1:]


def refresh_ledger(be, program: Program, dims: dict[str, int],
                   input_density: dict[str, float], rank: int = 1,
                   update_input: str | None = None,
                   strategy: str = "INCR") -> tuple[Counter, Counter]:
    """Predicted ``(calls, flops)`` of one ``strategy`` refresh of width
    ``rank`` to ``update_input`` (default: the first input), keyed by
    backend kernel like a :class:`~repro.cost.counters.Counter`'s
    ``calls_by_op`` / ``flops_by_op``; call overhead excluded."""
    ann, _, _ = _setup(be, program, dims, input_density)
    return _refresh(be, strategy, program, ann, dims, rank,
                    update_input or program.input_names[0])[:2]


def marginal_refresh(be, program: Program, dims: dict[str, int],
                     input_density: dict[str, float], rank: int = 1,
                     update_input: str | None = None,
                     strategy: str = "INCR") -> float:
    """Ledger FLOPs one width-``rank`` ``strategy`` refresh spends on
    ``program``'s last statement, which no other statement reads: the
    refresh of ``program`` less that of ``program`` without it.  Both
    gain a first statement copying the updated input, so the one without
    is never empty; its records are in both and cancel."""
    update_input = update_input or program.input_names[0]
    x = program.input(update_input)
    copy = Statement(MatrixSymbol("_input", x.shape.rows, x.shape.cols), x)

    def flops(statements) -> float:
        return float(sum(refresh_ledger(
            be, Program(program.inputs, (copy, *statements)), dims,
            input_density, rank, update_input, strategy)[1].values()))

    return flops(program.statements) - flops(program.statements[:-1])


def refresh_traffic(be, program: Program, dims: dict[str, int], nodes: int,
                    rank: int = 1,
                    update_input: str | None = None) -> tuple[int, int, int]:
    """Predicted ``(roundtrips, messages, bytes)`` of one width-``rank``
    INCR refresh to ``update_input`` on ``nodes`` row-shard nodes: the
    engine's op count and its ``model``'s totals."""
    ann, _, _ = _setup(be, program, dims, {})
    roundtrips = _refresh(be, "INCR", program, ann, dims, rank,
                          update_input or program.input_names[0], nodes)[2]
    events = [event for logged in roundtrips for event in logged]
    return (len(roundtrips), sum(e.messages for e in events),
            sum(e.nbytes for e in events))


def program_cost(
    be,
    strategy: str,
    program: Program,
    dims: dict[str, int],
    input_density: dict[str, float],
    rank: int = 1,
    update_input: str | None = None,
    nodes: int = 1,
) -> CostEstimate:
    """Predicted per-refresh cost of maintaining ``program`` under ``be``.

    ``input_density`` maps input names to nnz densities; unlisted names
    are assumed dense.  ``update_input`` names the input the update
    stream targets (default: the program's first input).

    Each price is its list's ledger plus one call overhead per kernel
    call.  The INCR trigger list is priced in place — every call is
    charged ``est_call_overhead(inplace=True)``, its discounted,
    allocation-free form — because it runs on leased buffers in both
    execution modes.  Setup runs the evaluation list with allocating
    destinations and is priced out-of-place, and REEVAL keeps that
    out-of-place call price.

    ``nodes > 1`` prices the INCR refresh on that many row-shard nodes
    (:func:`_walk`), each tile op's traffic through the IPC hooks:
    :meth:`est_broadcast` for its factors, :meth:`est_shuffle` for its
    gather.  Setup and space are the single-process build's.
    """
    if strategy not in ("REEVAL", "INCR", "HYBRID"):
        raise ValueError(f"sessions support REEVAL, INCR or HYBRID, got {strategy!r}")
    ann, calls, flops = _setup(be, program, dims, input_density)
    setup = (sum(flops.values())
             + sum(calls.values()) * be.est_call_overhead())
    space = sum(be.est_entries(a[:2], a.density) for a in ann.values())
    calls, flops, roundtrips = _refresh(
        be, strategy, program, ann, dims, rank,
        update_input or program.input_names[0], nodes)
    refresh = (sum(flops.values()) + sum(calls.values())
               * be.est_call_overhead(inplace=strategy != "REEVAL"))
    for broadcast, *gather in roundtrips:
        refresh += be.est_broadcast(broadcast.nbytes / broadcast.messages,
                                    broadcast.messages)
        refresh += sum(be.est_shuffle(e.nbytes, e.messages) for e in gather)
    return CostEstimate(setup, refresh, space)


__all__ = ["evaluation_ledger", "marginal_refresh", "program_cost",
           "refresh_ledger", "refresh_traffic"]
