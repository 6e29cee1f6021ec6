"""Cost estimation for compiled linear-algebra programs (sessions).

The planner prices a session cell by charging each kernel the session
would run through the backend's ``est_*`` cost hooks:

* **REEVAL** re-evaluates every statement, as
  :class:`~repro.runtime.session.ReevalSession` does: a walk of each
  expression tree with ``(shape, density)`` annotations;
* **INCR** fires the updated input's trigger: the lowered kernel list
  of :func:`~repro.compiler.compile.compiled_program` that both
  execution modes run, bound at the update width.  No delta rule is
  restated here, so on the dense backend the predicted calls and FLOPs
  per update (:func:`refresh_ledger`) are a counted session's ledger.

Densities of derived views follow the expected-overlap heuristic
``density(AB) ~ min(1, d_a d_b m)`` for inner dimension ``m`` — the
same convention as :mod:`repro.cost.estimate`; inverses are dense.  A
trigger reads the views at those densities; its thin factor blocks are
dense, and its applies to derived views assume the updated input's
column sparsity (a row update's indicator column stays 1-sparse; one
hop through a sparse operand spreads it to ``~n*d`` nonzeros).

Every node evaluated and every trigger kernel call is also charged one
call overhead — the per-call accounting :mod:`repro.cost.estimate`
applies to the iterative models.  Factored INCR trades a few big
products for many thin calls, so omitting it would (a) recommend INCR
where dispatch overhead eats the win and (b) price two backends alike
whenever fill-in pushes their stored densities to 1.0, leaving online
re-planning blind to the backends' different kernel overheads.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from ..compiler.codegen.fused import BACKEND_KERNELS
from ..compiler.compile import UPDATE_WIDTH, compiled_program
from ..compiler.program import Program
from ..cost.estimate import CostEstimate
from ..expr.ast import (
    Add,
    Expr,
    HStack,
    Identity,
    Inverse,
    MatMul,
    MatrixSymbol,
    ScalarMul,
    Transpose,
    VStack,
    ZeroMatrix,
)
from ..runtime.executor import resolve_dim

class _Annotation(NamedTuple):
    """(rows, cols, density) of one expression node or list operand."""

    rows: int
    cols: int
    density: float = 1.0


def _product_density(da: float, db: float, inner: int) -> float:
    return float(min(1.0, da * db * max(inner, 1)))


def _evaluation(be, program: Program, dims, input_density):
    """Walk every statement as :class:`ReevalSession` evaluates it:
    ``(annotations of every input and view, evaluation cost)``."""
    ann = {sym.name: _Annotation(resolve_dim(sym.shape.rows, dims),
                                 resolve_dim(sym.shape.cols, dims),
                                 float(input_density.get(sym.name, 1.0)))
           for sym in program.inputs}
    cost = 0.0

    def walk(node: Expr) -> _Annotation:
        nonlocal cost
        if isinstance(node, MatrixSymbol):
            return ann[node.name]
        if isinstance(node, (Identity, ZeroMatrix)):
            rows = resolve_dim(node.shape.rows, dims)
            cols = resolve_dim(node.shape.cols, dims)
            return _Annotation(rows, cols, 1.0 / max(rows, 1)
                               if isinstance(node, Identity) else 0.0)
        if isinstance(node, Add):
            parts = [walk(child) for child in node.children]
            first = parts[0]
            density = min(1.0, sum(part.density for part in parts))
            cost += (len(parts) - 1) * (
                be.est_add_flops((first.rows, first.cols), density)
                + be.est_call_overhead_flops
            )
            return _Annotation(first.rows, first.cols, density)
        if isinstance(node, MatMul):
            left = walk(node.children[0])
            for child in node.children[1:]:
                right = walk(child)
                cost += be.est_matmul_flops(
                    (left.rows, left.cols), (right.rows, right.cols),
                    left.density, right.density,
                ) + be.est_call_overhead_flops
                left = _Annotation(
                    left.rows, right.cols,
                    _product_density(left.density, right.density, left.cols),
                )
            return left
        if isinstance(node, ScalarMul):
            child = walk(node.child)
            cost += be.est_add_flops(
                (child.rows, child.cols), child.density
            ) + be.est_call_overhead_flops
            return child
        if isinstance(node, Transpose):
            child = walk(node.child)
            return _Annotation(child.cols, child.rows, child.density)
        if isinstance(node, Inverse):
            child = walk(node.child)
            cost += 2.0 * child.rows ** 3 + be.est_call_overhead_flops
            return _Annotation(child.rows, child.rows, 1.0)
        if isinstance(node, (HStack, VStack)):
            parts = [walk(child) for child in node.children]
            density = max(part.density for part in parts)
            if isinstance(node, HStack):
                return _Annotation(parts[0].rows,
                                   sum(part.cols for part in parts), density)
            return _Annotation(sum(part.rows for part in parts),
                               parts[0].cols, density)
        raise TypeError(f"cannot estimate cost of {type(node).__name__}")

    for stmt in program.statements:
        ann[stmt.target.name] = walk(stmt.expr)
    return ann, cost


def refresh_ledger(be, program: Program, dims: dict[str, int],
                   input_density: dict[str, float], rank: int = 1,
                   update_input: str | None = None) -> tuple[Counter, Counter]:
    """Predicted ``(calls, flops)`` of one INCR refresh of width ``rank``
    to ``update_input`` (default: the first input), keyed by backend
    kernel like a :class:`~repro.cost.counters.Counter`'s
    ``calls_by_op`` / ``flops_by_op``; call overhead excluded."""
    update_input = update_input or program.input_names[0]
    ann, _ = _evaluation(be, program, dims, input_density)
    lowered = compiled_program(program).lowered(update_input)
    upd = ann[update_input]
    u_nnz = max(1.0, upd.rows * upd.density)
    u, v = lowered.params
    env = {**ann, u: _Annotation(upd.rows, rank), v: _Annotation(upd.cols, rank)}
    bound = {**dims, UPDATE_WIDTH.name: rank}
    for name, (kind, *shape) in lowered.constants.items():
        sizes = [resolve_dim(dim, bound) for dim in shape]
        env[name] = (_Annotation(sizes[0], sizes[0], 1.0 / max(sizes[0], 1))
                     if kind == "eye" else _Annotation(*sizes, 0.0))
    calls, flops = Counter(), Counter()
    for op in (*lowered.ops, *lowered.applies):
        # Operands in call order; ``scale``'s coefficient and ``out``
        # buffers are not annotated.
        a, *rest = (env[src] for src in op.srcs if src in env)
        rows, cols, cost = a.rows, a.cols, 0.0
        if op.kernel in ("transpose", "copy"):
            env[op.dst] = (a._replace(rows=cols, cols=rows)
                           if op.kernel == "transpose" else a)
            continue
        if op.kernel == "matmul":
            cols = rest[0].cols
            cost = be.est_matmul_flops((rows, a.cols), (a.cols, cols),
                                       a.density, rest[0].density)
        elif op.kernel == "hstack":
            cols = sum(block.cols for block in (a, *rest))
        elif op.kernel == "vstack":
            rows = sum(block.rows for block in (a, *rest))
        elif op.kernel == "inv":
            cost = 2.0 * rows ** 3
        elif op.kernel == "outer":
            cost = be.est_add_outer_flops(
                (rows, cols), a.density, rest[0].cols,
                1.0 if op.dst == update_input else u_nnz)
        else:  # add, sub, scale, applyadd
            cost = be.est_add_flops((rows, cols), a.density)
        calls[BACKEND_KERNELS[op.kernel]] += 1
        flops[BACKEND_KERNELS[op.kernel]] += cost
        # A thin block is dense; an apply's view keeps its annotation.
        env.setdefault(op.dst, _Annotation(rows, cols))
    return calls, flops


def program_cost(
    be,
    strategy: str,
    program: Program,
    dims: dict[str, int],
    input_density: dict[str, float],
    rank: int = 1,
    update_input: str | None = None,
) -> CostEstimate:
    """Predicted per-refresh cost of maintaining ``program`` under ``be``.

    ``input_density`` maps input names to nnz densities; unlisted names
    are assumed dense.  ``update_input`` names the input the update
    stream targets (default: the program's first input).

    The trigger list is priced in place — every kernel call is charged
    ``est_call_overhead(inplace=True)``, its discounted, allocation-free
    form — because it runs on leased buffers in both execution modes.
    Full evaluation (REEVAL, and INCR setup) is priced out-of-place: it
    runs through the allocating evaluator.
    """
    if strategy not in ("REEVAL", "INCR"):
        raise ValueError(f"sessions support REEVAL or INCR, got {strategy!r}")
    update_input = update_input or program.input_names[0]
    ann, eval_cost = _evaluation(be, program, dims, input_density)
    space = sum(be.est_entries(a[:2], a.density) for a in ann.values())
    if strategy == "INCR":
        calls, flops = refresh_ledger(be, program, dims, input_density,
                                      rank, update_input)
        refresh = (sum(flops.values())
                   + sum(calls.values()) * be.est_call_overhead(inplace=True))
    else:
        upd = ann[update_input]
        refresh = (be.est_add_outer_flops(upd[:2], upd.density, rank, 1.0)
                   + be.est_call_overhead_flops + eval_cost)
    return CostEstimate(eval_cost, refresh, space)


__all__ = ["infer_dims", "program_cost", "refresh_ledger"]
