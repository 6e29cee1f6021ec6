"""Cost estimation for compiled linear-algebra programs (sessions).

Sessions maintain arbitrary programs (not just the iterative closed
forms of Table 2), so the planner prices them by walking each
statement's expression tree with ``(shape, density)`` annotations and
charging every node through the backend's ``est_*`` cost hooks:

* **REEVAL** — the per-refresh cost of re-evaluating every statement
  (what :class:`~repro.runtime.session.ReevalSession` does);
* **INCR** — the cost of propagating *factored* deltas through the
  compiled triggers: every product against a big operand becomes a
  thin matrix–vector-shaped pass, with delta widths growing along the
  statement dependency chain exactly as trigger compilation stacks
  them (``d(AB) = dA B + A dB + dA dB`` doubles the width).

Densities of derived views follow the expected-overlap heuristic
``density(AB) ~ min(1, d_a d_b m)`` for inner dimension ``m`` — the
same convention as :mod:`repro.cost.estimate`; inverses are dense.

Every arithmetic node evaluated and every factored delta pass is also
charged one ``est_call_overhead_flops`` — the same per-call accounting
:mod:`repro.cost.estimate` applies to the iterative models.  Factored
INCR trades a few big products for many thin passes, so omitting call
cost would (a) recommend INCR at scales where dispatch overhead eats
the win and (b) price two backends identically whenever fill-in pushes
their stored densities to 1.0, leaving online re-planning blind to the
backends' different kernel overheads.
"""

from __future__ import annotations

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


def infer_dims(program: Program, inputs) -> dict[str, int]:
    """Bind the program's symbolic dimensions from concrete input arrays."""
    dims: dict[str, int] = {}
    for sym in program.inputs:
        value = inputs.get(sym.name)
        if value is None:
            continue
        for dim, size in zip((sym.shape.rows, sym.shape.cols), value.shape):
            name = getattr(dim, "name", None)
            if name is None:
                continue
            if dims.setdefault(name, int(size)) != int(size):
                raise ValueError(
                    f"dimension {name!r} bound to both {dims[name]} and {size}"
                )
    return dims


class _Annotation:
    """(rows, cols, density, delta_width) of one expression node."""

    __slots__ = ("rows", "cols", "density", "width")

    def __init__(self, rows: int, cols: int, density: float, width: int):
        self.rows = rows
        self.cols = cols
        self.density = density
        self.width = width


def _product_density(da: float, db: float, inner: int) -> float:
    return float(min(1.0, da * db * max(inner, 1)))


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

    The factored refresh is priced in place — every delta-pass call is
    charged ``est_call_overhead(inplace=True)``, its discounted,
    allocation-free form — because a trigger's lowered form runs on
    leased buffers in both execution modes.  Full evaluation (REEVAL,
    and INCR setup) is priced out-of-place: it runs through the
    allocating evaluator.
    """
    if strategy not in ("REEVAL", "INCR"):
        raise ValueError(f"sessions support REEVAL or INCR, got {strategy!r}")
    update_input = update_input or program.input_names[0]
    delta_call = be.est_call_overhead(inplace=True)

    ann: dict[str, _Annotation] = {}
    for sym in program.inputs:
        rows = resolve_dim(sym.shape.rows, dims)
        cols = resolve_dim(sym.shape.cols, dims)
        width = rank if sym.name == update_input else 0
        ann[sym.name] = _Annotation(
            rows, cols, float(input_density.get(sym.name, 1.0)), width
        )

    # Delta factor columns inherit the updated input's column sparsity
    # (a row update's indicator column stays 1-sparse; one hop through a
    # sparse operand spreads it to ~n*d nonzeros).
    upd = ann[update_input]
    u_nnz = max(1.0, upd.rows * upd.density)

    eval_cost = 0.0   # full evaluation of the current statement
    delta_cost = 0.0  # factored propagation through the same statement

    def walk(node: Expr) -> _Annotation:
        nonlocal eval_cost, delta_cost
        if isinstance(node, MatrixSymbol):
            return ann[node.name]
        if isinstance(node, Identity):
            n = resolve_dim(node.shape.rows, dims)
            return _Annotation(n, n, 1.0 / max(n, 1), 0)
        if isinstance(node, ZeroMatrix):
            r = resolve_dim(node.shape.rows, dims)
            c = resolve_dim(node.shape.cols, dims)
            return _Annotation(r, c, 0.0, 0)
        if isinstance(node, Add):
            parts = [walk(child) for child in node.children]
            first = parts[0]
            density = min(1.0, sum(part.density for part in parts))
            eval_cost += (len(parts) - 1) * (
                be.est_add_flops((first.rows, first.cols), density)
                + be.est_call_overhead_flops
            )
            width = sum(part.width for part in parts)
            if width:
                delta_cost += delta_call  # factor hstack
            return _Annotation(first.rows, first.cols, density, width)
        if isinstance(node, MatMul):
            left = walk(node.children[0])
            for child in node.children[1:]:
                right = walk(child)
                eval_cost += be.est_matmul_flops(
                    (left.rows, left.cols), (right.rows, right.cols),
                    left.density, right.density,
                ) + be.est_call_overhead_flops
                # Factored propagation: dA B (thin right-pass), A dB
                # (thin left-pass), dA dB (thin-thin core) — one kernel
                # call each.
                if left.width:
                    delta_cost += be.est_matmul_flops(
                        (right.cols, right.rows), (right.rows, left.width),
                        right.density,
                    ) + delta_call
                if right.width:
                    delta_cost += be.est_matmul_flops(
                        (left.rows, left.cols), (left.cols, right.width),
                        left.density,
                    ) + delta_call
                if left.width and right.width:
                    delta_cost += (4.0 * left.rows * left.width * right.width
                                   + delta_call)
                left = _Annotation(
                    left.rows, right.cols,
                    _product_density(left.density, right.density, left.cols),
                    left.width + right.width,
                )
            return left
        if isinstance(node, ScalarMul):
            child = walk(node.child)
            eval_cost += be.est_add_flops(
                (child.rows, child.cols), child.density
            ) + be.est_call_overhead_flops
            if child.width:
                delta_cost += (2.0 * child.rows * child.width
                               + delta_call)
            return child
        if isinstance(node, Transpose):
            child = walk(node.child)
            return _Annotation(child.cols, child.rows, child.density,
                               child.width)
        if isinstance(node, Inverse):
            child = walk(node.child)
            n = child.rows
            eval_cost += 2.0 * n ** 3 + be.est_call_overhead_flops
            # Incremental inverse maintenance is Sherman–Morrison per
            # delta column: O(n^2) each.
            if child.width:
                delta_cost += (4.0 * n * n * child.width
                               + delta_call)
            return _Annotation(n, n, 1.0, child.width)
        if isinstance(node, (HStack, VStack)):
            parts = [walk(child) for child in node.children]
            if isinstance(node, HStack):
                rows = parts[0].rows
                cols = sum(part.cols for part in parts)
            else:
                rows = sum(part.rows for part in parts)
                cols = parts[0].cols
            return _Annotation(rows, cols,
                               max(part.density for part in parts),
                               sum(part.width for part in parts))
        raise TypeError(f"cannot estimate cost of {type(node).__name__}")

    space = sum(
        be.est_entries((a.rows, a.cols), a.density) for a in ann.values()
    )
    for stmt in program.statements:
        result = walk(stmt.expr)
        if result.width:
            # Applying the statement's factored delta to the view.
            delta_cost += be.est_add_outer_flops(
                (result.rows, result.cols), result.density,
                result.width, u_nnz,
            ) + delta_call
        ann[stmt.target.name] = result
        space += be.est_entries((result.rows, result.cols), result.density)

    apply_flops = be.est_add_outer_flops(
        (upd.rows, upd.cols), upd.density, rank, 1.0
    )
    if strategy == "REEVAL":
        return CostEstimate(
            eval_cost,
            apply_flops + be.est_call_overhead_flops + eval_cost,
            space,
        )
    return CostEstimate(
        eval_cost, apply_flops + delta_call + delta_cost, space
    )


__all__ = ["infer_dims", "program_cost"]
