"""Algorithm 1: compile a program into per-input trigger programs.

For each dynamic input ``X`` the compiler seeds the affected-matrix list
``D`` with the update's factored form ``dX = u_X @ v_X'`` and walks the
program statements in order.  For every statement ``A_i := E_i`` it
derives the factored delta ``dA_i = P_i @ Q_i'`` of ``E_i`` under *all*
updates accumulated so far, materializes ``P_i``/``Q_i`` as named
temporaries (``U_Ai`` / ``V_Ai``), registers ``dA_i`` in ``D`` expressed
over those temporaries (so downstream deltas stay compact), and emits
the ``A_i += U_Ai @ V_Ai'`` update.

Statements whose delta is zero produce no trigger statements at all —
views unaffected by ``X`` are never touched.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..delta.derivation import compute_delta
from ..delta.factored import FactoredDelta
from ..expr.ast import Expr, Inverse, MatrixSymbol, matmul, transpose
from ..expr.shapes import DimLike
from .program import Program
from .trigger import Assign, Trigger, Update


def compile_program(
    program: Program,
    dynamic_inputs: Sequence[str] | None = None,
    rank: DimLike = 1,
    optimize: bool = False,
) -> dict[str, Trigger]:
    """Compile ``program`` into triggers, one per dynamic input.

    ``dynamic_inputs`` restricts which inputs may change (defaults to
    all of them); ``rank`` is the width of the incoming update factors
    (1 for the paper's rank-1 row/column updates; a symbolic dimension
    or a larger int for batched rank-k updates); ``optimize`` runs the
    Section 6 pipeline (:func:`~repro.compiler.optimizer.optimize_trigger`)
    over each trigger.

    Returns a mapping ``input name -> Trigger``.
    """
    names = list(dynamic_inputs) if dynamic_inputs is not None else list(
        program.input_names
    )
    for name in names:
        program.input(name)  # raises KeyError for unknown inputs
    triggers = {name: _compile_for_input(program, name, rank)
                for name in names}
    if optimize:
        from .optimizer import optimize_trigger

        triggers = {name: optimize_trigger(trigger)
                    for name, trigger in triggers.items()}
    return triggers


def _compile_for_input(program: Program, input_name: str, rank: DimLike) -> Trigger:
    x = program.input(input_name)
    u = MatrixSymbol(f"u_{input_name}", x.shape.rows, rank)
    v = MatrixSymbol(f"v_{input_name}", x.shape.cols, rank)

    deltas: dict[str, FactoredDelta] = {input_name: FactoredDelta.rank_one(u, v)}
    assigns: list[Assign] = []
    updates: list[Update] = [Update(x, matmul(u, transpose(v)))]

    for stmt in program.statements:
        refs = _inverse_refs(stmt.expr, stmt.target)
        delta = compute_delta(stmt.expr, deltas, inverse_refs=refs)
        if delta.is_zero:
            continue
        u_sym = MatrixSymbol(f"U_{stmt.target.name}", stmt.target.shape.rows, delta.width)
        v_sym = MatrixSymbol(f"V_{stmt.target.name}", stmt.target.shape.cols, delta.width)
        assigns.append(Assign(u_sym, delta.u_expr))
        assigns.append(Assign(v_sym, delta.v_expr))
        deltas[stmt.target.name] = FactoredDelta.rank_one(u_sym, v_sym)
        updates.append(Update(stmt.target, matmul(u_sym, transpose(v_sym))))

    return Trigger(input_name, (u, v), assigns, updates)


def _inverse_refs(expr: Expr, target: MatrixSymbol) -> Mapping[Expr, Expr]:
    """Old-inverse references for the Woodbury delta rule.

    When a statement's whole right-hand side is ``inv(Z)``, the view
    being maintained *is* the old inverse, so the rule may reference it
    by name (the ``W`` of Example 4.3) instead of re-inverting ``Z``.
    """
    if isinstance(expr, Inverse):
        return {expr: target}
    return {}
