"""Spark (Scala) code generation for trigger programs.

The paper's distributed backend generates "parallel Spark programs
running over a large cluster" (Sections 6 and 7).  This generator emits
the Scala source a Spark deployment would compile: each trigger becomes
a method over Spark MLlib ``BlockMatrix`` views with the Section 6
execution annotations —

* low-rank factors (the trigger parameters and the ``U``/``V`` blocks)
  are **broadcast** to all workers, never shuffled;
* large views stay partitioned on the cluster grid, and products
  against broadcast factors are marked local (no shuffle);
* view updates (``+=``) are in-place block updates.

Like the Octave backend, the emitted text is snapshot-tested rather
than executed — the row-shard engine (:mod:`repro.distributed`) runs
the same triggers' lowered lists in this reproduction; see
docs/architecture.md ("Distributed execution").
"""

from __future__ import annotations

from ...expr.ast import (
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
from ...expr.shapes import DimLike, DimSum, NamedDim
from ..trigger import Trigger
from .octave_gen import _referenced_views


def _emit_dim(dim: DimLike) -> str:
    if isinstance(dim, int):
        return str(dim)
    if isinstance(dim, NamedDim):
        return dim.name
    if isinstance(dim, DimSum):
        parts = [a.name for a in dim.atoms]
        if dim.const:
            parts.append(str(dim.const))
        return " + ".join(parts)
    raise TypeError(f"cannot emit dimension {dim!r}")


def emit_spark(expr: Expr) -> str:
    """Scala/Spark source text for an expression (method-call style).

    The matrix algebra maps onto a ``BlockMatrix``-like API:
    ``multiply``, ``add``, ``subtract``, ``scale``, ``transpose``,
    ``inverse``, ``hstack``/``vstack``.  Method chaining encodes the
    association of the tree, so the factored evaluation order survives
    code generation verbatim.
    """
    if isinstance(expr, MatrixSymbol):
        return expr.name
    if isinstance(expr, Identity):
        return f"BlockMatrix.eye({_emit_dim(expr.shape.rows)})"
    if isinstance(expr, ZeroMatrix):
        rows, cols = _emit_dim(expr.shape.rows), _emit_dim(expr.shape.cols)
        return f"BlockMatrix.zeros({rows}, {cols})"
    if isinstance(expr, Add):
        first, *rest = expr.children
        text = emit_spark(first)
        for term in rest:
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                text = f"{text}.subtract({emit_spark(term.child)})"
            else:
                text = f"{text}.add({emit_spark(term)})"
        return text
    if isinstance(expr, MatMul):
        text = emit_spark(expr.children[0])
        for factor in expr.children[1:]:
            text = f"{text}.multiply({emit_spark(factor)})"
        return text
    if isinstance(expr, ScalarMul):
        return f"{emit_spark(expr.child)}.scale({expr.coeff:g})"
    if isinstance(expr, Transpose):
        return f"{emit_spark(expr.child)}.transpose"
    if isinstance(expr, Inverse):
        return f"{emit_spark(expr.child)}.inverse"
    if isinstance(expr, HStack):
        blocks = ", ".join(emit_spark(b) for b in expr.children)
        return f"BlockMatrix.hstack({blocks})"
    if isinstance(expr, VStack):
        blocks = ", ".join(emit_spark(b) for b in expr.children)
        return f"BlockMatrix.vstack({blocks})"
    raise TypeError(f"cannot emit node of type {type(expr).__name__}")


def generate_spark_trigger(trigger: Trigger, method_name: str | None = None) -> str:
    """Render a trigger as a Scala method over partitioned views.

    Trigger parameters and derived delta factors are local
    (driver-side) matrices broadcast to the workers; the partitioned
    views are fields of the enclosing class.  Update statements apply
    low-rank corrections block-locally (Section 6's hybrid partitioning
    makes both ``A * dA`` and ``dA * A`` orientations shuffle-free).
    """
    name = method_name or f"onUpdate{trigger.input_name}"
    params = ", ".join(f"{p.name}: LocalMatrix" for p in trigger.params)
    views = _referenced_views(trigger)
    lines = [
        f"def {name}({params}): Unit = {{",
        f"  // Maintain views {{{', '.join(views)}}} for a factored "
        f"update to {trigger.input_name}.",
    ]
    for p in trigger.params:
        lines.append(f"  val bc_{p.name} = sc.broadcast({p.name})")
    for assign in trigger.assigns:
        lines.append(
            f"  val {assign.target.name} = {emit_spark(assign.expr)}"
            "  // broadcast factor, no shuffle"
        )
        lines.append(f"  val bc_{assign.target.name} = "
                     f"sc.broadcast({assign.target.name})")
    for update in trigger.updates:
        lines.append(
            f"  {update.view.name}.blockwiseAdd({emit_spark(update.expr)})"
            "  // local per-block update"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


__all__ = ["emit_spark", "generate_spark_trigger"]
