"""Octave/MATLAB code generation for trigger programs.

The paper's single-node backend emits Octave programs; this generator
produces the same trigger text (Example 4.6's shape) so the compiler
remains demonstrably multi-backend.  The output is plain ``.m`` source —
we do not execute Octave in this reproduction (the NumPy backend plays
that role; see docs/architecture.md), but the text is snapshot-tested against the
paper's published trigger.
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
from ...expr.visitors import walk
from ..trigger import Trigger

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POSTFIX = 3
_PREC_ATOM = 4


def _referenced_views(trigger: Trigger) -> list[str]:
    """View names referenced by the trigger, excluding params and temps
    (the order the Octave and Spark printers load them in)."""
    local = {p.name for p in trigger.params} | set(trigger.temp_names)
    names: list[str] = []
    seen: set[str] = set()
    exprs = [a.expr for a in trigger.assigns] + [u.expr for u in trigger.updates]
    for view in trigger.updated_views:
        if view not in seen:
            seen.add(view)
            names.append(view)
    for expr in exprs:
        for node in walk(expr):
            if (
                isinstance(node, MatrixSymbol)
                and node.name not in local
                and node.name not in seen
            ):
                seen.add(node.name)
                names.append(node.name)
    return names


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


def _paren(text: str, prec: int, parent: int) -> str:
    return f"({text})" if prec < parent else text


def emit_octave(expr: Expr) -> str:
    """Octave source text for an expression."""
    text, _ = _emit(expr)
    return text


def _emit(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, MatrixSymbol):
        return expr.name, _PREC_ATOM
    if isinstance(expr, Identity):
        return f"eye({_emit_dim(expr.shape.rows)})", _PREC_ATOM
    if isinstance(expr, ZeroMatrix):
        rows, cols = _emit_dim(expr.shape.rows), _emit_dim(expr.shape.cols)
        return f"zeros({rows}, {cols})", _PREC_ATOM
    if isinstance(expr, Add):
        parts = []
        for i, term in enumerate(expr.children):
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                inner, prec = _emit(term.child)
                parts.append(f" - {_paren(inner, prec, _PREC_ADD + 1)}")
            else:
                inner, prec = _emit(term)
                joined = _paren(inner, prec, _PREC_ADD)
                parts.append(joined if i == 0 else f" + {joined}")
        return "".join(parts), _PREC_ADD
    if isinstance(expr, MatMul):
        rendered = []
        for position, factor in enumerate(expr.children):
            inner, prec = _emit(factor)
            parent = _PREC_MUL if position == 0 else _PREC_MUL + 1
            rendered.append(_paren(inner, prec, parent))
        return "*".join(rendered), _PREC_MUL
    if isinstance(expr, ScalarMul):
        inner, prec = _emit(expr.child)
        body = _paren(inner, prec, _PREC_MUL + 1)
        if expr.coeff == -1.0:
            return f"-{body}", _PREC_MUL
        return f"{expr.coeff:g}*{body}", _PREC_MUL
    if isinstance(expr, Transpose):
        inner, prec = _emit(expr.child)
        return f"{_paren(inner, prec, _PREC_POSTFIX)}'", _PREC_POSTFIX
    if isinstance(expr, Inverse):
        inner, _ = _emit(expr.child)
        return f"inv({inner})", _PREC_ATOM
    if isinstance(expr, HStack):
        return "[" + ", ".join(emit_octave(b) for b in expr.children) + "]", _PREC_ATOM
    if isinstance(expr, VStack):
        return "[" + "; ".join(emit_octave(b) for b in expr.children) + "]", _PREC_ATOM
    raise TypeError(f"cannot emit node {type(expr).__name__}")


def generate_octave_trigger(trigger: Trigger, function_name: str | None = None) -> str:
    """Render a trigger as an Octave function (``.m`` source text)."""
    name = function_name or f"on_update_{trigger.input_name}"
    params = ", ".join(p.name for p in trigger.params)
    views = _referenced_views(trigger)
    lines = [
        f"function {name}({params})",
        f"  % Maintain views for a factored update to {trigger.input_name}",
        f"  global {' '.join(views)};",
    ]
    for assign in trigger.assigns:
        lines.append(f"  {assign.target.name} = {emit_octave(assign.expr)};")
    for update in trigger.updates:
        lines.append(f"  {update.view.name} += {emit_octave(update.expr)};")
    lines.append("end")
    return "\n".join(lines) + "\n"
