r"""LaTeX rendering of expressions, deltas, and triggers.

The paper presents every derived trigger in display math (Examples 4.2
to 4.6); this emitter produces that form from the live objects, so
derivations can be dropped into papers or notebooks directly::

    >>> from repro.expr import MatrixSymbol
    >>> A = MatrixSymbol("A", 4, 4)
    >>> to_latex(A @ A.T.inv)
    'A \\, (A^{\\top})^{-1}'

Naming conventions mirror the paper: ``u_A``-style identifiers become
subscripted (``u_{A}``), transpose is ``^{\top}``, inverse ``^{-1}``,
block stacks render as bmatrix rows/columns.
"""

from __future__ import annotations

from .ast import (
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
from .shapes import DimLike, DimSum, NamedDim

_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POSTFIX = 3


def _dim(dim: DimLike) -> str:
    if isinstance(dim, int):
        return str(dim)
    if isinstance(dim, NamedDim):
        return dim.name
    if isinstance(dim, DimSum):
        parts = [a.name for a in dim.atoms]
        if dim.const:
            parts.append(str(dim.const))
        return " + ".join(parts)
    raise TypeError(f"cannot render dimension {dim!r}")


def _symbol(name: str) -> str:
    base, _, subscript = name.partition("_")
    if subscript:
        return f"{base}_{{{subscript}}}"
    return name


def to_latex(expr: Expr) -> str:
    """LaTeX source for an expression (display-math body, no ``$``)."""
    text, _ = _emit(expr)
    return text


def _paren(text: str, prec: int, parent: int) -> str:
    return f"({text})" if prec < parent else text


def _emit(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, MatrixSymbol):
        return _symbol(expr.name), _PREC_POSTFIX
    if isinstance(expr, Identity):
        return f"I_{{{_dim(expr.shape.rows)}}}", _PREC_POSTFIX
    if isinstance(expr, ZeroMatrix):
        return (f"0_{{{_dim(expr.shape.rows)} \\times "
                f"{_dim(expr.shape.cols)}}}"), _PREC_POSTFIX
    if isinstance(expr, Add):
        parts = []
        for i, term in enumerate(expr.children):
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                inner, prec = _emit(term.child)
                parts.append(f" - {_paren(inner, prec, _PREC_ADD + 1)}")
            else:
                inner, prec = _emit(term)
                rendered = _paren(inner, prec, _PREC_ADD)
                parts.append(rendered if i == 0 else f" + {rendered}")
        return "".join(parts), _PREC_ADD
    if isinstance(expr, MatMul):
        rendered = []
        for position, factor in enumerate(expr.children):
            inner, prec = _emit(factor)
            parent = _PREC_MUL if position == 0 else _PREC_MUL + 1
            rendered.append(_paren(inner, prec, parent))
        return " \\, ".join(rendered), _PREC_MUL
    if isinstance(expr, ScalarMul):
        inner, prec = _emit(expr.child)
        body = _paren(inner, prec, _PREC_MUL + 1)
        if expr.coeff == -1.0:
            return f"-{body}", _PREC_MUL
        coeff = f"{expr.coeff:g}"
        return f"{coeff} \\, {body}", _PREC_MUL
    if isinstance(expr, Transpose):
        inner, prec = _emit(expr.child)
        if prec < _PREC_POSTFIX:
            inner = f"({inner})"
        return f"{inner}^{{\\top}}", _PREC_POSTFIX
    if isinstance(expr, Inverse):
        inner, prec = _emit(expr.child)
        if prec < _PREC_POSTFIX:
            inner = f"({inner})"
        return f"{inner}^{{-1}}", _PREC_POSTFIX
    if isinstance(expr, HStack):
        body = " & ".join(to_latex(b) for b in expr.children)
        return f"\\begin{{bmatrix}} {body} \\end{{bmatrix}}", _PREC_POSTFIX
    if isinstance(expr, VStack):
        body = " \\\\ ".join(to_latex(b) for b in expr.children)
        return f"\\begin{{bmatrix}} {body} \\end{{bmatrix}}", _PREC_POSTFIX
    raise TypeError(f"cannot render node of type {type(expr).__name__}")


def trigger_to_latex(trigger) -> str:
    r"""An ``align*`` block for a whole trigger (the Example 4.6 layout).

    Assignments render with ``:=``, updates with ``\mathrel{+}=``, one
    statement per line.
    """
    lines = []
    for assign in trigger.assigns:
        lines.append(
            f"{_symbol(assign.target.name)} &:= {to_latex(assign.expr)} \\\\"
        )
    for update in trigger.updates:
        lines.append(
            f"{_symbol(update.view.name)} &\\mathrel{{+}}= "
            f"{to_latex(update.expr)} \\\\"
        )
    body = "\n".join(lines)
    return f"\\begin{{align*}}\n{body}\n\\end{{align*}}"


__all__ = ["to_latex", "trigger_to_latex"]
