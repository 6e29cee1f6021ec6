"""Python code generation for trigger programs.

:func:`generate_python_trigger` renders a trigger as the source of a
plain Python function; :func:`compile_trigger_function` ``exec``-utes it
and hands back the callable.  The generated function updates a ``views``
dict, evaluating every delta *before* any update is applied, so all
delta expressions see old values — the same contract the interpreter
upholds.

Two emission styles share the renderer:

* the classic NumPy style (``A @ B + C``, the default for standalone
  ``generate_python_trigger`` calls) — idiomatic source for humans and
  the ``repro compile`` CLI; it rebinds ``views[name]`` to new arrays
  and never writes into the ones it was given;
* the backend-dispatched style (``be.add(be.matmul(A, B), C)``), used
  whenever a :class:`~repro.backends.base.Backend` is supplied, so
  codegen-mode sessions execute through pluggable kernels (sparse CSR,
  and eventually GPU) instead of hard-coded ``np.`` ops.  Its update
  statements accumulate **into** the arrays in ``views``
  (``add_outer_inplace`` / ``add_into``): the dict must hold storage
  the caller owns, which a session's
  :class:`~repro.runtime.views.ViewStore` guarantees.

Generated signature::

    def on_update_A(views, u_A, v_A, dims=None): ...
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

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
_PREC_ATOM = 3


def _emit_dim(dim: DimLike) -> str:
    if isinstance(dim, int):
        return str(dim)
    if isinstance(dim, NamedDim):
        return f"dims[{dim.name!r}]"
    if isinstance(dim, DimSum):
        parts = [f"dims[{a.name!r}]" for a in dim.atoms]
        if dim.const:
            parts.append(str(dim.const))
        return " + ".join(parts)
    raise TypeError(f"cannot emit dimension {dim!r}")


def emit_expr(expr: Expr) -> str:
    """NumPy source text for an expression (respects association order)."""
    text, _ = _emit(expr)
    return text


def _paren(text: str, prec: int, parent: int) -> str:
    return f"({text})" if prec < parent else text


def _emit(expr: Expr) -> tuple[str, int]:
    if isinstance(expr, MatrixSymbol):
        return expr.name, _PREC_ATOM
    if isinstance(expr, Identity):
        return f"np.eye({_emit_dim(expr.shape.rows)})", _PREC_ATOM
    if isinstance(expr, ZeroMatrix):
        rows, cols = _emit_dim(expr.shape.rows), _emit_dim(expr.shape.cols)
        return f"np.zeros(({rows}, {cols}))", _PREC_ATOM
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
            # Leading factor may chain without parens (left-association);
            # right-nested groups keep theirs to preserve evaluation order.
            parent = _PREC_MUL if position == 0 else _PREC_MUL + 1
            rendered.append(_paren(inner, prec, parent))
        return " @ ".join(rendered), _PREC_MUL
    if isinstance(expr, ScalarMul):
        inner, prec = _emit(expr.child)
        body = _paren(inner, prec, _PREC_MUL + 1)
        if expr.coeff == -1.0:
            return f"-{body}", _PREC_MUL
        return f"{expr.coeff!r} * {body}", _PREC_MUL
    if isinstance(expr, Transpose):
        inner, prec = _emit(expr.child)
        return f"{_paren(inner, prec, _PREC_ATOM)}.T", _PREC_ATOM
    if isinstance(expr, Inverse):
        inner, _ = _emit(expr.child)
        return f"np.linalg.inv({inner})", _PREC_ATOM
    if isinstance(expr, HStack):
        blocks = ", ".join(emit_expr(b) for b in expr.children)
        return f"np.hstack([{blocks}])", _PREC_ATOM
    if isinstance(expr, VStack):
        blocks = ", ".join(emit_expr(b) for b in expr.children)
        return f"np.vstack([{blocks}])", _PREC_ATOM
    raise TypeError(f"cannot emit node {type(expr).__name__}")


def emit_dispatch_expr(expr: Expr) -> str:
    """Backend-dispatched source text: every op is a ``be.*`` call.

    Association order is preserved structurally — nested calls evaluate
    exactly the grouping the optimizer chose, so the factored-delta cost
    claims hold under any backend.
    """
    if isinstance(expr, MatrixSymbol):
        return expr.name
    if isinstance(expr, Identity):
        return f"be.eye({_emit_dim(expr.shape.rows)})"
    if isinstance(expr, ZeroMatrix):
        rows, cols = _emit_dim(expr.shape.rows), _emit_dim(expr.shape.cols)
        return f"be.zeros({rows}, {cols})"
    if isinstance(expr, Add):
        total = emit_dispatch_expr(expr.children[0])
        for term in expr.children[1:]:
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                total = f"be.sub({total}, {emit_dispatch_expr(term.child)})"
            else:
                total = f"be.add({total}, {emit_dispatch_expr(term)})"
        return total
    if isinstance(expr, MatMul):
        result = emit_dispatch_expr(expr.children[0])
        for factor in expr.children[1:]:
            result = f"be.matmul({result}, {emit_dispatch_expr(factor)})"
        return result
    if isinstance(expr, ScalarMul):
        return f"be.scale({expr.coeff!r}, {emit_dispatch_expr(expr.child)})"
    if isinstance(expr, Transpose):
        return f"be.transpose({emit_dispatch_expr(expr.child)})"
    if isinstance(expr, Inverse):
        return f"be.inv({emit_dispatch_expr(expr.child)})"
    if isinstance(expr, HStack):
        blocks = ", ".join(emit_dispatch_expr(b) for b in expr.children)
        return f"be.hstack([{blocks}])"
    if isinstance(expr, VStack):
        blocks = ", ".join(emit_dispatch_expr(b) for b in expr.children)
        return f"be.vstack([{blocks}])"
    raise TypeError(f"cannot emit node {type(expr).__name__}")


def outer_operands(expr: Expr) -> "tuple[str, str] | None":
    """Match the canonical factored-delta shape ``U @ V'``.

    Returns the ``(U, V)`` symbol names when ``expr`` is exactly a
    two-factor product of a symbol with a transposed symbol (the form
    Algorithm 1 emits for every update statement), else ``None``.
    Callers use the match to apply updates through the backend's
    ``add_outer`` kernel instead of materializing the delta densely.
    """
    if (
        isinstance(expr, MatMul)
        and len(expr.children) == 2
        and isinstance(expr.children[0], MatrixSymbol)
        and isinstance(expr.children[1], Transpose)
        and isinstance(expr.children[1].child, MatrixSymbol)
    ):
        return expr.children[0].name, expr.children[1].child.name
    return None


def _referenced_views(trigger: Trigger) -> list[str]:
    """View names referenced by the trigger, excluding params and temps."""
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


def generate_python_trigger(
    trigger: Trigger,
    function_name: str | None = None,
    dispatch: bool = False,
) -> str:
    """Render a trigger as Python function source text.

    ``dispatch=True`` emits backend-dispatched ``be.*`` calls instead of
    NumPy operators; the compiled function then expects a backend bound
    to the global ``be``.
    """
    name = function_name or f"on_update_{trigger.input_name}"
    params = ", ".join(p.name for p in trigger.params)
    views = _referenced_views(trigger)
    emit = emit_dispatch_expr if dispatch else emit_expr
    lines = [
        f"def {name}(views, {params}, dims=None):",
        f'    """Maintain views for a factored update to {trigger.input_name}."""',
        "    dims = dims or {}",
    ]
    for view in views:
        lines.append(f"    {view} = views[{view!r}]")
    for assign in trigger.assigns:
        lines.append(f"    {assign.target.name} = {emit(assign.expr)}")
    if not dispatch:
        for update in trigger.updates:
            target = update.view.name
            lines.append(
                f"    views[{target!r}] = {target} + {emit(update.expr)}"
            )
        return "\n".join(lines) + "\n"
    # Backend-dispatched updates accumulate into the stored arrays in
    # place, so every delta that is not already a pair of factor locals
    # is evaluated before the first view is written
    # (evaluate-all-then-apply-all: deltas read only old values).
    applies = []
    for index, update in enumerate(trigger.updates):
        target = update.view.name
        operands = outer_operands(update.expr)
        if operands is not None:
            # Factored application: no dense delta is ever materialized.
            u_name, v_name = operands
            applies.append(
                f"    views[{target!r}] = "
                f"be.add_outer_inplace({target}, {u_name}, {v_name})"
            )
        else:
            lines.append(f"    _d{index} = {emit(update.expr)}")
            applies.append(
                f"    views[{target!r}] = "
                f"be.add_into({target}, _d{index}, {target})"
            )
    return "\n".join(lines + applies) + "\n"


def compile_trigger_function(
    trigger: Trigger,
    extra_globals: Mapping[str, object] | None = None,
    backend=None,
) -> Callable:
    """Generate, ``exec`` and return the trigger as a Python callable.

    With ``backend`` set (a name or instance), the generated source
    dispatches every operation through that backend — the paper's
    generated-code path running on pluggable kernels.
    """
    dispatch = backend is not None
    source = generate_python_trigger(trigger, dispatch=dispatch)
    namespace: dict[str, object] = {"np": np}
    if dispatch:
        from ...backends import get_backend

        namespace["be"] = get_backend(backend)
    if extra_globals:
        namespace.update(extra_globals)
    exec(compile(source, f"<trigger:{trigger.input_name}>", "exec"), namespace)
    fn = namespace[f"on_update_{trigger.input_name}"]
    fn.__source__ = source  # type: ignore[attr-defined]
    return fn
