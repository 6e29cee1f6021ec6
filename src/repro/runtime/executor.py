"""Numeric evaluation of expression trees over execution backends.

This is the single-node evaluator of the reproduction (the paper's
Octave role).  :func:`evaluate` walks an expression bottom-up, binding
:class:`~repro.expr.ast.MatrixSymbol` leaves from an environment of
``name -> matrix``.  All kernels dispatch through a
:class:`~repro.backends.base.Backend` (dense NumPy by default; pass
``backend="sparse"`` to execute large low-density operands as SciPy
CSR); a backend wrapped by :func:`~repro.cost.counters.counted` charges
its counter what the chosen representation actually performs.

Matrix products are evaluated **in the expression's association order**:
the factored-delta machinery encodes the cheap evaluation order
structurally (e.g. ``A * (u * (v' * u))`` groups to matrix-vector work),
and the executor must respect it for the paper's cost claims to show up
in the counters.  N-ary products fold left-to-right.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..backends import get_backend
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
from ..expr.shapes import DimLike, DimSum, NamedDim


class EvaluationError(RuntimeError):
    """Raised when an expression cannot be evaluated against an environment."""


def resolve_dim(dim: DimLike, dims: Mapping[str, int]) -> int:
    """Resolve a possibly-symbolic dimension to a concrete int."""
    if isinstance(dim, bool):
        raise EvaluationError("bool is not a dimension")
    if isinstance(dim, int):
        return dim
    if isinstance(dim, NamedDim):
        try:
            return dims[dim.name]
        except KeyError:
            raise EvaluationError(f"unbound dimension {dim.name!r}") from None
    if isinstance(dim, DimSum):
        return sum(resolve_dim(a, dims) for a in dim.atoms) + dim.const
    raise EvaluationError(f"cannot resolve dimension {dim!r}")


def infer_dims(program, inputs) -> dict[str, int]:
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


def _eval(node: Expr, env, dims, be):
    """Evaluate one node through the type-keyed handler table."""
    try:
        handler = _HANDLERS[type(node)]
    except KeyError:
        handler = _inherited_handler(type(node))
    return handler(node, env, dims, be)


def _inherited_handler(cls):
    """Handler of the nearest known base of ``cls`` (found once, cached):
    a subclass of a node type evaluates like the type it extends."""
    for base in cls.__mro__[1:]:
        if base in _HANDLERS:
            handler = _HANDLERS[cls] = _HANDLERS[base]
            return handler
    raise EvaluationError(f"cannot evaluate node type {cls.__name__}")


def _eval_symbol(node, env, dims, be):
    try:
        value = env[node.name]
    except KeyError:
        raise EvaluationError(f"unbound matrix {node.name!r}") from None
    if be.is_native(value):
        # Already in a form the backend executes — return it as-is
        # regardless of concrete type.  Re-normalizing a native float64
        # ndarray through ``asarray`` would scan (and, under the sparse
        # backend's representation policy, copy/convert) the full
        # matrix on *every leaf evaluation*; other dtypes still
        # normalize below.
        if not isinstance(value, np.ndarray):
            return value
        if value.dtype == np.float64:
            return value
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise EvaluationError(
            f"matrix {node.name!r} must be 2-D, got ndim={arr.ndim}"
        )
    return be.asarray(arr)


def _eval_identity(node, env, dims, be):
    return be.eye(resolve_dim(node.shape.rows, dims))


def _eval_zero(node, env, dims, be):
    rows = resolve_dim(node.shape.rows, dims)
    cols = resolve_dim(node.shape.cols, dims)
    return be.zeros(rows, cols)


def _eval_add(node, env, dims, be):
    children = node.children
    total = _eval(children[0], env, dims, be)
    for child in children[1:]:
        value = _eval(child, env, dims, be)
        total = be.add_into(total, value)
    return total


def _eval_matmul(node, env, dims, be):
    children = node.children
    result = _eval(children[0], env, dims, be)
    for child in children[1:]:
        value = _eval(child, env, dims, be)
        n, m = be.shape(result)
        m2, p = be.shape(value)
        if m != m2:
            raise EvaluationError(
                f"runtime shape mismatch in product: {(n, m)} @ {(m2, p)}"
            )
        result = be.matmul_into(result, value)
    return result


def _eval_scalar_mul(node, env, dims, be):
    value = _eval(node.child, env, dims, be)
    return be.scale_into(node.coeff, value)


def _eval_transpose(node, env, dims, be):
    value = _eval(node.child, env, dims, be)
    return be.transpose(value)


def _eval_inverse(node, env, dims, be):
    value = _eval(node.child, env, dims, be)
    try:
        return be.inv(value)
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular matrix in inverse: {exc}") from exc


def _eval_hstack(node, env, dims, be):
    return be.hstack_into(
        [_eval(block, env, dims, be) for block in node.children])


def _eval_vstack(node, env, dims, be):
    return be.vstack_into(
        [_eval(block, env, dims, be) for block in node.children])


#: Node type -> handler.  Module-level functions, not a closure built
#: per call: a self-recursive closure is a reference cycle that keeps
#: its ``env`` (every view array) alive until the cyclic collector runs.
_HANDLERS = {
    MatrixSymbol: _eval_symbol,
    Identity: _eval_identity,
    ZeroMatrix: _eval_zero,
    Add: _eval_add,
    MatMul: _eval_matmul,
    ScalarMul: _eval_scalar_mul,
    Transpose: _eval_transpose,
    Inverse: _eval_inverse,
    HStack: _eval_hstack,
    VStack: _eval_vstack,
}


def evaluate(
    expr: Expr,
    env: Mapping[str, np.ndarray],
    dims: Mapping[str, int] | None = None,
    backend=None,
) -> np.ndarray:
    """Evaluate ``expr`` over ``env``.

    ``dims`` binds symbolic dimension names (needed only when the
    expression contains ``eye``/``zeros`` leaves with symbolic sizes).
    ``backend`` picks the execution backend (name, instance, or ``None``
    for dense).  Returns a 2-D matrix in the backend's representation
    (a float64 ``ndarray`` under the default dense backend); inputs are
    used as-is (never mutated), and a bare or transposed reference
    returns the environment's own array (or a view of it).
    """
    return _eval(expr, env, dims or {}, get_backend(backend))
