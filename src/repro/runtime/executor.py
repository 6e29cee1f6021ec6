"""Evaluation of expressions over execution backends: one executor.

Every kind of work — an INCR trigger, a REEVAL update, an initial
build, a rebuild, a revalidation, a catalog read, one expression — runs
a lowered kernel list (:mod:`repro.compiler.codegen.fused`) through the
same loop or its printed form; there is no second walk of the
expression tree.  :func:`evaluate` lowers one expression into the
evaluation-list form and runs it with allocating destinations, binding
:class:`~repro.expr.ast.MatrixSymbol` leaves from an environment of
``name -> matrix``.  All kernels dispatch through a
:class:`~repro.backends.base.Backend` (dense NumPy by default; pass
``backend="sparse"`` to execute large low-density operands as SciPy
CSR); a backend wrapped by :func:`~repro.cost.counters.counted` charges
its counter what the chosen representation actually performs.

Matrix products are evaluated **in the expression's association order**:
the factored-delta machinery encodes the cheap evaluation order
structurally (e.g. ``A * (u * (v' * u))`` groups to matrix-vector work),
and the lowering keeps it, so the paper's cost claims show up in the
counters.  N-ary products fold left-to-right.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ..backends import get_backend
from ..expr.ast import Expr
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


def run_list(lowered, scope: dict, dims: Mapping[str, int], backend,
             kernels: Mapping | None = None, buffers: Mapping = {}) -> dict:
    """Run a lowered list once over ``scope`` with allocating
    destinations: its loads are read from ``scope`` and its applies
    write there; ``kernels`` replaces entries of the kernel table and
    ``buffers`` binds buffers to given arrays.  Returns ``scope``."""
    from ..compiler.codegen.fused import _bind, _loop

    be, values = _bind(lowered, dims, backend, None, lease=False)
    _loop(lowered, be, {**values, **buffers}, dims, kernels)(scope)
    return scope


def _native(be, name: str, value):
    """``value`` in a form ``be`` executes; a native float64 leaf as is.

    Re-normalizing a native float64 ndarray through ``asarray`` would
    scan (and, under the sparse backend's representation policy,
    copy/convert) the full matrix on every evaluation; other dtypes
    still normalize.
    """
    if be.is_native(value) and (not isinstance(value, np.ndarray)
                                or value.dtype == np.float64):
        return value
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 2:
        raise EvaluationError(
            f"matrix {name!r} must be 2-D, got ndim={arr.ndim}")
    return be.asarray(arr)


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
    returns the environment's own array (or a view of it).  An unbound
    matrix or dimension, a leaf that is not 2-D, a product of
    mismatched operands and a singular inverse raise
    :class:`EvaluationError`.
    """
    from ..compiler.codegen.fused import lower_evaluation

    be = get_backend(backend)
    lowered = lower_evaluation([("_value", expr)])
    scope = {}
    for name in lowered.views:
        if name not in env:
            raise EvaluationError(f"unbound matrix {name!r}")
        scope[name] = _native(be, name, env[name])

    def matmul(a, b, out=None):
        if be.shape(a)[1] != be.shape(b)[0]:
            raise EvaluationError(
                f"runtime shape mismatch in product: "
                f"{be.shape(a)} @ {be.shape(b)}")
        return be.matmul_into(a, b, out)

    try:
        run_list(lowered, scope, dims or {}, be, {"matmul": matmul})
    except np.linalg.LinAlgError as exc:
        raise EvaluationError(f"singular matrix in inverse: {exc}") from exc
    return scope["_value"]
