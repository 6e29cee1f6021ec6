"""Delta derivation: the ``ComputeDelta`` of Algorithm 1.

:func:`compute_delta` walks an expression and combines the per-operator
rules of :mod:`repro.delta.rules` into the factored delta of the whole
expression, given factored deltas for any subset of the matrices it
references.  The rules are total-delta rules, so simultaneous updates to
several matrices (the situation Algorithm 1 creates as deltas cascade
through statements) need no special casing; the paper's sequential
formulation (Section 4.4) is a test oracle, checked equivalent in
``tests/test_delta_multi.py``.
"""

from __future__ import annotations

from typing import Mapping

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
    matmul,
)
from .factored import FactoredDelta
from .rules import delta_inverse, delta_product, delta_scalar_mul, delta_transpose


class UnsupportedDeltaError(NotImplementedError):
    """Raised for nodes with no delta rule (block stacks in user programs)."""


def compute_delta(
    expr: Expr,
    deltas: Mapping[str, FactoredDelta],
    inverse_refs: Mapping[Expr, Expr] | None = None,
) -> FactoredDelta:
    """Factored delta of ``expr`` under updates to the named matrices.

    ``deltas`` maps matrix names to their factored updates; matrices not
    in the map are unchanged (their delta is zero, per the last rule of
    Section 4.1).  ``inverse_refs`` optionally maps an ``Inverse`` node
    to an expression for its *old materialized value* — Algorithm 1 uses
    this so the Sherman–Morrison/Woodbury rule can reference the view
    being maintained (``W`` in Example 4.3) instead of re-inverting.

    All expressions inside the returned delta refer to **old** values of
    every matrix; triggers must evaluate deltas before applying updates.
    """
    inverse_refs = inverse_refs or {}

    def rec(node: Expr) -> FactoredDelta:
        if isinstance(node, MatrixSymbol):
            d = deltas.get(node.name)
            return d if d is not None else FactoredDelta.zero(node.shape)
        if isinstance(node, (Identity, ZeroMatrix)):
            return FactoredDelta.zero(node.shape)
        if isinstance(node, Add):
            total = FactoredDelta.zero(node.shape)
            for child in node.children:
                total = total.plus(rec(child))
            return total
        if isinstance(node, ScalarMul):
            return delta_scalar_mul(node.coeff, rec(node.child))
        if isinstance(node, Transpose):
            return delta_transpose(rec(node.child))
        if isinstance(node, MatMul):
            # Fold the n-ary chain pairwise, left to right.
            acc_expr: Expr = node.children[0]
            acc_delta = rec(acc_expr)
            for child in node.children[1:]:
                acc_delta = delta_product(acc_expr, child, acc_delta, rec(child))
                acc_expr = matmul(acc_expr, child)
            return acc_delta
        if isinstance(node, Inverse):
            child_delta = rec(node.child)
            return delta_inverse(node.child, child_delta, inverse_refs.get(node))
        if isinstance(node, (HStack, VStack)):
            raise UnsupportedDeltaError(
                "deltas of block-stack expressions are not defined; stacks only "
                "appear inside trigger programs, which are not re-differentiated"
            )
        raise UnsupportedDeltaError(f"no delta rule for {type(node).__name__}")

    return rec(expr)
