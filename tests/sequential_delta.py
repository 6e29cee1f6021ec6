"""The paper's sequential multi-update rule (Section 4.4), as a test oracle.

    delta_D(E) := delta_A(E) + delta_{D \\ {A}}(E + delta_A(E))

— one affected matrix is absorbed at a time, the expression is rewritten
with the applied update, and the remaining updates are processed against
the rewritten expression.  The paper notes the order is irrelevant;
``test_delta_multi.py`` verifies both that claim and equivalence with
the simultaneous rule used by :func:`repro.delta.derivation.compute_delta`
(Example 4.5 is the canonical instance), and ``test_sympy_crosscheck.py``
checks both symbolically.

This formulation assumes delta factors are *constant* (independent of
the matrices being updated), exactly as Section 4.1 assumes of ``dA``.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.delta.derivation import compute_delta
from repro.delta.factored import FactoredDelta
from repro.expr.ast import Expr, MatrixSymbol, add
from repro.expr.visitors import substitute_symbol, walk


def compute_delta_sequential(
    expr: Expr,
    deltas: Mapping[str, FactoredDelta],
    order: Sequence[str] | None = None,
) -> FactoredDelta:
    """Multi-update delta via the paper's one-at-a-time rule.

    ``order`` fixes the sequence in which updates are absorbed (defaults
    to the mapping's order).  The result is value-equal to the
    simultaneous rule but typically *wider* (no cross-monomial factor
    sharing between update groups), which is why the compiler uses the
    simultaneous rule.
    """
    names = list(order) if order is not None else list(deltas)
    if set(names) != set(deltas):
        raise ValueError("order must be a permutation of the updated matrix names")

    remaining = list(names)
    current_expr = expr
    total = FactoredDelta.zero(expr.shape)
    while remaining:
        name = remaining.pop(0)
        single = compute_delta(current_expr, {name: deltas[name]})
        total = total.plus(single)
        # Rewrite E -> E + delta_A(E) by updating the symbol in place.
        symbol = _find_symbol(current_expr, name)
        if symbol is not None and not deltas[name].is_zero:
            updated = add(symbol, deltas[name].to_expr())
            current_expr = substitute_symbol(current_expr, name, updated)
    return total


def _find_symbol(expr: Expr, name: str) -> MatrixSymbol | None:
    """Locate the (unique-by-name) matrix symbol in an expression."""
    for node in walk(expr):
        if isinstance(node, MatrixSymbol) and node.name == name:
            return node
    return None
