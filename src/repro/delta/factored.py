"""Factored delta representation (Section 4.2 / 4.3).

A delta matrix is kept as a sum of *monomials* ``L_i @ R_i'`` where each
``L_i`` is ``(rows x k_i)`` and each ``R_i`` is ``(cols x k_i)``.  The
equivalent single-product form stacks the blocks:

    delta  =  [L_1 | ... | L_m] @ [R_1 | ... | R_m]'  =  U @ V'

``U``/``V`` have width ``k = sum k_i`` — the *rank bound* of the delta.
Keeping ``k`` small is exactly what confines the avalanche effect: every
downstream use of the delta costs ``O(k n^2)`` instead of ``O(n^gamma)``.

:class:`FactoredDelta` is immutable; the algebra needed by the delta
rules (scaling, negation, transposition, summation) is provided as
methods and never widens the factors more than the paper's Section 4.3
construction does.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from ..expr.ast import Expr, ZeroMatrix, add, hstack, matmul, scalar_mul, transpose
from ..expr.shapes import DimLike, Shape, dim_add, dims_equal


class FactoredDelta:
    """An immutable factored delta ``sum_i L_i @ R_i'`` of one matrix.

    ``terms`` is a tuple of ``(left, right)`` expression pairs with
    ``left: (rows x k_i)`` and ``right: (cols x k_i)``.  An empty tuple
    is the zero delta (its shape is still carried explicitly).
    """

    __slots__ = ("shape", "terms")

    def __init__(self, shape: Shape, terms: Iterable[tuple[Expr, Expr]] = ()):
        kept: list[tuple[Expr, Expr]] = []
        for left, right in terms:
            if left.is_zero or right.is_zero:
                continue
            if not dims_equal(left.shape.rows, shape.rows):
                raise ValueError(
                    f"left factor rows {left.shape} do not match delta shape {shape}"
                )
            if not dims_equal(right.shape.rows, shape.cols):
                raise ValueError(
                    f"right factor rows {right.shape} do not match delta shape {shape}"
                )
            if not dims_equal(left.shape.cols, right.shape.cols):
                raise ValueError(
                    f"factor widths disagree: {left.shape} vs {right.shape}"
                )
            kept.append((left, right))
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "terms", tuple(kept))

    def __setattr__(self, name, value):
        raise AttributeError("FactoredDelta is immutable")

    # -- basic queries ---------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True when this delta is identically zero."""
        return not self.terms

    @property
    def width(self) -> DimLike:
        """Total stacked width ``k`` (the rank bound of the delta)."""
        total: DimLike = 0
        for left, _ in self.terms:
            total = dim_add(total, left.shape.cols)
        return total

    @property
    def u_expr(self) -> Expr:
        """The stacked left factor ``U = [L_1 | ... | L_m]``."""
        if self.is_zero:
            raise ValueError("zero delta has no factors")
        return hstack([left for left, _ in self.terms])

    @property
    def v_expr(self) -> Expr:
        """The stacked right factor ``V = [R_1 | ... | R_m]``."""
        if self.is_zero:
            raise ValueError("zero delta has no factors")
        return hstack([right for _, right in self.terms])

    def to_expr(self) -> Expr:
        """The delta as a single expression ``U @ V'`` (zero matrix if zero)."""
        if self.is_zero:
            return ZeroMatrix(self.shape.rows, self.shape.cols)
        if len(self.terms) == 1:
            left, right = self.terms[0]
            return matmul(left, transpose(right))
        return matmul(self.u_expr, transpose(self.v_expr))

    # -- algebra ---------------------------------------------------------
    @staticmethod
    def zero(shape: Shape) -> "FactoredDelta":
        """The zero delta of a given shape."""
        return FactoredDelta(shape, ())

    @staticmethod
    def rank_one(left: Expr, right: Expr) -> "FactoredDelta":
        """Delta ``left @ right'`` from a single outer-product pair."""
        shape = Shape(left.shape.rows, right.shape.rows)
        return FactoredDelta(shape, [(left, right)])

    def plus(self, other: "FactoredDelta") -> "FactoredDelta":
        """Sum of two deltas: monomials concatenate (widths add), except
        that one whose right factor equals an earlier one's folds into
        it, ``L1 R' + L2 R' = (L1 + L2) R'`` (Section 4.3)."""
        if self.shape != other.shape:
            raise ValueError(f"cannot add deltas of shapes {self.shape}, {other.shape}")
        terms = list(self.terms)
        for left, right in other.terms:
            at = next((i for i, term in enumerate(terms) if term[1] == right), None)
            if at is None:
                terms.append((left, right))
            else:
                terms[at] = (add(terms[at][0], left), right)
        return FactoredDelta(self.shape, terms)

    def scale(self, coeff: float) -> "FactoredDelta":
        """Delta scaled by a constant (absorbed into the left factors)."""
        if coeff == 0.0:
            return FactoredDelta.zero(self.shape)
        return FactoredDelta(
            self.shape,
            [(scalar_mul(coeff, left), right) for left, right in self.terms],
        )

    def negate(self) -> "FactoredDelta":
        """The additive inverse of this delta."""
        return self.scale(-1.0)

    def transposed(self) -> "FactoredDelta":
        """Delta of the transpose: ``(U V')' = V U'`` (factors swap)."""
        return FactoredDelta(
            self.shape.transposed, [(right, left) for left, right in self.terms]
        )

    def left_mul(self, expr: Expr) -> "FactoredDelta":
        """Delta of ``expr @ X`` given this delta of ``X``: map ``L -> expr@L``."""
        shape = Shape(expr.shape.rows, self.shape.cols)
        return FactoredDelta(
            shape, [(matmul(expr, left), right) for left, right in self.terms]
        )

    def right_mul(self, expr: Expr) -> "FactoredDelta":
        """Delta of ``X @ expr`` given this delta of ``X``: map ``R -> expr'@R``."""
        shape = Shape(self.shape.rows, expr.shape.cols)
        return FactoredDelta(
            shape,
            [(left, matmul(transpose(expr), right)) for left, right in self.terms],
        )

    # -- numeric ---------------------------------------------------------
    def to_dense(
        self,
        env: Mapping[str, np.ndarray],
        dims: Mapping[str, int] | None = None,
        backend=None,
    ) -> np.ndarray:
        """Materialize the delta numerically (for tests)."""
        from ..runtime.executor import evaluate

        return evaluate(self.to_expr(), env, dims=dims, backend=backend)

    def __repr__(self) -> str:
        if self.is_zero:
            return f"FactoredDelta(zero {self.shape})"
        body = " + ".join(f"({left!r}) @ ({right!r})'" for left, right in self.terms)
        return f"FactoredDelta[{self.width}]({body})"
