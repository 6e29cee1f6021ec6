"""Canonical structural keys: the substrate of cross-tenant sharing.

The multi-view catalog (:mod:`repro.catalog`) must recognise that two
tenants' subprograms compute *the same thing* even when they spell it
differently — ``A + A`` versus ``2 * A``, ``(B')'`` versus ``B`` — so
each shared intermediate is materialized and maintained exactly once.
Identity here is *canonical-form equality*: run the expression through
the full :func:`repro.expr.simplify.simplify` rule set (a
value-preserving rewrite) and compare the results structurally.

:func:`structural_key` turns that identity into a stable digest string.
It leans on two properties the property-test suite already pins down:

* the simplifier is idempotent, so canonical forms are fixed points
  (``tests/test_property_expr.py``);
* the printer is injective up to structural equality — parsing a
  printed expression reproduces the tree exactly — so the printed
  canonical form is a sound hash key, not a lossy one.

Note what canonicalization deliberately does **not** do: it never
re-associates products (association is load-bearing for both shape
validation and the planner's chain-ordering) and it never reorders
sums.  Two programs that group a product differently are *different*
subexpressions with different maintenance trajectories, and the
catalog keeps them distinct on purpose — exactness over heuristics
(docs/invariants.md).
"""

from __future__ import annotations

import hashlib

from .ast import Expr
from .printer import to_string
from .simplify import simplify


def canonicalize(expr: Expr) -> Expr:
    """The canonical representative of an expression's value class.

    Currently exactly :func:`repro.expr.simplify.simplify` — named
    separately so the sharing layer states *intent* (two expressions
    are the same view iff their canonical forms are structurally
    equal) independent of which rewrite set realizes it.
    """
    return simplify(expr)


def structural_equal(left: Expr, right: Expr) -> bool:
    """Whether two expressions share a canonical form (and thus a view)."""
    return canonicalize(left) == canonicalize(right)


def structural_fingerprint(expr: Expr) -> str:
    """The printed canonical form plus shape — the digest preimage.

    Exposed separately from :func:`structural_key` so tests (and
    humans reading catalog dumps) can see *why* two subprograms
    collided: equal fingerprints are readable evidence, equal digests
    are not.
    """
    canon = canonicalize(expr)
    shape = canon.shape
    return f"{shape.rows!r}x{shape.cols!r}|{to_string(canon)}"


def structural_key(expr: Expr) -> str:
    """Stable digest of the canonical form: the catalog's hash key.

    Equal keys imply equal fingerprints (SHA-256 collisions aside —
    the no-collision property test sweeps a generated corpus), and
    equal fingerprints imply structurally equal canonical forms by
    printer injectivity.  The key is stable across simplifier
    round-trips: ``structural_key(simplify(e)) == structural_key(e)``
    because canonical forms are simplifier fixed points.
    """
    digest = hashlib.sha256(structural_fingerprint(expr).encode("utf-8"))
    return digest.hexdigest()


__all__ = [
    "canonicalize",
    "structural_equal",
    "structural_fingerprint",
    "structural_key",
]
