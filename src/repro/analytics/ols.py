"""Ordinary least squares as a maintained program (Section 5.1).

The estimator ``beta* = inv(X'X) X'Y`` is the program :data:`OLS_SOURCE`::

    Z    := X' * X        (n x n)
    W    := inv(Z)        (n x n)
    C    := X' * Y        (n x p)
    beta := W * C         (n x p)

and :func:`make_ols` opens a session on it.  For a rank-1 update ``X +=
u v'`` the compiler derives what Example 4.2/4.3 derive by hand: ``dZ``
as two outer products, ``dW`` by one rank-2 Woodbury step on the stored
inverse (``O(n^2)``), ``dC = v (u'Y)'`` and ``dbeta`` in matrix-vector
order — ``O(n^2 + mn + np + mp)`` per update against re-evaluation's
``O(n^3 + mn^2 + mnp)``, the Fig. 3e experiment.  The planner prices
both from the same lists and picks one.
"""

from __future__ import annotations

import numpy as np

from ..frontend.parser import parse_program

#: The Section 5.1 program.
OLS_SOURCE = (
    "input X(m, n); input Y(m, p); "
    "Z := X' * X; W := inv(Z); C := X' * Y; beta := W * C; output beta;"
)

#: Parsed once, so every OLS session shares one compiled artifact
#: (:func:`~repro.compiler.compile.compiled_program` memoizes on it).
OLS_PROGRAM = parse_program(OLS_SOURCE)


def make_ols(x: np.ndarray, y: np.ndarray, **options):
    """Open a session maintaining ``beta`` for the design ``x``.

    A 1-D ``y`` becomes one column.  ``options`` are
    :func:`~repro.runtime.session.open_session`'s (``plan``,
    ``backend``, ``mode``, ``batch``, ``counter``, ``drift``, ...);
    the planner picks INCR or REEVAL unless ``plan`` says.  Feed it
    ``FactoredUpdate("X", u, v)``; a step that makes ``X'X`` singular
    raises :class:`~repro.runtime.updates.SingularUpdateError` and
    leaves the session as it was.
    """
    from ..runtime.session import open_session

    y = np.asarray(y, dtype=np.float64)
    if y.ndim == 1:
        y = y.reshape(-1, 1)
    return open_session(OLS_PROGRAM, {"X": x, "Y": y}, **options)


__all__ = ["OLS_PROGRAM", "OLS_SOURCE", "make_ols"]
