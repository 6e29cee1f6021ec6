"""Matrix powers ``P_i = A^i`` under the three iterative models (§5.2).

:class:`IncrementalPowers` is the INCR strategy: every scheduled power
is materialized, and each update propagates *factored* deltas
``dP_i = U_i @ V_i'`` along the model's recurrence (Appendix A).  No
``n x n`` by ``n x n`` product ever runs; all work is matrix–vector
shaped, ``O(n^2 k)`` total for the exponential model.  REEVAL is the
REEVAL session on the family's program
(:func:`~repro.iterative.strategies.make_powers`).

The incremental maintainer exposes a two-phase API —
:meth:`IncrementalPowers.compute_factors` (pure, reads old state) and
:meth:`IncrementalPowers.apply_factors` — because the downstream
general-form maintainers (Appendix B) must consume power deltas *before*
the powers are updated.  :meth:`IncrementalPowers.refresh` composes the
two for standalone use.

Factor widths grow exactly as Appendix A derives: for a rank-1 update
the width of ``dP_i`` is ``i`` in every model (``+1`` per linear step,
doubling per exponential step, ``+s`` per skip step).

The factor algebra refreshes through the backends' in-place kernels and
can lease its scratch blocks from a
:class:`~repro.runtime.workspace.Workspace` (``workspace=True`` or a
shared arena), making the steady-state refresh allocation-free on dense
state.  With a workspace attached, factor dicts returned by
``compute_factors``/``refresh`` are backed by arena buffers and stay
valid only until the next refresh — copy them to keep them longer.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..cost.ops import Ops
from .models import Model

#: A factored delta per scheduled iteration: ``i -> (U_i, V_i)``.
FactorDict = dict[int, tuple[np.ndarray, np.ndarray]]


class IncrementalPowers:
    """Incremental maintenance of all scheduled ``A^i`` (strategy INCR).

    ``workspace`` (``None`` / ``True`` / a shared
    :class:`~repro.runtime.workspace.Workspace`) backs the factor
    algebra's scratch blocks with a reusable arena — see the module
    docstring for the resulting factor-lifetime contract.
    """

    def __init__(
        self,
        a: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        workspace=None,
    ):
        self.model = model
        self.k = k
        self.schedule = model.schedule(k)
        self.ops = Ops(counter, backend, workspace=workspace)
        self.powers: dict[int, np.ndarray] = {}
        # Initial materialization is not charged to refreshes, and must
        # not land in workspace buffers (state outlives every frame).
        ops = Ops(backend=counters.uncounted(self.ops.backend))
        self.powers[1] = self.ops.backend.asarray(a, copy=True)
        for i in self.schedule[1:]:
            j = self.model.predecessor(i)
            self.powers[i] = ops.mm(self.powers[i - j], self.powers[j])

    @property
    def a(self) -> np.ndarray:
        """The maintained input matrix (``P_1``)."""
        return self.powers[1]

    def compute_factors(self, u: np.ndarray, v: np.ndarray) -> FactorDict:
        """Factored deltas ``dP_i = U_i @ V_i'`` for ``A += u v'``.

        Pure: reads only *old* powers; callers apply via
        :meth:`apply_factors`.  ``u``/``v`` may be ``(n x r)`` blocks.
        """
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        factors: FactorDict = {1: (u, v)}
        with ops.frame():
            for i in self.schedule[1:]:
                # P_i = P_h @ P_j with j the model's predecessor and h = i - j:
                # linear (A @ P_{i-1}), exponential (P_h @ P_h), skip
                # (P_s @ P_{i-s}).
                j = self.model.predecessor(i)
                h = i - j
                u_h, v_h = factors[h]
                u_j, v_j = factors[j]
                left = ops.hstack(
                    [
                        u_h,
                        ops.add(
                            ops.mm(self.powers[h], u_j),
                            ops.mm(u_h, ops.mm(v_h.T, u_j)),
                        ),
                    ]
                )
                right = ops.hstack([ops.mm(self.powers[j].T, v_h), v_j])
                factors[i] = (left, right)
        return factors

    def apply_factors(self, factors: FactorDict) -> None:
        """Apply previously computed deltas: ``P_i += U_i @ V_i'``."""
        for i in self.schedule:
            u_i, v_i = factors[i]
            self.powers[i] = self.ops.add_outer_inplace(self.powers[i], u_i, v_i)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> FactorDict:
        """Maintain every scheduled power for ``A += u v'`` (Appendix A)."""
        with self.ops.frame():
            factors = self.compute_factors(u, v)
            self.apply_factors(factors)
        return factors

    def result(self) -> np.ndarray:
        """The maintained ``A^k``."""
        return self.powers[self.k]

    def delta_width(self, i: int | None = None, rank: int = 1) -> int:
        """Factor width of ``dP_i`` for a rank-``rank`` update (Appendix A)."""
        return rank * (i if i is not None else self.k)

    def memory_bytes(self) -> int:
        """Footprint of all materialized powers (Table 2: model-dependent)."""
        return sum(self.ops.backend.nbytes(arr) for arr in self.powers.values())
