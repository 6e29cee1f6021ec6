"""Sums of matrix powers ``S_i = I + A + ... + A^{i-1}`` (Section 5.2.3).

Recurrences (Table 1, middle column):

* linear:       ``S_1 = I``;  ``S_i = A S_{i-1} + I``
* exponential:  ``S_i = P_{i/2} S_{i/2} + S_{i/2}``
* skip-s:       exponential to ``s``, then ``S_i = P_s S_{i-s} + S_s``

The exponential and skip models piggyback on the matrix-powers views
``P_i``, so both maintainers own an embedded powers maintainer of the
same strategy; reported FLOPs include that upkeep, matching the paper's
accounting ("the complexity of each iteration step has remained
unchanged").

Like :class:`~repro.iterative.powers.IncrementalPowers`, the incremental
maintainer separates :meth:`IncrementalPowerSums.compute_factors`
(pure) from :meth:`IncrementalPowerSums.apply_factors` so the Appendix B
general-form maintainers can read sum deltas before application.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..cost.ops import Ops
from .models import Model
from .powers import FactorDict, IncrementalPowers, ReevalPowers

#: Sum deltas may be zero (``S_1 = I`` never changes): ``i -> (Z, W) | None``.
OptionalFactorDict = dict[int, "tuple[np.ndarray, np.ndarray] | None"]


def _powers_horizon(model: Model, k: int) -> int:
    """Highest power index the sums recurrence reads (``P_h``)."""
    if model.kind == Model.LINEAR or k <= 1:
        return 1
    if model.kind == Model.EXPONENTIAL:
        return max(k // 2, 1)
    assert model.s is not None
    return min(model.s, max(k // 2, 1))


class ReevalPowerSums:
    """Re-evaluation baseline for ``S_k`` (strategy REEVAL)."""

    def __init__(
        self,
        a: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
    ):
        self.model = model
        self.k = k
        self.schedule = model.schedule(k)
        self.ops = Ops(counter, backend)
        self._powers = (
            ReevalPowers(a, _powers_horizon(model, k), model, counter,
                         backend=self.ops.backend)
            if model.kind != Model.LINEAR and k > 1
            else None
        )
        # One copy of A: the embedded powers maintainer's, when there is one.
        self.a = (
            self._powers.a if self._powers is not None
            else self.ops.backend.asarray(a, copy=True)
        )
        self.sums: dict[int, np.ndarray] = {}
        self._recompute()

    def _power(self, i: int) -> np.ndarray:
        assert self._powers is not None
        return self._powers.powers[i]

    def _recompute(self) -> None:
        previous = self.sums
        n = self.a.shape[0]
        eye = getattr(self, "_eye", None)
        if eye is None:  # built once; S_1 = I is never mutated
            eye = self._eye = self.ops.backend.eye(n)
        self.sums = {1: eye}
        for i in self.schedule[1:]:
            j = self.model.predecessor(i)
            h = i - j
            # Each product lands in the previous refresh's S_i storage
            # and the trailing term accumulates with an aliasing add —
            # operands read strictly earlier schedule entries, so the
            # destination never aliases an input.
            out = previous.get(i)
            if self.model.kind == Model.LINEAR:
                step = self.ops.mm_into(self.a, self.sums[i - 1], out)
                self.sums[i] = self.ops.add_into(step, eye, step)
            else:
                # S_i = P_h S_j + S_h (h = j exponential, h = s skip phase)
                step = self.ops.mm_into(self._power(h), self.sums[j], out)
                self.sums[i] = self.ops.add_into(step, self.sums[h], step)

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``A += u v'`` and recompute every scheduled sum."""
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        if self._powers is not None:
            self._powers.refresh(u, v)
            self.a = self._powers.a
        else:
            self.a = self.ops.add_outer_inplace(self.a, u, v)
        self._recompute()

    def result(self) -> np.ndarray:
        """The maintained ``S_k``."""
        return self.sums[self.k]

    def memory_bytes(self) -> int:
        """REEVAL keeps only current-iteration state (Table 2: ``O(n^2)``)."""
        return (4 if self._powers is not None else 3) * self.ops.backend.nbytes(
            self.a
        )


class IncrementalPowerSums:
    """Incremental maintenance of all scheduled ``S_i`` (strategy INCR).

    Deltas follow Appendix A's pattern.  For the exponential model with
    ``dP_h = Q R'`` and ``dS_h = Z W'``::

        dS_i = d(P_h S_h) + dS_h
             = [Q | P_h Z + Q (R' Z) + Z] @ [S_h' R | W]'

    (the trailing ``dS_h`` folds into the second block because both
    share the right factor ``W``) — width ``2i``, ``O(n^2 i)`` a step.
    """

    def __init__(
        self,
        a: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter = counters.NULL_COUNTER,
        powers: IncrementalPowers | None = None,
        backend=None,
        workspace=None,
    ):
        self.model = model
        self.k = k
        self.schedule = model.schedule(k)
        self.ops = Ops(counter, backend, workspace=workspace)
        self.owns_powers = powers is None
        if powers is not None:
            needed = _powers_horizon(model, k)
            if needed > 1 and needed not in powers.powers:
                raise ValueError(
                    f"shared powers maintainer lacks P_{needed} needed by sums"
                )
            self.powers = powers
        else:
            # An owned powers maintainer shares the arena: its factor
            # scratch and ours live in one frame per refresh.
            self.powers = (
                IncrementalPowers(a, _powers_horizon(model, k), model, counter,
                                  backend=self.ops.backend,
                                  workspace=self.ops.workspace)
                if model.kind != Model.LINEAR and k > 1
                else None
            )
        self.a = self.ops.backend.asarray(a, copy=True)
        self.sums: dict[int, np.ndarray] = {}
        # Initial materialization is not charged to refreshes.
        ops = Ops(backend=self.ops.backend)
        n = self.a.shape[0]
        eye = self.ops.backend.eye(n)
        self.sums[1] = eye
        for i in self.schedule[1:]:
            j = self.model.predecessor(i)
            h = i - j
            if self.model.kind == Model.LINEAR:
                self.sums[i] = ops.add(ops.mm(self.a, self.sums[i - 1]), eye)
            else:
                self.sums[i] = ops.add(
                    ops.mm(self._power(h), self.sums[j]), self.sums[h]
                )

    def _power(self, i: int) -> np.ndarray:
        assert self.powers is not None
        return self.powers.powers[i]

    def compute_factors(
        self, u: np.ndarray, v: np.ndarray, power_factors: FactorDict | None = None
    ) -> OptionalFactorDict:
        """Factored deltas ``dS_i`` for ``A += u v'`` against *old* state.

        ``power_factors`` may pass in already computed power deltas (the
        general-form maintainer shares them); otherwise they are derived
        here.  Entries are ``None`` where the delta is identically zero
        (always for ``S_1 = I``).
        """
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with ops.frame():
            return self._compute_factors(ops, u, v, power_factors)

    def _compute_factors(
        self, ops: Ops, u: np.ndarray, v: np.ndarray,
        power_factors: FactorDict | None,
    ) -> OptionalFactorDict:
        if self.powers is not None and power_factors is None:
            power_factors = self.powers.compute_factors(u, v)

        factors: OptionalFactorDict = {1: None}
        for i in self.schedule[1:]:
            j = self.model.predecessor(i)
            h = i - j
            if self.model.kind == Model.LINEAR:
                # dS_i = d(A S_{i-1}); dA = (u, v), dS_{i-1} = (Z, W)
                prev = factors[i - 1]
                if prev is None:
                    factors[i] = (u, ops.mm(self.sums[i - 1].T, v))
                else:
                    big_z, big_w = prev
                    left = ops.hstack(
                        [u, ops.add(ops.mm(self.a, big_z),
                                    ops.mm(u, ops.mm(v.T, big_z)))]
                    )
                    right = ops.hstack([ops.mm(self.sums[i - 1].T, v), big_w])
                    factors[i] = (left, right)
                continue
            # dS_i = d(P_h S_j) + dS_h
            assert power_factors is not None
            q, r = power_factors[h]
            prev = factors[j]
            blocks_left = [q]
            blocks_right = [ops.mm(self.sums[j].T, r)]
            if prev is not None:
                big_z, big_w = prev
                middle = ops.add(
                    ops.mm(self._power(h), big_z), ops.mm(q, ops.mm(r.T, big_z))
                )
                if h == j:
                    # Exponential: dS_h = dS_j shares the right factor W.
                    middle = ops.add(middle, big_z)
                    blocks_left.append(middle)
                    blocks_right.append(big_w)
                else:
                    blocks_left.append(middle)
                    blocks_right.append(big_w)
                    tail = factors[h]
                    if tail is not None:
                        blocks_left.append(tail[0])
                        blocks_right.append(tail[1])
            elif h != j:
                tail = factors[h]
                if tail is not None:
                    blocks_left.append(tail[0])
                    blocks_right.append(tail[1])
            factors[i] = (ops.hstack(blocks_left), ops.hstack(blocks_right))
        return factors

    def apply_factors(
        self, factors: OptionalFactorDict, power_factors: FactorDict | None = None
    ) -> None:
        """Apply sum deltas (and power deltas, when sums own the powers).

        When the powers maintainer is shared (passed in at construction),
        its owner is responsible for applying ``power_factors``.
        """
        for i in self.schedule[1:]:
            entry = factors[i]
            if entry is not None:
                big_z, big_w = entry
                self.sums[i] = self.ops.add_outer_inplace(self.sums[i], big_z, big_w)
        if self.powers is not None and power_factors is not None and self.owns_powers:
            self.powers.apply_factors(power_factors)
        if self.powers is not None:
            self.a = self.powers.a

    def refresh(self, u: np.ndarray, v: np.ndarray) -> OptionalFactorDict:
        """Maintain every scheduled sum for ``A += u v'`` (standalone use).

        Raises when the powers maintainer is shared — the owner must
        orchestrate via :meth:`compute_factors` / :meth:`apply_factors`
        so powers are applied exactly once.
        """
        if not self.owns_powers:
            raise RuntimeError(
                "refresh() on a sums maintainer with shared powers; "
                "drive it via compute_factors/apply_factors instead"
            )
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with self.ops.frame():
            power_factors = (
                self.powers.compute_factors(u, v)
                if self.powers is not None else None
            )
            factors = self.compute_factors(u, v, power_factors)
            self.apply_factors(factors, power_factors)
            if self.powers is None:
                self.a = self.ops.add_outer_inplace(self.a, u, v)
        return factors

    def result(self) -> np.ndarray:
        """The maintained ``S_k``."""
        return self.sums[self.k]

    def memory_bytes(self) -> int:
        """Footprint of all materialized sums (and owned powers, if any)."""
        total = sum(self.ops.backend.nbytes(arr) for arr in self.sums.values())
        if self.powers is not None and self.owns_powers:
            total += self.powers.memory_bytes()
        return total
