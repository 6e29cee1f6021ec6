"""The general iterative form ``T_{i+1} = A T_i + B`` (Section 5.3, App. B).

``A`` is ``(n x n)``, ``T_i`` and ``B`` are ``(n x p)``; gradient
descent, PageRank, linear solvers and power iteration all take this
shape.  Unrolling gives ``T_{i+k} = A^k T_i + (A^{k-1} + ... + I) B``,
so the exponential and skip models lean on the matrix-powers views
``P_i`` and sums-of-powers views ``S_i``:

* linear:       ``T_i = A T_{i-1} + B``
* exponential:  ``T_i = P_{i/2} T_{i/2} + S_{i/2} B``
* skip-s:       exponential to ``s``, then ``T_i = P_s T_{i-s} + S_s B``

Three strategies serve rank-r updates to ``A`` (updates to ``B`` are
supported as an extension; see ``refresh_b``):

* REEVAL — the REEVAL session on the family's program
  (:func:`~repro.iterative.strategies.make_general`);
* :class:`IncrementalGeneral` — factored deltas everywhere (App. B);
* :class:`HybridGeneral` — P/S maintained incrementally in factored
  form, but ``dT_i`` kept as a *dense* ``(n x p)`` matrix.  This wins
  when ``p`` is small (``p = 1``: ``dT_i`` has rank 1 anyway, so
  factoring it just adds overhead) — the crossover Fig. 3g explores.

``B = None`` encodes the homogeneous case ``T_{i+1} = A T_i`` (Fig. 3g)
and skips all sums machinery.
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from ..cost.ops import Ops
from .models import Model
from .powers import FactorDict, IncrementalPowers
from .sums import IncrementalPowerSums, OptionalFactorDict


def _horizon(model: Model, k: int) -> int:
    """Highest P/S index the T recurrence reads (0 = none needed)."""
    if model.kind == Model.LINEAR or k <= 1:
        return 0
    if model.kind == Model.EXPONENTIAL:
        return k // 2
    assert model.s is not None
    return min(model.s, k // 2) if k > 1 else 0


class _GeneralBase:
    """Shared schedule/state plumbing for the INCR and HYBRID strategies."""

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray | None,
        t0: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter,
        backend=None,
        workspace=None,
    ):
        self.model = model
        self.k = k
        self.schedule = model.schedule(k)
        self.ops = Ops(counter, backend, workspace=workspace)
        self.backend = self.ops.backend
        self.a = self.backend.asarray(a, copy=True)
        # Iterates and B are (n x p) with small p: thin blocks stay dense
        # under every backend (see repro.backends.base).
        self.t0 = np.array(t0, dtype=np.float64)
        if self.t0.ndim == 1:
            self.t0 = self.t0.reshape(-1, 1)
        self.b = None if b is None else np.array(b, dtype=np.float64)
        if self.b is not None and self.b.shape != self.t0.shape:
            raise ValueError(
                f"B shape {self.b.shape} must match T0 shape {self.t0.shape}"
            )
        self.horizon = _horizon(model, k)
        self.iterates: dict[int, np.ndarray] = {}

    def result(self) -> np.ndarray:
        """The maintained ``T_k``.

        Live storage, not a copy: the in-place refresh path
        repairs this array between calls — copy it to keep a snapshot
        that survives further updates.
        """
        return self.iterates[self.k]

    def _step(self, ops: Ops, t_prev: np.ndarray, power: np.ndarray,
              s_matrix: np.ndarray | None) -> np.ndarray:
        """One recurrence application ``P T + S B`` (``S = I`` when None)."""
        res = ops.mm(power, t_prev)
        if self.b is not None:
            if s_matrix is None:
                res = ops.add_into(res, self.b, res)
            else:
                res = ops.add_into(res, ops.mm(s_matrix, self.b), res)
        return res

    def _power_matrix(self, h: int) -> np.ndarray:
        """The ``P_h`` operand of the recurrence (``P_1 = A`` needs no view)."""
        if h == 1:
            return self.a
        powers = getattr(self, "powers", None)
        assert powers is not None, f"P_{h} requested but no powers maintained"
        return powers.powers[h]


class IncrementalGeneral(_GeneralBase):
    """Fully factored incremental maintenance (strategy INCR, App. B)."""

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray | None,
        t0: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        workspace=None,
    ):
        super().__init__(a, b, t0, k, model, counter, backend=backend,
                         workspace=workspace)
        # Embedded maintainers share the arena: one frame per refresh.
        self.powers = (
            IncrementalPowers(self.a, self.horizon, model, counter,
                              backend=self.backend,
                              workspace=self.ops.workspace)
            if self.horizon > 1
            else None
        )
        self.sums = (
            IncrementalPowerSums(self.a, self.horizon, model, counter,
                                 powers=self.powers, backend=self.backend,
                                 workspace=self.ops.workspace)
            if self.horizon > 1 and self.b is not None
            else None
        )
        self._materialize()

    def _materialize(self) -> None:
        # Initial evaluation is not charged to refreshes, and must not
        # land in workspace buffers (iterates outlive every frame).
        ops = Ops(backend=counters.uncounted(self.backend))
        self.iterates = {}
        prev = self.t0
        for i in self.schedule:
            if i == 1 or self.model.kind == Model.LINEAR:
                nxt = self._step(ops, prev, self.a, None)
            else:
                j = self.model.predecessor(i)
                h = i - j
                s_h = (
                    self.sums.sums[h]
                    if self.sums is not None and h > 1
                    else None
                )
                nxt = self._step(ops, self.iterates[j], self._power_matrix(h), s_h)
            self.iterates[i] = nxt
            prev = nxt

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain all views for ``A += u v'`` with factored deltas."""
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with ops.frame():
            self._refresh(ops, u, v)

    def _refresh(self, ops: Ops, u: np.ndarray, v: np.ndarray) -> None:
        pf: FactorDict = (
            self.powers.compute_factors(u, v)
            if self.powers is not None
            else {1: (u, v)}
        )
        sf: OptionalFactorDict | None = None
        if self.sums is not None:
            sf = self.sums.compute_factors(u, v, pf)

        # T deltas against old state (Appendix B).
        tf: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i in self.schedule:
            if i == 1:
                tf[1] = (u, ops.mm(self.t0.T, v))
            elif self.model.kind == Model.LINEAR:
                big_u, big_v = tf[i - 1]
                left = ops.hstack(
                    [u, ops.add(ops.mm(self.a, big_u), ops.mm(u, ops.mm(v.T, big_u)))]
                )
                right = ops.hstack([ops.mm(self.iterates[i - 1].T, v), big_v])
                tf[i] = (left, right)
            else:
                j = self.model.predecessor(i)
                h = i - j
                q, r = pf[h]
                big_u, big_v = tf[j]
                blocks_left = [
                    q,
                    ops.add(ops.mm(self._power_matrix(h), big_u),
                            ops.mm(q, ops.mm(r.T, big_u))),
                ]
                blocks_right = [ops.mm(self.iterates[j].T, r), big_v]
                if self.b is not None and sf is not None:
                    entry = sf.get(h)
                    if entry is not None:
                        z, w = entry
                        blocks_left.append(z)
                        blocks_right.append(ops.mm(self.b.T, w))
                tf[i] = (ops.hstack(blocks_left), ops.hstack(blocks_right))

        # Apply all deltas only after every factor is derived.
        for i in self.schedule:
            big_u, big_v = tf[i]
            self.iterates[i] = ops.add_outer_inplace(self.iterates[i], big_u, big_v)
        if self.sums is not None and sf is not None:
            self.sums.apply_factors(sf)
        if self.powers is not None:
            self.powers.apply_factors(pf)
            self.a = self.powers.a
        else:
            self.a = ops.add_outer_inplace(self.a, u, v)

    def refresh_b(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain all views for ``B += u v'`` (extension; P/S unchanged)."""
        if self.b is None:
            raise ValueError("this computation has no B input")
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with ops.frame():
            self._refresh_b(ops, u, v)

    def _refresh_b(self, ops: Ops, u: np.ndarray, v: np.ndarray) -> None:
        tf: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for i in self.schedule:
            if i == 1:
                tf[1] = (u, v)
            elif self.model.kind == Model.LINEAR:
                # dT_i = A dT_{i-1} + dB
                big_u, big_v = tf[i - 1]
                tf[i] = (
                    ops.hstack([ops.mm(self.a, big_u), u]),
                    ops.hstack([big_v, v]),
                )
            else:
                j = self.model.predecessor(i)
                h = i - j
                big_u, big_v = tf[j]
                # d(S_h B) = S_h dB; S_1 = I.
                s_term = (
                    u if h == 1 or self.sums is None
                    else ops.mm(self.sums.sums[h], u)
                )
                tf[i] = (
                    ops.hstack([ops.mm(self._power_matrix(h), big_u), s_term]),
                    ops.hstack([big_v, v]),
                )
        for i in self.schedule:
            big_u, big_v = tf[i]
            self.iterates[i] = ops.add_outer_inplace(self.iterates[i], big_u, big_v)
        self.b = ops.add_inplace(self.b, ops.mm(u, v.T))

    def memory_bytes(self) -> int:
        """Every iterate (plus P/S views) is materialized (Table 2)."""
        nbytes = self.backend.nbytes
        total = nbytes(self.a) + sum(nbytes(t) for t in self.iterates.values())
        if self.b is not None:
            total += self.b.nbytes
        if self.powers is not None:
            total += self.powers.memory_bytes()
        if self.sums is not None:
            total += self.sums.memory_bytes()
        return total


class HybridGeneral(_GeneralBase):
    """Hybrid evaluation (Section 5.3.2): dense ``dT_i``, factored P/S.

    Avoids factoring the ``(n x p)`` iterate deltas — when ``p`` is
    small the factored form costs more than it saves — while still
    maintaining the expensive square views ``P_i``/``S_i`` with
    low-rank factors.
    """

    def __init__(
        self,
        a: np.ndarray,
        b: np.ndarray | None,
        t0: np.ndarray,
        k: int,
        model: Model,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        workspace=None,
    ):
        super().__init__(a, b, t0, k, model, counter, backend=backend,
                         workspace=workspace)
        self.powers = (
            IncrementalPowers(self.a, self.horizon, model, counter,
                              backend=self.backend,
                              workspace=self.ops.workspace)
            if self.horizon > 1
            else None
        )
        self.sums = (
            IncrementalPowerSums(self.a, self.horizon, model, counter,
                                 powers=self.powers, backend=self.backend,
                                 workspace=self.ops.workspace)
            if self.horizon > 1 and self.b is not None
            else None
        )
        self._materialize()

    def _materialize(self) -> None:
        # State arrays must not come from the arena (they outlive frames).
        ops = Ops(backend=counters.uncounted(self.backend))
        self.iterates = {}
        prev = self.t0
        for i in self.schedule:
            if i == 1 or self.model.kind == Model.LINEAR:
                nxt = self._step(ops, prev, self.a, None)
            else:
                j = self.model.predecessor(i)
                h = i - j
                s_h = (
                    self.sums.sums[h]
                    if self.sums is not None and h > 1
                    else None
                )
                nxt = self._step(ops, self.iterates[j], self._power_matrix(h), s_h)
            self.iterates[i] = nxt
            prev = nxt

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain all views for ``A += u v'``; ``dT_i`` stays dense."""
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with ops.frame():
            self._refresh(ops, u, v)

    def _refresh(self, ops: Ops, u: np.ndarray, v: np.ndarray) -> None:
        pf: FactorDict = (
            self.powers.compute_factors(u, v)
            if self.powers is not None
            else {1: (u, v)}
        )
        sf: OptionalFactorDict | None = None
        if self.sums is not None:
            sf = self.sums.compute_factors(u, v, pf)

        dt: dict[int, np.ndarray] = {}
        for i in self.schedule:
            if i == 1:
                dt[1] = ops.mm(u, ops.mm(v.T, self.t0))
            elif self.model.kind == Model.LINEAR:
                # dT_i = u (v' T_{i-1}) + A dT_{i-1} + u (v' dT_{i-1})
                prev = dt[i - 1]
                term1 = ops.mm(u, ops.mm(v.T, self.iterates[i - 1]))
                term2 = ops.mm(self.a, prev)
                term3 = ops.mm(u, ops.mm(v.T, prev))
                dt[i] = ops.add(ops.add(term1, term2), term3)
            else:
                j = self.model.predecessor(i)
                h = i - j
                q, r = pf[h]
                prev = dt[j]
                term1 = ops.mm(q, ops.mm(r.T, self.iterates[j]))
                term2 = ops.mm(self._power_matrix(h), prev)
                term3 = ops.mm(q, ops.mm(r.T, prev))
                total = ops.add(ops.add(term1, term2), term3)
                if self.b is not None and sf is not None:
                    entry = sf.get(h)
                    if entry is not None:
                        z, w = entry
                        total = ops.add(total, ops.mm(z, ops.mm(w.T, self.b)))
                dt[i] = total

        for i in self.schedule:
            self.iterates[i] = ops.add_inplace(self.iterates[i], dt[i])
        if self.sums is not None and sf is not None:
            self.sums.apply_factors(sf)
        if self.powers is not None:
            self.powers.apply_factors(pf)
            self.a = self.powers.a
        else:
            self.a = ops.add_outer_inplace(self.a, u, v)

    def refresh_b(self, u: np.ndarray, v: np.ndarray) -> None:
        """Maintain all views for ``B += u v'``; P/S are unaffected."""
        if self.b is None:
            raise ValueError("this computation has no B input")
        ops = self.ops
        u = u.reshape(len(u), -1)
        v = v.reshape(len(v), -1)
        with ops.frame():
            self._refresh_b(ops, u, v)

    def _refresh_b(self, ops: Ops, u: np.ndarray, v: np.ndarray) -> None:
        db = ops.mm(u, v.T)
        dt: dict[int, np.ndarray] = {}
        for i in self.schedule:
            if i == 1:
                dt[1] = db
            elif self.model.kind == Model.LINEAR:
                # dT_i = A dT_{i-1} + dB
                dt[i] = ops.add(ops.mm(self.a, dt[i - 1]), db)
            else:
                j = self.model.predecessor(i)
                h = i - j
                # dT_i = P_h dT_j + S_h dB  (S_1 = I)
                term = ops.mm(self._power_matrix(h), dt[j])
                if h == 1 or self.sums is None:
                    dt[i] = ops.add(term, db)
                else:
                    dt[i] = ops.add(term, ops.mm(self.sums.sums[h], db))
        for i in self.schedule:
            self.iterates[i] = ops.add_inplace(self.iterates[i], dt[i])
        self.b = ops.add_inplace(self.b, db)

    def memory_bytes(self) -> int:
        """Every iterate (plus P/S views) is materialized (Table 2)."""
        nbytes = self.backend.nbytes
        total = nbytes(self.a) + sum(nbytes(t) for t in self.iterates.values())
        if self.b is not None:
            total += self.b.nbytes
        if self.powers is not None:
            total += self.powers.memory_bytes()
        if self.sums is not None:
            total += self.sums.memory_bytes()
        return total
