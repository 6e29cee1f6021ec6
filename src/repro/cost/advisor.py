"""Strategy/model/backend advisor built on the Table 2 cost formulas.

Section 5 derives, by hand, which (strategy x iterative model) cell of
Table 2 wins for given problem parameters — e.g. "the Lin model incurs
the lowest time complexity when p << n", "HYBRID ... when the dimension
p or n is comparable with k".  This module mechanizes that analysis:
:func:`recommend_powers` and :func:`recommend_general` rank every
admissible configuration by predicted refresh cost, optionally under a
memory budget (incremental maintenance trades memory for time —
Table 3), and pick the best skip size automatically.

With the default ``density=None`` the ranking uses the paper's dense
closed forms (:mod:`repro.cost.complexity`) over the dense-only grid —
the exact Table 2 analysis.  Passing a ``density`` widens the grid with
an execution-backend axis: every (strategy, model, skip) cell is priced
per backend through the nnz-aware estimates of
:mod:`repro.cost.estimate` (built on the ``Backend.est_*`` cost hooks),
and ``refreshes`` amortizes one-time view building over the expected
update stream, so sparse graph workloads rank ``backend="sparse"``
first while small dense problems stay on BLAS.

Predicted costs are *operation counts*; they rank configurations, they
are not wall-clock estimates.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..planner.plan import DEFAULT_REFRESHES
from . import estimate as est

#: Strategy names.
REEVAL = "REEVAL"
INCR = "INCR"
HYBRID = "HYBRID"


@dataclass(frozen=True)
class Recommendation:
    """One ranked configuration: strategy, model (with skip size), costs.

    ``time`` is the predicted per-refresh operation count (amortizing
    setup over the expected refresh count in density-aware mode);
    ``space`` the predicted stored entries; ``backend`` the execution
    backend the prediction assumed (``"dense"`` for the classic Table 2
    cells).
    """

    strategy: str
    model: str
    s: int | None
    time: float
    space: float
    backend: str = "dense"

    @property
    def label(self) -> str:
        """Paper-style label, e.g. ``INCR-EXP`` or ``HYBRID-SKIP-4``.

        Non-default backends are suffixed: ``REEVAL-LIN@sparse``.
        """
        model = {"linear": "LIN", "exponential": "EXP"}.get(self.model)
        if model is None:
            model = f"SKIP-{self.s}"
        base = f"{self.strategy}-{model}"
        return base if self.backend == "dense" else f"{base}@{self.backend}"

    def as_dict(self) -> dict:
        """JSON-friendly form (the CLI's ``--json`` output)."""
        return {
            "label": self.label,
            "strategy": self.strategy,
            "model": self.model,
            "s": self.s,
            "backend": self.backend,
            "time": self.time,
            "space": self.space,
        }


def _skip_sizes(k: int) -> list[int]:
    """Admissible skip sizes: powers of two dividing ``k``, ``1 < s < k``."""
    sizes = []
    s = 2
    while s < k:
        if k % s == 0:
            sizes.append(s)
        s *= 2
    return sizes


def _model_grid(k: int) -> list[tuple[str, int | None]]:
    models: list[tuple[str, int | None]] = [("linear", None)]
    if k >= 2 and (k & (k - 1)) == 0:
        models.append(("exponential", None))
        models.extend(("skip", s) for s in _skip_sizes(k))
    return models


def _backend_grid(backends, calibration, n: int, density: float) -> list:
    """Backend instances to rank over; dense first (tie-break winner).

    ``backends=None`` is the admissible grid for an ``n x n`` operator
    at ``density`` (:func:`repro.backends.admissible_backends`: a
    backend that would store it dense runs the dense kernels and cannot
    change the decision); named backends are ranked as given.  Cost
    constants come from the :mod:`repro.calibrate` cache when one
    exists for this machine (``calibration="auto"``), so rankings near
    the dense/sparse boundary reflect measured kernel overheads.
    """
    # Deferred: the backends import this package.
    from ..backends import admissible_backends, calibrated

    if backends is None:
        names = admissible_backends([(n, n, density)])
    else:
        names = list(backends)
    resolved = []
    for name in names:
        try:
            resolved.append(calibrated(name, calibration))
        except (ValueError, RuntimeError):  # e.g. sparse without scipy
            continue
    return resolved


def recommend_powers(
    n: int,
    k: int,
    gamma: float = 3.0,
    memory_budget: float | None = None,
    density: float | None = None,
    rank: int = 1,
    refreshes: int = DEFAULT_REFRESHES,
    backends=None,
    calibration="auto",
) -> list[Recommendation]:
    """Ranked configurations for maintaining ``A^k`` under rank-r updates.

    ``memory_budget`` (in matrix *entries*, like the space formulas)
    filters configurations whose view footprint exceeds it.  Raises
    ``ValueError`` if the budget excludes everything.  ``density``
    switches to the backend-aware grid (see module docstring: the
    backends that would store the operator in their own format, or
    exactly the ``backends`` named); in that mode ``gamma`` is ignored
    — the estimates price the classical (``gamma = 3``) kernels the
    backends actually run.
    """
    candidates = []
    if density is None:
        # Table 2's closed forms load only here: a density-aware ranking
        # (every driver plan) never compiles them.
        from . import complexity as cx

        for model, s in _model_grid(k):
            candidates.append(Recommendation(
                REEVAL, model, s,
                cx.powers_reeval_time(n, k, model, s, gamma),
                cx.powers_reeval_space(n, k, model, s),
            ))
            candidates.append(Recommendation(
                INCR, model, s,
                cx.powers_incr_time(n, k, model, s),
                cx.powers_incr_space(n, k, model, s),
            ))
        return _rank(candidates, memory_budget)

    for be in _backend_grid(backends, calibration, n, density):
        for model, s in _model_grid(k):
            for strategy in (REEVAL, INCR):
                cost = est.powers_cost(be, strategy, n, k, model, s,
                                       density=density, rank=rank)
                candidates.append(Recommendation(
                    strategy, model, s,
                    cost.total(refreshes) / max(refreshes, 1),
                    cost.space, be.name,
                ))
    return _rank(candidates, memory_budget)


def recommend_general(
    n: int,
    p: int,
    k: int,
    gamma: float = 3.0,
    memory_budget: float | None = None,
    density: float | None = None,
    rank: int = 1,
    refreshes: int = DEFAULT_REFRESHES,
    has_b: bool = True,
    backends=None,
    calibration="auto",
) -> list[Recommendation]:
    """Ranked configurations for ``T_{i+1} = A T_i + B`` maintenance."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    candidates = []
    if density is None:
        from . import complexity as cx

        for model, s in _model_grid(k):
            candidates.append(Recommendation(
                REEVAL, model, s,
                cx.general_reeval_time(n, p, k, model, s, gamma),
                cx.general_reeval_space(n, p, k, model, s),
            ))
            candidates.append(Recommendation(
                INCR, model, s,
                cx.general_incr_time(n, p, k, model, s),
                cx.general_incr_space(n, p, k, model, s),
            ))
            candidates.append(Recommendation(
                HYBRID, model, s,
                cx.general_hybrid_time(n, p, k, model, s),
                cx.general_hybrid_space(n, p, k, model, s),
            ))
        return _rank(candidates, memory_budget)

    for be in _backend_grid(backends, calibration, n, density):
        for model, s in _model_grid(k):
            for strategy in (REEVAL, INCR, HYBRID):
                cost = est.general_cost(be, strategy, n, p, k, model, s,
                                        density=density, rank=rank,
                                        has_b=has_b)
                candidates.append(Recommendation(
                    strategy, model, s,
                    cost.total(refreshes) / max(refreshes, 1),
                    cost.space, be.name,
                ))
    return _rank(candidates, memory_budget)


def _rank(
    candidates: list[Recommendation], memory_budget: float | None
) -> list[Recommendation]:
    if memory_budget is not None:
        candidates = [c for c in candidates if c.space <= memory_budget]
        if not candidates:
            raise ValueError(
                f"no configuration fits within {memory_budget:g} entries; "
                "REEVAL-LIN needs the least memory"
            )
    return sorted(candidates, key=lambda c: (c.time, c.space))


def best_powers(n: int, k: int, **kwargs) -> Recommendation:
    """The single cheapest powers configuration."""
    return recommend_powers(n, k, **kwargs)[0]


def best_general(n: int, p: int, k: int, **kwargs) -> Recommendation:
    """The single cheapest general-form configuration."""
    return recommend_general(n, p, k, **kwargs)[0]


def speedup_estimate(ranked: list[Recommendation]) -> float:
    """Predicted gain of the best configuration over the best REEVAL.

    Returns 1.0 when re-evaluation itself is ranked best (the advisor's
    honest answer in regimes like large-batch updates).
    """
    best = ranked[0]
    reeval_times = [c.time for c in ranked if c.strategy == REEVAL]
    if not reeval_times or best.strategy == REEVAL:
        return 1.0
    return min(reeval_times) / best.time


__all__ = [
    "DEFAULT_REFRESHES",
    "HYBRID",
    "INCR",
    "REEVAL",
    "Recommendation",
    "best_general",
    "best_powers",
    "recommend_general",
    "recommend_powers",
    "speedup_estimate",
]
