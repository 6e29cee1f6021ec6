"""Strategy factories and labels shared by benchmarks and examples.

The evaluation section refers to strategy-model combinations by names
like ``REEVAL-EXP`` and ``INCR-SKIP-4``; :func:`make_powers`,
:func:`make_sums` and :func:`make_general` construct the corresponding
maintainers from those labels so the benchmark harness and examples can
be written table-driven, exactly like the paper's figures.

Every factory also accepts a
:class:`~repro.planner.plan.MaintenancePlan` in place of the strategy
name — the plan then supplies the strategy, iterative model *and*
execution backend in one argument, so planner output plugs straight
into the maintainers::

    plan = plan_general(WorkloadStats(n=n, p=1, k=16, density=d))
    maintainer = make_general(plan, a, b, t0, k)
"""

from __future__ import annotations

import numpy as np

from ..cost import counters
from .models import Model

REEVAL = "REEVAL"
INCR = "INCR"
HYBRID = "HYBRID"

STRATEGIES = (REEVAL, INCR, HYBRID)


def parse_model(label: str) -> Model:
    """Parse a paper-style model label: ``LIN``, ``EXP`` or ``SKIP-s``."""
    label = label.upper()
    if label == "LIN":
        return Model.linear()
    if label == "EXP":
        return Model.exponential()
    if label.startswith("SKIP-"):
        return Model.skip(int(label.split("-", 1)[1]))
    raise ValueError(f"unknown model label {label!r}")


def _resolve(strategy, model, backend):
    """Unpack a MaintenancePlan passed in the strategy slot.

    Explicit ``model``/``backend`` arguments win over the plan's axes,
    so callers can override one dimension of a planned configuration.
    """
    if isinstance(strategy, str):
        if model is None:
            raise TypeError("model is required when strategy is a name")
        return strategy, model, backend
    plan = strategy
    if model is None:
        model = plan.iterative_model()
    if backend is None:
        backend = plan.backend
    return plan.strategy, model, backend


def make_powers(
    strategy,
    a: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """Powers maintainer for a strategy name or plan (``REEVAL``/``INCR``)."""
    from .powers import IncrementalPowers, ReevalPowers

    strategy, model, backend = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        return ReevalPowers(a, k, model, counter, backend=backend)
    if strategy == INCR:
        return IncrementalPowers(a, k, model, counter, backend=backend)
    raise ValueError(f"matrix powers has no {strategy!r} strategy")


def make_sums(
    strategy,
    a: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """Sums-of-powers maintainer for a strategy name or plan."""
    from .sums import IncrementalPowerSums, ReevalPowerSums

    strategy, model, backend = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        return ReevalPowerSums(a, k, model, counter, backend=backend)
    if strategy == INCR:
        return IncrementalPowerSums(a, k, model, counter, backend=backend)
    raise ValueError(f"sums of powers has no {strategy!r} strategy")


def make_general(
    strategy,
    a: np.ndarray,
    b: np.ndarray | None,
    t0: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """General-form maintainer for a strategy name or plan (all three)."""
    from .general import HybridGeneral, IncrementalGeneral, ReevalGeneral

    strategy, model, backend = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        return ReevalGeneral(a, b, t0, k, model, counter, backend=backend)
    if strategy == INCR:
        return IncrementalGeneral(a, b, t0, k, model, counter, backend=backend)
    if strategy == HYBRID:
        return HybridGeneral(a, b, t0, k, model, counter, backend=backend)
    raise ValueError(f"unknown strategy {strategy!r}")
