"""Strategy factories and labels shared by benchmarks and examples.

The evaluation section refers to strategy-model combinations by names
like ``REEVAL-EXP`` and ``INCR-SKIP-4``; :func:`make_powers`,
:func:`make_sums` and :func:`make_general` construct the corresponding
maintainers from those labels so the benchmark harness and examples can
be written table-driven, exactly like the paper's figures.  REEVAL is
re-running the program (:class:`SessionMaintainer`); INCR and HYBRID
are the hand-written Appendix A/B maintainers.

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
from ..runtime.updates import FactoredUpdate
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
    Returns ``(strategy name, model, backend, plan or None)``.
    """
    if isinstance(strategy, str):
        if model is None:
            raise TypeError("model is required when strategy is a name")
        return strategy, model, backend, None
    plan = strategy
    if model is None:
        model = plan.iterative_model()
    if backend is None:
        backend = plan.backend
    return plan.strategy, model, backend, plan


class SessionMaintainer:
    """An iterative family maintained by a REEVAL session on its Table 1
    program (:func:`~repro.iterative.recurrences.program`; with ``B``
    when ``inputs`` holds one).

    What the drivers, benchmarks, :func:`~repro.runtime.batching.deferred`
    and :class:`~repro.runtime.serving.MaintainerEngine` call on a
    maintainer — :meth:`refresh` (``A += u v'``), :meth:`refresh_b`,
    :meth:`result`, :meth:`memory_bytes`, :attr:`a`, :attr:`b` and
    ``model`` — over :attr:`session`.  Values are the store's live
    arrays, valid until the next refresh.
    """

    def __init__(self, family: str, model: Model, k: int, inputs: dict,
                 plan=None, counter: counters.Counter = counters.NULL_COUNTER,
                 backend=None):
        from ..frontend import parse_program
        from ..planner.plan import MaintenancePlan
        from ..runtime.session import build_session
        from .recurrences import program

        self.model = model
        source = program(family, model, k, with_b="B" in inputs)
        self.session = build_session(
            parse_program(source), inputs,
            plan or MaintenancePlan(REEVAL, model=model.kind, s=model.s),
            counter=counter, backend=backend)
        self._views = self.session.views
        self._output = self.session.program.outputs[0]

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``A += u v'`` and re-evaluate."""
        self.session.apply_update(FactoredUpdate("A", u, v))

    def refresh_b(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``B += u v'`` and re-evaluate."""
        if self.b is None:
            raise ValueError("this computation has no B input")
        self.session.apply_update(FactoredUpdate("B", u, v))

    def result(self):
        """The maintained ``P_k`` / ``S_k`` / ``T_k`` (live storage)."""
        return self._views.get(self._output)

    @property
    def a(self):
        """The maintained input matrix ``A``."""
        return self._views.get("A")

    @property
    def b(self):
        """The maintained ``B``, or ``None`` when there is none."""
        return self._views.get("B") if "B" in self._views else None

    def memory_bytes(self) -> int:
        """Bytes the session's store holds: every input and view."""
        return self._views.total_bytes()


def make_powers(
    strategy,
    a: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """Powers maintainer for a strategy name or plan (``REEVAL``/``INCR``)."""
    strategy, model, backend, plan = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        return SessionMaintainer("powers", model, k, {"A": a}, plan, counter,
                                 backend)
    if strategy == INCR:
        from .powers import IncrementalPowers

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
    strategy, model, backend, plan = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        return SessionMaintainer("sums", model, k, {"A": a}, plan, counter,
                                 backend)
    if strategy == INCR:
        from .sums import IncrementalPowerSums

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
    strategy, model, backend, plan = _resolve(strategy, model, backend)
    if strategy == REEVAL:
        inputs = {"A": a, "T0": np.reshape(t0, (len(t0), -1))}
        if b is not None:
            inputs["B"] = np.reshape(b, (len(b), -1))
            if inputs["B"].shape != inputs["T0"].shape:
                raise ValueError(f"B shape {inputs['B'].shape} must match "
                                 f"T0 shape {inputs['T0'].shape}")
        return SessionMaintainer("general", model, k, inputs, plan, counter,
                                 backend)
    from .general import HybridGeneral, IncrementalGeneral

    if strategy == INCR:
        return IncrementalGeneral(a, b, t0, k, model, counter, backend=backend)
    if strategy == HYBRID:
        return HybridGeneral(a, b, t0, k, model, counter, backend=backend)
    raise ValueError(f"unknown strategy {strategy!r}")
