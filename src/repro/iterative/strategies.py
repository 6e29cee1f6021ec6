"""Strategy factories and labels shared by benchmarks and examples.

The evaluation section refers to strategy-model combinations by names
like ``REEVAL-EXP`` and ``INCR-SKIP-4``; :func:`make_powers`,
:func:`make_sums` and :func:`make_general` construct the corresponding
maintainers from those labels so the benchmark harness and examples can
be written table-driven, exactly like the paper's figures.  Every
strategy is a session on the family's Table 1 program
(:class:`SessionMaintainer`): REEVAL re-runs it, INCR runs its
triggers, and HYBRID runs them with the non-square iterates' deltas
carried dense.

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


class SessionMaintainer:
    """A program maintained by a session built from ``plan``.

    What the drivers, benchmarks, :func:`~repro.runtime.batching.deferred`
    and :class:`~repro.runtime.serving.MaintainerEngine` call on a
    maintainer — :meth:`refresh` (``A += u v'``), :meth:`refresh_b`,
    :meth:`result`, :meth:`memory_bytes`, :attr:`a`, :attr:`b` and
    ``model`` — over :attr:`session`.  Values are the store's live
    arrays, valid until the next refresh.
    """

    def __init__(self, source: str, inputs: dict, plan,
                 counter: counters.Counter = counters.NULL_COUNTER,
                 backend=None, model: Model | None = None):
        from ..frontend import parse_program
        from ..runtime.session import build_session

        self.model = model
        self.session = build_session(parse_program(source), inputs, plan,
                                     counter=counter, backend=backend)
        self._views = self.session.views
        self._output = self.session.program.outputs[0]

    def refresh(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``A += u v'`` and maintain every view."""
        self.session.apply_update(FactoredUpdate("A", u, v))

    def refresh_b(self, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``B += u v'`` and maintain every view."""
        if self.b is None:
            raise ValueError("this computation has no B input")
        self.session.apply_update(FactoredUpdate("B", u, v))

    def result(self):
        """The maintained output (live storage)."""
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


def _open(family: str, strategy, model, k: int, inputs: dict, counter,
          backend, strategies=STRATEGIES) -> SessionMaintainer:
    """``family``'s Table 1 program (:func:`~repro.iterative.recurrences.program`)
    on a session.  ``strategy`` is a name or a
    :class:`~repro.planner.plan.MaintenancePlan`; explicit ``model`` /
    ``backend`` arguments win over the plan's axes."""
    from ..planner.plan import MaintenancePlan
    from .recurrences import program

    if isinstance(strategy, str):
        if model is None:
            raise TypeError("model is required when strategy is a name")
        plan = MaintenancePlan(strategy, model=model.kind, s=model.s)
    else:
        plan, model = strategy, model or strategy.iterative_model()
        backend = backend or plan.backend
    if plan.strategy not in strategies:
        raise ValueError(f"{family} has no {plan.strategy!r} strategy")
    source = program(family, model, k, with_b="B" in inputs)
    return SessionMaintainer(source, inputs, plan, counter, backend, model)


def make_powers(
    strategy,
    a: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """Powers maintainer for a strategy name or plan (``REEVAL``/``INCR``)."""
    return _open("powers", strategy, model, k, {"A": a}, counter, backend,
                 (REEVAL, INCR))


def make_sums(
    strategy,
    a: np.ndarray,
    k: int,
    model: Model | None = None,
    counter: counters.Counter = counters.NULL_COUNTER,
    backend=None,
):
    """Sums-of-powers maintainer for a strategy name or plan."""
    return _open("sums", strategy, model, k, {"A": a}, counter, backend,
                 (REEVAL, INCR))


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
    inputs = {"A": a, "T0": np.reshape(t0, (len(t0), -1))}
    if b is not None:
        inputs["B"] = np.reshape(b, (len(b), -1))
        if inputs["B"].shape != inputs["T0"].shape:
            raise ValueError(f"B shape {inputs['B'].shape} must match "
                             f"T0 shape {inputs['T0'].shape}")
    return _open("general", strategy, model, k, inputs, counter, backend)
