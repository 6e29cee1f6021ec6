"""Cost-driven maintenance planner (strategy x model x backend x mode).

The public surface:

>>> from repro.planner import WorkloadStats, plan_general
>>> plan_general(WorkloadStats(n=2000, p=1, k=16, density=0.01)).backend
'sparse'

:class:`MaintenancePlan` is accepted wherever the API takes a
``strategy`` — the session factory
(:func:`repro.runtime.session.open_session`), the iterative strategy
factories (:mod:`repro.iterative.strategies`), and the analytics
drivers — so one planning decision configures the whole stack.
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "CODEGEN_MIN_REFRESHES": "plan",
    "HYBRID": "plan",
    "INCR": "plan",
    "MaintenancePlan": "plan",
    "REEVAL": "plan",
    "StreamSketch": "sketch",
    "WorkloadStats": "plan",
    "infer_dims": "planner",
    "resolve_distinct_fraction": "plan",
    "plan_general": "planner",
    "plan_powers": "planner",
    "plan_program": "planner",
    "program_cost": "programcost",
    "rank_program": "planner",
    "resolve_driver_strategy": "plan",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
