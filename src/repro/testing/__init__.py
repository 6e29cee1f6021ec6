"""Test harnesses shipped with the library (fault injection, chaos)."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "FaultInjector": "faults",
    "InjectedFaultError": "faults",
    "active_injector": "faults",
    "fire": "faults",
    "inject_faults": "faults",
    "kill_worker_at": "faults",
    "shm_budget_exhausted": "faults",
    "truncate_bytes": "faults",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
