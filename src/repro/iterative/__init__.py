"""Iterative models (Section 3.2) and evaluation strategies (Section 5)."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "HYBRID": "strategies",
    "HybridGeneral": "general",
    "INCR": "strategies",
    "IncrementalGeneral": "general",
    "IncrementalPowerSums": "sums",
    "IncrementalPowers": "powers",
    "Model": "models",
    "REEVAL": "strategies",
    "ReevalGeneral": "general",
    "ReevalPowerSums": "sums",
    "ReevalPowers": "powers",
    "STRATEGIES": "strategies",
    "is_power_of_two": "models",
    "make_general": "strategies",
    "make_powers": "strategies",
    "make_sums": "strategies",
    "parse_model": "strategies",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
