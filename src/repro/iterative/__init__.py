"""Iterative models (Section 3.2) and evaluation strategies (Section 5):
each family is a Table 1 program (:func:`program`) on a session."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "FAMILIES": "recurrences",
    "HYBRID": "strategies",
    "INCR": "strategies",
    "Model": "models",
    "REEVAL": "strategies",
    "STRATEGIES": "strategies",
    "SessionMaintainer": "strategies",
    "is_power_of_two": "models",
    "make_general": "strategies",
    "make_powers": "strategies",
    "make_sums": "strategies",
    "parse_model": "strategies",
    "program": "recurrences",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
