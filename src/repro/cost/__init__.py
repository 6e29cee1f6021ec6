"""Cost model: FLOP formulas, runtime counters, Table 2 complexity, memory."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access
#: (``None``: the name is the submodule itself).
_EXPORTS = {
    "Counter": "counters",
    "Recommendation": "advisor",
    "MemoryComparison": "memory",
    "NULL_COUNTER": "counters",
    "advisor": None,
    "best_general": "advisor",
    "best_powers": "advisor",
    "complexity": None,
    "counters": None,
    "counting": "counters",
    "estimate": None,
    "flops": None,
    "gigabytes": "memory",
    "memory": None,
    "recommend_general": "advisor",
    "recommend_powers": "advisor",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
