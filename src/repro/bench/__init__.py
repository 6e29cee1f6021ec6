"""Shared benchmark harness (timing protocol + paper-style reporting)."""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "Series": "harness",
    "compare_strategies": "harness",
    "format_seconds": "reporting",
    "paper_vs_measured": "reporting",
    "render_comparison_table": "reporting",
    "render_series": "reporting",
    "time_refresh": "harness",
    "time_refresh_trimmed": "harness",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
