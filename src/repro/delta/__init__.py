"""Delta calculus: derivation, factored representation, batching.

This package implements Section 4 of the paper:

* :mod:`~repro.delta.rules` — per-operator delta rules (4.1) with
  common-factor extraction (4.3), the Woodbury rule for ``inv``
  among them;
* :mod:`~repro.delta.factored` — the ``U @ V'`` factored form (4.2);
* :mod:`~repro.delta.derivation` — ``ComputeDelta`` over whole
  expressions, the workhorse of Algorithm 1;
* :mod:`~repro.delta.batch` — QR+SVD compaction of stacked updates
  (Table 4 batching).

Numeric deltas are not computed here: a session runs the compiled
triggers these rules derive (:mod:`repro.compiler`).
"""

from .._lazy import lazy_exports

#: Public name -> defining submodule, imported on first access.
_EXPORTS = {
    "BatchCollector": "batch",
    "FactoredDelta": "factored",
    "UnsupportedDeltaError": "derivation",
    "compact_factors": "batch",
    "compact_updates": "batch",
    "compute_delta": "derivation",
    "delta_add": "rules",
    "delta_inverse": "rules",
    "delta_product": "rules",
    "delta_scalar_mul": "rules",
    "delta_transpose": "rules",
    "stack_updates": "batch",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
