"""Delta calculus: derivation, factored representation, incremental inverses.

This package implements Section 4 of the paper:

* :mod:`~repro.delta.rules` — per-operator delta rules (4.1) with
  common-factor extraction (4.3);
* :mod:`~repro.delta.factored` — the ``U @ V'`` factored form (4.2);
* :mod:`~repro.delta.derivation` — ``ComputeDelta`` over whole
  expressions, the workhorse of Algorithm 1;
* :mod:`~repro.delta.multi` — the sequential multi-update rule (4.4);
* :mod:`~repro.delta.inverse` — numeric Sherman–Morrison / Woodbury.
"""

from .batch import (
    BatchCollector,
    compact_factors,
    compact_updates,
    stack_updates,
)
from .derivation import UnsupportedDeltaError, compute_delta
from .factored import FactoredDelta
from .inverse import (
    SingularUpdateError,
    sequential_sherman_morrison,
    sherman_morrison_apply,
    sherman_morrison_delta,
    woodbury_apply,
    woodbury_delta,
)
from .multi import compute_delta_sequential
from .qr import QRView, qr_rank_one_update
from .svd import SVDView, svd_rank_one_update
from .rules import (
    delta_add,
    delta_inverse,
    delta_product,
    delta_scalar_mul,
    delta_transpose,
)

__all__ = [
    "BatchCollector",
    "FactoredDelta",
    "QRView",
    "SVDView",
    "SingularUpdateError",
    "UnsupportedDeltaError",
    "compact_factors",
    "compact_updates",
    "compute_delta",
    "compute_delta_sequential",
    "delta_add",
    "delta_inverse",
    "delta_product",
    "delta_scalar_mul",
    "delta_transpose",
    "qr_rank_one_update",
    "sequential_sherman_morrison",
    "sherman_morrison_apply",
    "sherman_morrison_delta",
    "stack_updates",
    "svd_rank_one_update",
    "woodbury_apply",
    "woodbury_delta",
]
