"""Pluggable execution backends for the evaluation spine.

The maintenance machinery (executor, triggers, iterative maintainers,
batch compaction, distributed tiles) is written against the
:class:`~repro.backends.base.Backend` kernel interface; this package
provides the dense (NumPy, default) and sparse (SciPy CSR)
implementations plus a tiny registry:

>>> from repro.backends import get_backend
>>> get_backend("dense").name
'dense'

Anywhere the API accepts a ``backend=`` argument it takes a backend
name, a :class:`Backend` instance, or ``None`` for the process default.
"""

from __future__ import annotations

import os
from copy import copy
from pathlib import Path

from .._lazy import lazy_exports
from .base import Backend, MatrixLike
from .dense import DenseBackend

#: ``SparseBackend`` loads on first use (:func:`get_backend` included):
#: a session that never asks for it never imports it.
_EXPORTS = {"SparseBackend": "sparse"}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

#: Shared default instance — the seed's exact dense semantics.
DENSE = DenseBackend()


def _sparse() -> Backend:
    from .sparse import SparseBackend

    return SparseBackend()


_FACTORIES = {"dense": lambda: DENSE, "sparse": _sparse}

#: The sparse backend's entry rule: a matrix is stored CSR when both
#: dimensions reach ``SPARSE_MIN_DIM`` and its density is at or under
#: ``SPARSIFY_BELOW`` (the :class:`SparseBackend` constructor defaults).
SPARSE_MIN_DIM = 64
SPARSIFY_BELOW = 0.10


def stores_sparse(rows: int, cols: int, density: float,
                  min_dim: int = SPARSE_MIN_DIM,
                  below: float = SPARSIFY_BELOW) -> bool:
    """Whether the sparse backend stores such a matrix as CSR on entry."""
    return min(rows, cols) >= min_dim and density <= below


#: name -> "would a default instance store a ``(rows, cols, density)``
#: operand in its own format?" — stated here so the planners can ask
#: without importing the engine.
_NATIVE_FORMAT = {"dense": lambda rows, cols, density: True,
                  "sparse": stores_sparse}


def available_backends() -> list[str]:
    """Registered backend names."""
    return sorted(_FACTORIES)


def admissible_backends(operands) -> list[str]:
    """The default planning grid over ``operands``; dense first.

    ``operands`` are the ``(rows, cols, density)`` of the matrices a
    workload starts from.  A backend is admissible when it would store
    at least one of them in its own format: a backend that stores none
    runs the dense kernels on dense state, so its cell can never change
    a decision (docs/cost-model.md, "Admissible cells").
    """
    operands = list(operands)
    return [name for name, native in _NATIVE_FORMAT.items()
            if any(native(*operand) for operand in operands)]


def get_backend(backend: "str | Backend | None") -> Backend:
    """Resolve a backend name / instance / ``None`` to an instance.

    ``None`` resolves to the shared dense default; names go through the
    registry (``"sparse"`` constructs a fresh :class:`SparseBackend`
    with default thresholds — build one yourself for custom cutoffs).
    """
    if backend is None:
        return DENSE
    if isinstance(backend, Backend):
        return backend
    try:
        return _FACTORIES[backend]()
    except KeyError:
        raise ValueError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        ) from None

#: Environment variable overriding the calibration cache path (``off``
#: disables); see :mod:`repro.calibrate`.
CACHE_ENV = "REPRO_CALIBRATION"

#: Values of :data:`CACHE_ENV` that disable cache loading entirely.
_DISABLED = {"off", "none", "0", "disabled"}


def default_cache_path() -> Path | None:
    """Where the calibration cache lives (None when disabled via env)."""
    env = os.environ.get(CACHE_ENV)
    if env is not None:
        if env.strip().lower() in _DISABLED:
            return None
        return Path(env)
    return Path.home() / ".cache" / "linview-repro" / "calibration.json"


def calibrated(
    backend: "str | Backend | None",
    calibration: "Calibration | None | str" = "auto",
) -> Backend:
    """Resolve ``backend`` with calibrated cost constants applied.

    ``calibration="auto"`` (the planner default) uses the memoized
    default-path cache; ``None`` disables calibration; a
    :class:`~repro.calibrate.Calibration` is used verbatim.  When
    constants apply, a *shallow copy* of the backend is returned so
    shared instances (the ``DENSE`` singleton, caller-provided
    backends) keep their class defaults for everyone else.

    The planners resolve every cell through here, so the fitting code
    and cache format of :mod:`repro.calibrate` are imported only when
    there is a cache file to read (or the caller built a calibration).
    """
    be = get_backend(backend)
    if calibration == "auto":
        path = default_cache_path()
        if path is None or not path.exists():
            return be
        from ..calibrate import autoload

        calibration = autoload()
    if calibration is None or calibration.get(be.name) is None:
        return be
    return calibration.apply(copy(be))


__all__ = [
    "DENSE",
    "Backend",
    "DenseBackend",
    "MatrixLike",
    "SparseBackend",
    "available_backends",
    "get_backend",
]
