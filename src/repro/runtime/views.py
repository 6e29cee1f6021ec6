"""Materialized view storage.

A :class:`ViewStore` holds the numeric state of one IVM session: input
matrices and every materialized view, plus the binding of symbolic
dimension names to concrete sizes.  It is deliberately dumb — a typed
dict with one ownership rule and a memory meter — so the session logic
stays readable.

**Ownership.**  Every stored matrix is exclusively store-owned: it
never shares memory with an array a caller supplied nor with another
stored name, and dense state is C-contiguous float64.  The rule is
established when a matrix *enters* the store — :meth:`ViewStore.set`
copies what callers hand in, :meth:`ViewStore.adopt` takes over a
freshly computed result and copies only when it aliases stored state —
so every later write (:meth:`ViewStore.add_outer`,
:meth:`ViewStore.add_in_place`) accumulates straight into that storage:
``view += U V'`` costs one pass over the view and no ``n^2`` temporary,
in every execution mode.  Matrices handed out by :meth:`ViewStore.get`
are therefore *live* — valid until the next update; copy what must
outlast it (:meth:`ViewStore.snapshot`).

Arrays are normalized through the session's execution backend, so a
sparse-backend session keeps low-density inputs in CSR form end to end
(see :mod:`repro.backends`).
"""

from __future__ import annotations

from typing import Iterator, Mapping

import numpy as np

from ..backends import get_backend


def _buffers(matrix) -> tuple[np.ndarray, ...]:
    """The ndarray buffers backing a stored matrix (CSR: data + indices)."""
    if isinstance(matrix, np.ndarray):
        return (matrix,)
    return (matrix.data, matrix.indices, matrix.indptr)


def _may_share(a, b) -> bool:
    return any(np.may_share_memory(x, y)
               for x in _buffers(a) for y in _buffers(b))


def _private_copy(matrix):
    if isinstance(matrix, np.ndarray):
        return np.array(matrix, dtype=np.float64, order="C")
    return matrix.copy()


class ViewStore:
    """Mutable mapping ``name -> 2-D matrix`` with dimension bindings."""

    def __init__(self, dims: Mapping[str, int] | None = None, backend=None):
        self.backend = get_backend(backend)
        self._arrays: dict[str, np.ndarray] = {}
        self.dims: dict[str, int] = dict(dims or {})

    def __contains__(self, name: str) -> bool:
        return name in self._arrays

    def __iter__(self) -> Iterator[str]:
        return iter(self._arrays)

    def names(self) -> list[str]:
        """All stored matrix names, in insertion order."""
        return list(self._arrays)

    def get(self, name: str) -> np.ndarray:
        """The stored matrix itself: live storage, valid until the next
        update (not a copy; callers must not mutate)."""
        try:
            return self._arrays[name]
        except KeyError:
            raise KeyError(f"no view or input named {name!r}") from None

    def get_dense(self, name: str) -> np.ndarray:
        """The stored matrix materialized to a dense float64 ndarray."""
        return self.backend.materialize(self.get(name))

    def set(self, name: str, value: np.ndarray) -> None:
        """Store (or replace) a caller-supplied matrix *by value*.

        The one copy a name ever gets: the caller's array is never
        written through, whatever the store does to its own afterwards.
        """
        if self.backend.is_native(value) and not isinstance(value, np.ndarray):
            self._arrays[name] = _private_copy(value)
            return
        arr = np.array(self.backend.materialize(value), dtype=np.float64, order="C")
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2:
            raise ValueError(f"view {name!r} must be 2-D, got ndim={arr.ndim}")
        self._arrays[name] = self.backend.asarray(arr)

    def adopt(self, name: str, value: np.ndarray) -> None:
        """Store (or replace) a matrix the caller hands over for good.

        For freshly computed results (a statement just evaluated):
        nothing is copied unless the ownership rule demands it.
        Evaluating ``F := B`` or ``F := A'`` returns ``B``'s own array
        or a NumPy view of ``A``'s; those — and anything not in the
        canonical dense layout — are copied here, once, so no two names
        ever accumulate into one buffer.  Every other stored name is
        checked: a reference to a reference aliases what the first one
        named.
        """
        if isinstance(value, np.ndarray):
            value = self.backend.asarray(value)
        canonical = not isinstance(value, np.ndarray) or (
            value.dtype == np.float64
            and value.flags.c_contiguous
            and value.flags.writeable
        )
        stored = self._arrays
        if not canonical or any(
            _may_share(value, stored[key]) for key in stored if key != name
        ):
            value = _private_copy(value)
        stored[name] = value

    def drop(self, name: str) -> None:
        """Forget a stored matrix (its storage is released)."""
        del self._arrays[name]

    def add_in_place(self, name: str, delta: np.ndarray) -> None:
        """Apply ``view += delta`` (the trigger's update statement),
        accumulating into the view's own storage."""
        current = self.get(name)
        if self.backend.shape(current) != self.backend.shape(delta):
            raise ValueError(
                f"update shape mismatch on {name!r}: "
                f"{self.backend.shape(current)} += {self.backend.shape(delta)}"
            )
        self._arrays[name] = self.backend.add_into(current, delta, current)

    def add_outer(self, name: str, u: np.ndarray, v: np.ndarray) -> None:
        """Apply ``view += u @ v.T`` without materializing the product.

        In place: dense state takes one ``dgemm`` (``beta = 1``) pass
        straight into the stored array; CSR state reuses its index
        arrays when the update lands on the existing pattern and is
        reallocated only when the structure itself grows.
        """
        current = self.get(name)
        rows, cols = self.backend.shape(current)
        if (
            u.shape[0] != rows
            or v.shape[0] != cols
            or u.shape[1] != v.shape[1]
        ):
            raise ValueError(
                f"update shape mismatch on {name!r}: ({rows}, {cols}) += "
                f"{u.shape} @ {v.shape}'"
            )
        self._arrays[name] = self.backend.add_outer_inplace(current, u, v)

    def converted(self, backend) -> "ViewStore":
        """This store's state re-normalized under another backend.

        The cross-backend hand-off online re-planning relies on: every
        stored matrix is carried over *by value* — CSR state densifies
        through :meth:`~repro.backends.base.Backend.materialize`, dense
        state re-enters the target backend's representation policy — so
        no view is re-evaluated.  Cost is one pass over stored entries,
        not a rebuild.  The result is an
        independent store: writes to either never reach the other.
        """
        be = get_backend(backend)
        store = ViewStore(self.dims, backend=be)
        for name, arr in self._arrays.items():
            if be.is_native(arr):
                store._arrays[name] = be.asarray(arr, copy=True)
            else:
                # materialize() of a foreign representation is fresh.
                store._arrays[name] = be.asarray(self.backend.materialize(arr))
        return store

    def as_env(self) -> dict[str, np.ndarray]:
        """A shallow dict view usable as an executor environment."""
        return dict(self._arrays)

    def snapshot(self) -> dict[str, np.ndarray]:
        """Deep copy of all arrays (for revalidation / rollback)."""
        return {name: arr.copy() for name, arr in self._arrays.items()}

    def restore(self, snapshot: Mapping[str, np.ndarray]) -> None:
        """Restore a previously taken snapshot (copies defensively)."""
        self._arrays = {
            name: self.backend.asarray(arr, copy=True)
            for name, arr in snapshot.items()
        }

    def total_bytes(self, names: Iterator[str] | None = None) -> int:
        """Memory footprint of the selected (default: all) arrays."""
        selected = list(names) if names is not None else list(self._arrays)
        return sum(self.backend.nbytes(self._arrays[name]) for name in selected)

    def __repr__(self) -> str:
        items = ", ".join(f"{k}{v.shape}" for k, v in self._arrays.items())
        return f"ViewStore({items})"
