"""Runtime FLOP and byte counters, charged by the backend kernels.

A :class:`Counter` is one ledger: FLOPs and calls per backend kernel,
plus the bytes of the results kernels allocate.  :func:`counted` makes
a backend's kernels charge it, and sessions and the catalog run on such
a backend — so interpret and codegen triggers and re-evaluation, the
iterative families' included, report one ledger, which lets the Table 2
benchmarks verify that incremental triggers avoid ``n x n`` products in
favour of thin ones.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from copy import copy
from typing import Iterator
from weakref import WeakValueDictionary


class Counter:
    """Accumulates FLOPs and calls by kernel, plus allocated bytes."""

    #: Whether :meth:`record` keeps what it is given; :func:`counted`
    #: wraps nothing for a counter that does not.
    recording = True

    def __init__(self) -> None:
        self.flops_by_op: dict[str, int] = defaultdict(int)
        self.calls_by_op: dict[str, int] = defaultdict(int)
        self.bytes_allocated: int = 0
        #: ``id(backend)`` -> its charging copy (:func:`counted`).
        self._charging: WeakValueDictionary = WeakValueDictionary()

    def record(self, op: str, flops: int, out_bytes: int = 0) -> None:
        """Charge ``flops`` to operation kind ``op``."""
        self.flops_by_op[op] += flops
        self.calls_by_op[op] += 1
        self.bytes_allocated += out_bytes

    @property
    def total_flops(self) -> int:
        """Sum of FLOPs over all operation kinds."""
        return sum(self.flops_by_op.values())

    def flops(self, op: str) -> int:
        """FLOPs charged to one operation kind (0 if never used)."""
        return self.flops_by_op.get(op, 0)

    def reset(self) -> None:
        """Zero all tallies."""
        self.flops_by_op.clear()
        self.calls_by_op.clear()
        self.bytes_allocated = 0

    def snapshot(self) -> dict[str, int]:
        """A plain-dict copy of the per-op FLOP tallies."""
        return dict(self.flops_by_op)

    def merge(self, other: "Counter") -> None:
        """Fold another counter's tallies into this one."""
        for op, flops in other.flops_by_op.items():
            self.flops_by_op[op] += flops
        for op, calls in other.calls_by_op.items():
            self.calls_by_op[op] += calls
        self.bytes_allocated += other.bytes_allocated

    def __repr__(self) -> str:
        parts = ", ".join(f"{op}={v:,}" for op, v in sorted(self.flops_by_op.items()))
        return f"Counter(total={self.total_flops:,}; {parts})"


class NullCounter(Counter):
    """A counter that ignores everything (zero-overhead default)."""

    recording = False

    def record(self, op: str, flops: int, out_bytes: int = 0) -> None:  # noqa: D102
        pass


NULL_COUNTER = NullCounter()


def _hooks(be) -> dict:
    """Kernel -> ``hook(*args)``: its FLOPs and the object it writes
    (``out`` or the operand it updates; ``None``: it always allocates)."""
    return {
        "matmul_into": lambda a, b, out=None: (be.matmul_flops(a, b), out),
        "add_into": lambda a, b, out=None: (be.add_flops(a), out),
        "sub_into": lambda a, b, out=None: (be.add_flops(a), out),
        "scale_into": lambda coeff, a, out=None: (be.scale_flops(a), out),
        "hstack_into": lambda blocks, out=None: (0, out),
        "vstack_into": lambda blocks, out=None: (0, out),
        "add_inplace": lambda a, b: (be.add_flops(a), a),
        "add_outer_inplace": lambda a, u, v: (be.add_outer_flops(a, u, v), a),
        "inv": lambda a: (be.inverse_flops(a), None),
    }


def _charging(name: str, kernel, hook, record, nbytes):
    def charged(*args, **kwargs):
        flops, kept = hook(*args, **kwargs)
        result = kernel(*args, **kwargs)
        record(name, flops, 0 if result is kept else nbytes(result))
        return result

    return charged


def counted(backend, counter: Counter):
    """``backend`` with every kernel charging ``counter``: the one place
    a FLOP is counted.

    Under a non-recording counter (:data:`NULL_COUNTER`) this is
    ``backend`` itself.  Otherwise it is a shallow copy whose kernels
    record each call under their own name — FLOPs from the backend's
    ``*_flops`` hooks (stacks cost 0, ``sub_into`` is an add), bytes of
    the result only when it is a new object rather than ``out`` or the
    operand updated in place — then run the original kernel.
    ``transpose`` is an alias, not a kernel.  There is one copy per
    ``(backend, counter)``, and wrapping the copy returns it, so state
    handed between sessions on one counter keeps one backend and every
    call is charged once.
    """
    if not counter.recording or getattr(backend, "_counter", None) is counter:
        return backend
    wrapped = counter._charging.get(id(backend))
    if wrapped is None:
        wrapped = counter._charging[id(backend)] = copy(backend)
        wrapped._counter, wrapped._uncounted = counter, backend
        for name, hook in _hooks(backend).items():
            setattr(wrapped, name, _charging(name, getattr(backend, name),
                                             hook, counter.record,
                                             backend.nbytes))
    return wrapped


def uncounted(backend):
    """The backend :func:`counted` copied (``backend`` if not a copy):
    for work that is not maintenance — an initial build, a check."""
    return getattr(backend, "_uncounted", backend)


@contextmanager
def counting() -> Iterator[Counter]:
    """Context manager yielding a fresh counter.

    Purely a readability helper.  Every execution path runs a lowered
    list through the same kernels, so a one-off
    :func:`~repro.runtime.executor.evaluate` charges exactly what a
    session running the same records would::

        with counting() as ops:
            evaluate(product, env, backend=counted(DENSE, ops))
        assert dict(ops.calls_by_op) == {"matmul_into": 1}
    """
    yield Counter()
