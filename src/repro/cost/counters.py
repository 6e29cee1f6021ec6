"""Runtime FLOP and byte counters.

A :class:`Counter` is threaded through the executor (and the distributed
engine) so every experiment can report *operation counts* as well as
wall-clock time.  Counts are grouped per operation kind, which lets the
Table 2 benchmarks verify that incremental triggers really do avoid
``matmul``-class work in favour of matrix-vector products.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator


class Counter:
    """Accumulates FLOPs by operation kind plus allocated bytes."""

    #: Whether :meth:`record` keeps what it is given.  Callers whose
    #: charge is itself costly to compute (:class:`~repro.cost.ops.Ops`
    #: asks the backend's cost hooks) skip the computation when false.
    recording = True

    def __init__(self) -> None:
        self.flops_by_op: dict[str, int] = defaultdict(int)
        self.calls_by_op: dict[str, int] = defaultdict(int)
        self.bytes_allocated: int = 0

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


@contextmanager
def counting() -> Iterator[Counter]:
    """Context manager yielding a fresh counter.

    Purely a readability helper::

        with counting() as ops:
            evaluate(expr, env, counter=ops)
        assert ops.flops("matmul") == 0
    """
    yield Counter()
