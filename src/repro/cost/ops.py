"""Backend-dispatched matrix operations for hand-written trigger bodies.

The iterative-model maintainers and the analytics layer execute
hand-specialized trigger bodies directly over arrays (the moral
equivalent of the paper's generated Octave code).  :class:`Ops` runs
them on one backend wrapped by :func:`~repro.cost.counters.counted`, so
a maintainer and a session report one ledger (same kernels, same keys)
of seconds *and* operations.

The actual kernels live in a :class:`~repro.backends.base.Backend`
(dense NumPy by default, SciPy CSR via ``backend="sparse"``); charged
FLOPs come from the backend's cost hooks, so a sparse matvec is billed
at its nnz-proportional cost rather than the dense ``2 n^2``.

With a :class:`~repro.runtime.workspace.Workspace` attached
(``workspace=``), the allocating kernels (:meth:`Ops.mm`,
:meth:`Ops.add`, :meth:`Ops.sub`, :meth:`Ops.scale`, :meth:`Ops.hstack`,
:meth:`Ops.vstack`) lease their result buffers from the arena instead of
allocating — the maintainers' per-refresh hot loops then allocate
nothing once warm.  Results are valid until the next refresh's frame
recycles the buffers (see the workspace module docs); maintainers open
one :meth:`Ops.frame` per refresh.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from . import counters


class Ops:
    """One backend's kernels, charging ``counter``."""

    def __init__(
        self,
        counter: counters.Counter = counters.NULL_COUNTER,
        backend=None,
        workspace=None,
    ):
        # Imported here, not at module level: the backends package sits
        # above the cost formulas it charges with, and importing it at
        # the top would close an import cycle through ``repro.cost``.
        from ..backends import get_backend
        from ..runtime.workspace import as_workspace

        self.counter = counter
        self.backend = counters.counted(get_backend(backend), counter)
        self.workspace = as_workspace(workspace)

    def frame(self):
        """One refresh's scratch scope (a no-op without a workspace).

        Maintainers wrap each refresh in ``with self.ops.frame():`` so
        every scratch buffer leased inside is reissued — not
        reallocated — on the next refresh.  Frames nest: a maintainer
        driving sub-maintainers that share the workspace keeps one
        coherent scope.
        """
        if self.workspace is None:
            return nullcontext(self)
        return self.workspace.frame()

    def _lease(self, rows: int, cols: int, *operands):
        """A scratch result buffer, if the workspace and operands allow."""
        if self.workspace is None:
            return None
        for operand in operands:
            if not isinstance(operand, np.ndarray):
                return None  # sparse results can't land in dense buffers
        return self.workspace.lease(rows, cols)

    def mm(self, a, b):
        """Matrix product ``a @ b`` (charges ``2 n m p`` dense-equivalent)."""
        n, m = self.backend.shape(a)
        m2, p = self.backend.shape(b)
        if m != m2:
            raise ValueError(f"shape mismatch in product: {(n, m)} @ {(m2, p)}")
        return self.backend.matmul_into(a, b, self._lease(n, p, a, b))

    def add(self, a, b):
        """Element-wise sum (charges ``n m``, nnz for sparse)."""
        rows, cols = self.backend.shape(a)
        return self.backend.add_into(a, b, self._lease(rows, cols, a, b))

    def add_into(self, a, b, out):
        """``a + b`` into ``out`` (which may alias ``a``: accumulation)."""
        if not isinstance(out, np.ndarray) or out.shape != tuple(
            self.backend.shape(a)
        ):
            out = None
        return self.backend.add_into(a, b, out)

    def sub(self, a, b):
        """Element-wise difference (charges ``n m``, nnz for sparse)."""
        rows, cols = self.backend.shape(a)
        return self.backend.sub_into(a, b, self._lease(rows, cols, a, b))

    def add_inplace(self, a, b):
        """``a += b`` where the representation allows; use the return value."""
        return self.backend.add_inplace(a, b)

    def add_outer_inplace(self, a, u, v):
        """The trigger update ``a += u @ v.T``; use the return value.

        Dense state accumulates in one BLAS ``dgemm`` pass straight into
        ``a`` (the explicit in-place contract of
        :meth:`~repro.backends.base.Backend.add_outer_inplace`); sparse
        state reuses its index arrays when the update lands on the
        existing pattern and merges otherwise, so callers must rebind
        the result either way.
        """
        return self.backend.add_outer_inplace(a, u, v)

    def scale(self, coeff: float, a):
        """Scalar multiple (charges ``n m``, nnz for sparse)."""
        rows, cols = self.backend.shape(a)
        return self.backend.scale_into(coeff, a, self._lease(rows, cols, a))

    def inv(self, a):
        """Matrix inverse (charges ``~2 n^3``; result is dense)."""
        return self.backend.inv(a)

    def hstack(self, blocks):
        """Horizontal concatenation (charged as a call, no FLOPs)."""
        blocks = list(blocks)
        rows = self.backend.shape(blocks[0])[0]
        cols = sum(self.backend.shape(b)[1] for b in blocks)
        return self.backend.hstack_into(
            blocks, self._lease(rows, cols, *blocks)
        )

    def vstack(self, blocks):
        """Vertical concatenation (charged as a call, no FLOPs)."""
        blocks = list(blocks)
        rows = sum(self.backend.shape(b)[0] for b in blocks)
        cols = self.backend.shape(blocks[0])[1]
        return self.backend.vstack_into(
            blocks, self._lease(rows, cols, *blocks)
        )

    def outer(self, u, v):
        """Outer-product-style product ``u @ v.T`` (charged as a matmul)."""
        return self.mm(u, self.backend.transpose(v))
