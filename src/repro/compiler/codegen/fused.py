"""Fused, buffer-reusing trigger specialization (the zero-alloc path).

:mod:`.python_gen` lowers a trigger to *generic* Python: every kernel
allocates its result, every call re-dispatches through the backend, and
shapes are rediscovered per call.  That is the right artifact for
humans and for symbolic dimensions — and the wrong one for the steady
state, where a session fires the same trigger millions of times over
matrices whose shapes never change.  This module is the second, hotter
lowering: given a trigger, a **bound** ``dims`` mapping and a backend,
:func:`generate_fused_trigger` resolves every expression node's shape
to concrete integers at *compile* time and emits a flat function whose
temporaries are **preallocated buffers** leased once from a
:class:`~repro.runtime.workspace.Workspace`:

* every product/sum/scale runs through the backend's ``*_into``
  kernels (``np.matmul(..., out=)``, ufunc ``out=``) into its
  preassigned buffer — no result allocation;
* additions accumulate with ``+=``-style aliasing
  (``add_into(acc, t, acc)``);
* transposes of views and params are hoisted to one locals-binding at
  function top instead of being re-derived inside every expression;
* identity/zero leaves are materialized once at compile time;
* update statements apply through :meth:`add_outer_inplace
  <repro.backends.base.Backend.add_outer_inplace>` — views mutate in
  place, like every other execution path
  (:mod:`repro.runtime.views`).  All delta expressions are evaluated
  before any view is touched: evaluate-all-then-apply-all is what
  upholds the trigger contract (deltas read only old values).

After one warm-up firing the function performs **zero heap
allocation** on the dense backend (``tracemalloc``-verified in
``benchmarks/bench_fused_hotpath.py``); sparse state falls back to
allocation exactly where CSR structure forbids in-place writes.

Triggers containing nodes without an in-place lowering (``Inverse``),
or whose dimensions cannot be resolved from ``dims``, raise
:class:`FusedUnsupported` — callers (``IVMSession``) fall back to the
generic :func:`~.python_gen.compile_trigger_function` path.

Generated signature matches the generic path::

    def on_update_A(views, u_A, v_A, dims=None): ...

with ``fn.__source__`` (the emitted text), ``fn.__rank__`` (the update
width the buffers were sized for — off-width updates must take the
generic path) and ``fn.__workspace__`` attached.
"""

from __future__ import annotations

from typing import Callable, Mapping

import numpy as np

from ...expr.ast import (
    Add,
    Expr,
    HStack,
    Identity,
    MatMul,
    MatrixSymbol,
    ScalarMul,
    Transpose,
    VStack,
    ZeroMatrix,
)
from ...expr.visitors import walk
from ..trigger import Trigger
from .python_gen import _referenced_views, outer_operands


class FusedUnsupported(TypeError):
    """The trigger cannot be lowered to the fused in-place form."""


def _resolve(dim, dims: Mapping[str, int]) -> int:
    """Resolve a DimLike to a concrete int or raise FusedUnsupported."""
    # Local twin of runtime.executor.resolve_dim raising the fallback
    # signal instead of EvaluationError (and avoiding an import cycle).
    if isinstance(dim, bool) or dim is None:
        raise FusedUnsupported(f"cannot resolve dimension {dim!r}")
    if isinstance(dim, int):
        return dim
    name = getattr(dim, "name", None)
    if name is not None:
        try:
            return int(dims[name])
        except KeyError:
            raise FusedUnsupported(f"unbound dimension {name!r}") from None
    atoms = getattr(dim, "atoms", None)
    if atoms is not None:
        return sum(_resolve(a, dims) for a in atoms) + int(dim.const)
    raise FusedUnsupported(f"cannot resolve dimension {dim!r}")


def _copy_into(out: np.ndarray, src) -> np.ndarray:
    """Materialize ``src`` into the buffer ``out`` (dense fast path)."""
    if isinstance(src, np.ndarray):
        np.copyto(out, src)
        return out
    return src.copy()  # sparse fallback: buffers cannot hold CSR


class _Emitter:
    """Accumulates generated lines, buffer specs and compile-time consts."""

    def __init__(self, dims: Mapping[str, int]):
        self.dims = dims
        self.lines: list[str] = []
        #: name -> (rows, cols) of every workspace buffer, in lease order.
        self.buffers: list[tuple[str, int, int]] = []
        #: name -> zero-arg factory run once at compile time.
        self.constants: dict[str, Callable] = {}
        self._locals = 0

    def shape(self, expr: Expr) -> tuple[int, int]:
        return (_resolve(expr.shape.rows, self.dims),
                _resolve(expr.shape.cols, self.dims))

    def buffer(self, rows: int, cols: int) -> str:
        name = f"_b{len(self.buffers)}"
        self.buffers.append((name, int(rows), int(cols)))
        return name

    def local(self) -> str:
        self._locals += 1
        return f"_t{self._locals}"

    def emit(self, line: str) -> None:
        self.lines.append(f"    {line}")

    def constant(self, factory: Callable) -> str:
        name = f"_c{len(self.constants)}"
        self.constants[name] = factory
        return name


def _emit_expr(em: _Emitter, expr: Expr, transposed_views: Mapping[str, str]):
    """Emit statements computing ``expr``; return (fragment, buffer).

    ``fragment`` is the source naming the result (a function local);
    ``buffer`` is the name of the workspace buffer backing it, or
    ``None`` when the fragment merely aliases a view/param/constant.
    Buffer names are *globals* of the generated function (the leased
    arrays bind into its namespace), so results always land in fresh
    locals — assigning to a buffer name would shadow the binding.
    """
    if isinstance(expr, MatrixSymbol):
        return expr.name, None
    if isinstance(expr, Transpose):
        child = expr.child
        if isinstance(child, MatrixSymbol) and child.name in transposed_views:
            return transposed_views[child.name], None
        frag, _ = _emit_expr(em, child, transposed_views)
        return f"{frag}.T", None
    if isinstance(expr, Identity):
        rows, _ = em.shape(expr)
        return em.constant(lambda n=rows: ("eye", n)), None
    if isinstance(expr, ZeroMatrix):
        rows, cols = em.shape(expr)
        return em.constant(lambda r=rows, c=cols: ("zeros", r, c)), None
    if isinstance(expr, MatMul):
        frag, _ = _emit_expr(em, expr.children[0], transposed_views)
        rows = em.shape(expr.children[0])[0]
        for child in expr.children[1:]:
            rhs, _ = _emit_expr(em, child, transposed_views)
            cols = em.shape(child)[1]
            buf = em.buffer(rows, cols)
            out = em.local()
            em.emit(f"{out} = _mm({frag}, {rhs}, {buf})")
            frag = out
        return frag, buf
    if isinstance(expr, Add):
        first = expr.children[0]
        frag, buf = _emit_expr(em, first, transposed_views)
        if buf is None:
            buf = em.buffer(*em.shape(first))
            out = em.local()
            em.emit(f"{out} = _copy({buf}, {frag})")
            frag = out
        for term in expr.children[1:]:
            out = em.local()
            if isinstance(term, ScalarMul) and term.coeff == -1.0:
                rhs, _ = _emit_expr(em, term.child, transposed_views)
                em.emit(f"{out} = _sub({frag}, {rhs}, {buf})")
            else:
                rhs, _ = _emit_expr(em, term, transposed_views)
                em.emit(f"{out} = _add({frag}, {rhs}, {buf})")
            frag = out
        return frag, buf
    if isinstance(expr, ScalarMul):
        frag, _ = _emit_expr(em, expr.child, transposed_views)
        buf = em.buffer(*em.shape(expr))
        out = em.local()
        em.emit(f"{out} = _scale({expr.coeff!r}, {frag}, {buf})")
        return out, buf
    if isinstance(expr, (HStack, VStack)):
        frags = [
            _emit_expr(em, child, transposed_views)[0]
            for child in expr.children
        ]
        buf = em.buffer(*em.shape(expr))
        out = em.local()
        cat = "_hcat" if isinstance(expr, HStack) else "_vcat"
        em.emit(f"{out} = {cat}([{', '.join(frags)}], {buf})")
        return out, buf
    raise FusedUnsupported(
        f"no in-place lowering for node {type(expr).__name__}"
    )


def _hoistable_transposes(trigger: Trigger) -> list[str]:
    """Names whose plain transpose the trigger reads (views and params)."""
    local = set(trigger.temp_names)
    names: list[str] = []
    exprs = [a.expr for a in trigger.assigns] + [u.expr for u in trigger.updates]
    for expr in exprs:
        for node in walk(expr):
            if (
                isinstance(node, Transpose)
                and isinstance(node.child, MatrixSymbol)
                and node.child.name not in local
                and node.child.name not in names
            ):
                names.append(node.child.name)
    return names


def generate_fused_trigger(
    trigger: Trigger,
    dims: Mapping[str, int],
    function_name: str | None = None,
) -> tuple[str, list[tuple[str, int, int]], dict[str, Callable]]:
    """Fused source plus its buffer plan and compile-time constants.

    Returns ``(source, buffers, constants)``: ``buffers`` lists the
    ``(name, rows, cols)`` scratch buffers the function expects bound in
    its globals (lease them from a workspace, in order), ``constants``
    maps names to ``("eye", n)`` / ``("zeros", r, c)`` factory specs.
    """
    name = function_name or f"on_update_{trigger.input_name}"
    params = ", ".join(p.name for p in trigger.params)
    em = _Emitter(dims)
    views = _referenced_views(trigger)

    # Bind every referenced view to a local before anything runs; hoist
    # transposes of stable operands (views and update params) so inner
    # expressions reuse one view object per firing.
    transposed: dict[str, str] = {}
    header = [
        f"def {name}(views, {params}, dims=None):",
        f'    """Fused in-place maintenance for updates to '
        f'{trigger.input_name}."""',
    ]
    for view in views:
        header.append(f"    {view} = views[{view!r}]")
    for sym in _hoistable_transposes(trigger):
        transposed[sym] = f"_T_{sym}"
        header.append(f"    _T_{sym} = {sym}.T")

    # Phase 1: assigns (delta factor blocks), old values only.  A bare
    # alias result (e.g. ``U_B := u_A``) is snapshotted into a buffer:
    # temporaries must never share storage with something a later
    # in-place application could mutate.
    for assign in trigger.assigns:
        frag, buf = _emit_expr(em, assign.expr, transposed)
        if buf is None:
            buf = em.buffer(*em.shape(assign.expr))
            out = em.local()
            em.emit(f"{out} = _copy({buf}, {frag})")
            frag = out
        em.emit(f"{assign.target.name} = {frag}")

    # Phase 2: evaluate every non-factored update delta before any view
    # mutates (views are written in place, so the
    # evaluate-all-then-apply-all order carries the contract alone).
    applies: list[str] = []
    for update in trigger.updates:
        target = update.view.name
        operands = outer_operands(update.expr)
        if operands is not None:
            u_name, v_name = operands
            applies.append(
                f"views[{target!r}] = _outer({target}, {u_name}, {v_name})"
            )
        else:
            frag, _ = _emit_expr(em, update.expr, transposed)
            applies.append(f"views[{target!r}] = _applyadd({target}, {frag})")

    # Phase 3: apply all deltas in place.
    for line in applies:
        em.emit(line)

    source = "\n".join(header + em.lines) + "\n"
    return source, em.buffers, em.constants


def compile_fused_trigger(
    trigger: Trigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
) -> Callable:
    """Compile the fused form of ``trigger`` against concrete ``dims``.

    Scratch buffers are leased from ``workspace`` (one is created when
    ``None``) at *compile* time, in a fresh top-level lease scope —
    triggers compiled against the same workspace share buffers by
    shape, which is safe because trigger firings never interleave.
    Raises :class:`FusedUnsupported` when the trigger contains a node
    with no in-place lowering or a dimension ``dims`` does not bind.
    """
    from ...backends import get_backend
    from ...runtime.workspace import Workspace

    be = get_backend(backend)
    source, buffers, constants = generate_fused_trigger(trigger, dims)
    ws = workspace if workspace is not None else Workspace()

    namespace: dict[str, object] = {
        "np": np,
        "_mm": be.matmul_into,
        "_add": be.add_into,
        "_sub": be.sub_into,
        "_scale": be.scale_into,
        "_hcat": be.hstack_into,
        "_vcat": be.vstack_into,
        "_outer": be.add_outer_inplace,
        "_applyadd": be.add_inplace,
        "_copy": _copy_into,
    }
    ws.begin()
    for buf_name, rows, cols in buffers:
        namespace[buf_name] = ws.lease(rows, cols)
    for const_name, factory in constants.items():
        spec = factory()
        if spec[0] == "eye":
            namespace[const_name] = be.eye(spec[1])
        else:
            namespace[const_name] = be.zeros(spec[1], spec[2])

    exec(compile(source, f"<fused-trigger:{trigger.input_name}>", "exec"),
         namespace)
    fn = namespace[f"on_update_{trigger.input_name}"]
    fn.__source__ = source  # type: ignore[attr-defined]
    fn.__rank__ = _resolve(  # type: ignore[attr-defined]
        trigger.params[0].shape.cols, dims
    )
    fn.__workspace__ = ws  # type: ignore[attr-defined]
    return fn


__all__ = [
    "FusedUnsupported",
    "compile_fused_trigger",
    "generate_fused_trigger",
]
