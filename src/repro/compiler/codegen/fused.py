"""The lowered trigger form: one lowering, a loop and a printer over it.

A trigger's execution must equal re-evaluation, and every harness in
the repository states that promise against ``mode="interpret"`` — so
the two execution modes must be the same computation, not two
renderings of the same intent.  :func:`lower_trigger` is the **only**
place a trigger's expression nodes become backend kernels.  It flattens
the trigger into a :class:`LoweredTrigger`: a shape-symbolic list of
``(kernel, dst, srcs)`` records in which everything an executor could
decide differently is already decided —

* every product/sum/scale/concatenation names the scratch buffer it
  writes (the kernels are the backend's ``*_into`` forms; the buffer is
  the last operand), additions accumulate into their first term's
  storage, and an aliasing first term or assign result is materialized
  by an explicit ``copy`` into a buffer first — so operand layouts
  (C-contiguous buffers, transposed views) are fixed by the list;
* transposes of views and update params are hoisted to one record each
  at the top of the list;
* identity/zero leaves are named constants, built once when the list is
  bound;
* the evaluate-all-then-apply-all order that upholds the trigger
  contract (deltas read only old values, views are written in place) is
  the list's own order: ``ops`` first, ``applies`` last.

Shapes stay symbolic until the list is **bound** to a ``dims`` mapping:
constants are materialized, and each buffer is leased once from a
:class:`~repro.runtime.workspace.Workspace` at the trigger's compiled
update width.  Two executors run a bound list, and nothing else runs a
trigger:

* :func:`compile_trigger_function` — ``mode="interpret"``: a loop over
  the records, charging a FLOP :class:`~repro.cost.counters.Counter`
  per record exactly as :func:`~repro.runtime.executor.evaluate` would;
* :func:`compile_fused_trigger` — ``mode="codegen"``:
  :func:`generate_python_trigger` prints the records as one flat
  Python function, ``exec``-compiled once.

Both call the same kernel callables on the same operands in the same
order, so they agree bit for bit on the dense backend by construction;
after one warm-up firing neither allocates (sparse state falls back to
allocation exactly where CSR structure forbids in-place writes).  An
update whose width differs from the compiled one runs the same records
with ``None`` in every buffer operand — the kernels then allocate their
results — instead of a second lowering, and leases nothing, so a stream
of many distinct widths does not grow the workspace.  ``Inverse`` has
no ``out=`` kernel and always allocates.

Function signature, both executors::

    on_update_A(views, u_A, v_A)

where ``views`` maps names to store-owned arrays (written in place).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ...cost import counters
from ...cost.ops import outer_update_flops
from ...expr.ast import (
    Add,
    Expr,
    HStack,
    Identity,
    Inverse,
    MatMul,
    MatrixSymbol,
    ScalarMul,
    Transpose,
    VStack,
    ZeroMatrix,
)
from ...expr.shapes import DimLike, Shape
from ...expr.visitors import walk
from ...runtime.executor import resolve_dim
from ..trigger import Trigger


class Op(NamedTuple):
    """One kernel call: ``dst = kernel(*srcs)``."""

    #: Key of the kernel table (:func:`_kernels`).
    kernel: str
    #: Name bound to the result — for an apply, the view written.
    dst: str
    #: Operand names in call order (the ``out=`` buffer last); the one
    #: non-name operand is ``scale``'s leading float coefficient.
    srcs: tuple


@dataclass(frozen=True)
class LoweredTrigger:
    """A trigger as a flat, shape-symbolic kernel list."""

    input_name: str
    #: The update's factor names (``u_A``, ``v_A``).
    params: tuple[str, ...]
    #: Update width the buffers are shaped for.
    rank: DimLike
    #: Store names read at entry, in first-use order.
    views: tuple[str, ...]
    #: Name -> ``("eye", n)`` / ``("zeros", rows, cols)``, built at bind.
    constants: dict[str, tuple]
    #: Name -> symbolic shape of each scratch buffer, in lease order.
    buffers: dict[str, Shape]
    #: Phase 1: every factor block and delta, from old values only.
    ops: tuple[Op, ...]
    #: Phase 2: the in-place view writes.
    applies: tuple[Op, ...]


def outer_operands(expr: Expr) -> "tuple[str, str] | None":
    """Match the canonical factored-delta shape ``U @ V'``.

    Returns the ``(U, V)`` symbol names when ``expr`` is exactly a
    two-factor product of a symbol with a transposed symbol (the form
    Algorithm 1 emits for every update statement), else ``None``.
    Callers use the match to apply updates through the backend's
    ``add_outer`` kernel instead of materializing the delta densely.
    """
    if (
        isinstance(expr, MatMul)
        and len(expr.children) == 2
        and isinstance(expr.children[0], MatrixSymbol)
        and isinstance(expr.children[1], Transpose)
        and isinstance(expr.children[1].child, MatrixSymbol)
    ):
        return expr.children[0].name, expr.children[1].child.name
    return None


def _referenced_views(trigger: Trigger) -> list[str]:
    """View names referenced by the trigger, excluding params and temps."""
    local = {p.name for p in trigger.params} | set(trigger.temp_names)
    names: list[str] = []
    seen: set[str] = set()
    exprs = [a.expr for a in trigger.assigns] + [u.expr for u in trigger.updates]
    for view in trigger.updated_views:
        if view not in seen:
            seen.add(view)
            names.append(view)
    for expr in exprs:
        for node in walk(expr):
            if (
                isinstance(node, MatrixSymbol)
                and node.name not in local
                and node.name not in seen
            ):
                seen.add(node.name)
                names.append(node.name)
    return names


def lower_trigger(trigger: Trigger) -> LoweredTrigger:
    """Lower ``trigger`` to its kernel list (see the module docstring)."""
    temps = set(trigger.temp_names)
    constants: dict[str, tuple] = {}
    buffers: dict[str, Shape] = {}
    hoisted: dict[str, Op] = {}
    ops: list[Op] = []

    def emit(kernel: str, *srcs, into: Shape | None = None) -> str:
        """Append one record; ``into`` plans its destination buffer."""
        if into is not None:
            buffer = f"_b{len(buffers)}"
            buffers[buffer] = into
            srcs += (buffer,)
        dst = f"_t{len(ops) + 1}"
        ops.append(Op(kernel, dst, srcs))
        return dst

    def lower(expr: Expr) -> tuple[str, bool]:
        """Records computing ``expr``; its name, and whether the value
        is a fresh temporary (which a sum may accumulate into) rather
        than an alias of a view, param, constant or assigned block."""
        if isinstance(expr, MatrixSymbol):
            return expr.name, False
        if isinstance(expr, Transpose):
            child = expr.child
            if isinstance(child, MatrixSymbol) and child.name not in temps:
                # Views and params do not change while deltas evaluate:
                # one transposed view per firing, at the top of the list.
                name = f"_T_{child.name}"
                hoisted.setdefault(
                    name, Op("transpose", name, (child.name,)))
                return name, False
            return emit("transpose", lower(child)[0]), False
        if isinstance(expr, (Identity, ZeroMatrix)):
            name = f"_c{len(constants)}"
            constants[name] = (("eye", expr.shape.rows)
                               if isinstance(expr, Identity)
                               else ("zeros", *expr.shape))
            return name, False
        if isinstance(expr, MatMul):
            name, _ = lower(expr.children[0])
            rows = expr.children[0].shape.rows
            for child in expr.children[1:]:
                rhs, _ = lower(child)
                name = emit("matmul", name, rhs,
                            into=Shape(rows, child.shape.cols))
            return name, True
        if isinstance(expr, Add):
            name, fresh = lower(expr.children[0])
            if not fresh:
                name = emit("copy", name, into=expr.shape)
            for term in expr.children[1:]:
                if isinstance(term, ScalarMul) and term.coeff == -1.0:
                    name = emit("sub", name, lower(term.child)[0], name)
                else:
                    name = emit("add", name, lower(term)[0], name)
            return name, True
        if isinstance(expr, ScalarMul):
            return emit("scale", expr.coeff, lower(expr.child)[0],
                        into=expr.shape), True
        if isinstance(expr, (HStack, VStack)):
            blocks = [lower(child)[0] for child in expr.children]
            kernel = "hstack" if isinstance(expr, HStack) else "vstack"
            return emit(kernel, *blocks, into=expr.shape), True
        if isinstance(expr, Inverse):
            return emit("inv", lower(expr.child)[0]), True
        raise TypeError(f"cannot lower node {type(expr).__name__}")

    # Phase 1a: assigns (delta factor blocks), old values only.  A bare
    # alias result (``U_B := u_A``) is snapshotted into a buffer:
    # temporaries must never share storage with something a later
    # in-place application could mutate.
    for assign in trigger.assigns:
        name, fresh = lower(assign.expr)
        if not fresh:
            name = emit("copy", name, into=assign.expr.shape)
        ops[-1] = ops[-1]._replace(dst=assign.target.name)

    # Phase 1b: every delta that is not already a pair of factor blocks
    # is evaluated before any view mutates.  Phase 2: apply all.
    applies: list[Op] = []
    for update in trigger.updates:
        target = update.view.name
        factors = outer_operands(update.expr)
        if factors is not None:
            applies.append(Op("outer", target, (target, *factors)))
        else:
            applies.append(
                Op("applyadd", target, (target, lower(update.expr)[0])))

    return LoweredTrigger(
        input_name=trigger.input_name,
        params=tuple(p.name for p in trigger.params),
        rank=trigger.params[0].shape.cols,
        views=tuple(_referenced_views(trigger)),
        constants=constants,
        buffers=buffers,
        ops=(*hoisted.values(), *ops),
        applies=tuple(applies),
    )


def _copy_into(src, out):
    """Materialize ``src`` in the buffer ``out`` (dense fast path)."""
    if out is not None and isinstance(src, np.ndarray):
        np.copyto(out, src)
        return out
    return src.copy()  # no buffer, or CSR (buffers cannot hold it)


def _kernels(be) -> dict[str, Callable]:
    """Kernel name -> callable over an :class:`Op`'s ``srcs``, in order."""
    return {
        "transpose": operator.attrgetter("T"),
        "copy": _copy_into,
        "matmul": be.matmul_into,
        "add": be.add_into,
        "sub": be.sub_into,
        "scale": be.scale_into,
        "hstack": lambda *args: be.hstack_into(args[:-1], args[-1]),
        "vstack": lambda *args: be.vstack_into(args[:-1], args[-1]),
        "inv": be.inv,
        "outer": be.add_outer_inplace,
        "applyadd": be.add_inplace,
    }


def _charges(be, counter: counters.Counter) -> dict[str, Callable]:
    """Kernel name -> the charge :func:`~repro.runtime.executor.evaluate`
    makes for the node it lowers (same operands as the kernel)."""
    record = counter.record

    def matmul(a, b, out):
        record("matmul", be.matmul_flops(a, b),
               be.shape(a)[0] * be.shape(b)[1] * 8)

    def sub(a, b, out):  # evaluated as ``a + (-1.0 * b)``
        record("scalar_mul", be.scale_flops(b))
        record("add", be.add_flops(a))

    def inv(a):
        n = be.shape(a)[0]
        record("inverse", be.inverse_flops(a), n * n * 8)

    def outer(a, u, v):  # the statement ``a += u * v'``, never evaluated
        rows, cols = be.shape(a)
        record("transpose", 0)
        record("matmul", outer_update_flops(be, a, u, v), rows * cols * 8)

    return {
        "transpose": lambda a: record("transpose", 0),
        "matmul": matmul,
        "add": lambda a, b, out: record("add", be.add_flops(a)),
        "sub": sub,
        "scale": lambda coeff, a, out: record(
            "scalar_mul", be.scale_flops(a)),
        "inv": inv,
        "outer": outer,
    }


def _bind(trigger: Trigger, dims: Mapping[str, int], backend, workspace):
    """Lower ``trigger`` and bind the form: ``(lowered, backend, values)``.

    ``values`` holds what the list leaves free besides kernels:
    ``"_rank"`` (the compiled update width), every constant (built here)
    and every buffer (leased here).  Buffers come from a fresh top-level
    lease scope of ``workspace`` (one is created when ``None``) —
    triggers bound against one workspace share buffers by shape, which
    is safe because trigger firings never interleave.  An unbound
    dimension raises :class:`~repro.runtime.executor.EvaluationError`.
    """
    from ...backends import get_backend
    from ...runtime.workspace import Workspace

    be = get_backend(backend)
    ws = Workspace() if workspace is None else workspace
    lowered = lower_trigger(trigger)
    values: dict[str, object] = {"_rank": resolve_dim(lowered.rank, dims)}
    for name, (kind, *shape) in lowered.constants.items():
        sizes = [resolve_dim(dim, dims) for dim in shape]
        values[name] = be.eye(*sizes) if kind == "eye" else be.zeros(*sizes)
    ws.begin()
    for name, shape in lowered.buffers.items():
        values[name] = ws.lease(resolve_dim(shape.rows, dims),
                                resolve_dim(shape.cols, dims))
    return lowered, be, values


def _loop(lowered: LoweredTrigger, be, values: Mapping[str, object],
          counter: counters.Counter) -> Callable:
    """``fn(views, u, v)`` running the bound form record by record."""
    kernels = _kernels(be)
    charges = _charges(be, counter) if counter.recording else {}
    rank = values["_rank"]

    # Every name is a slot of one flat list; a firing copies the
    # template (constants and buffers filled in) and runs down the steps.
    names = [*lowered.params, *lowered.views, *values,
             *(op.dst for op in lowered.ops)]
    slot = {name: index for index, name in enumerate(names)}
    pinned = [values.get(name) for name in names]

    def operand(src) -> int:
        if isinstance(src, str):
            return slot[src]
        pinned.append(src)  # scale's literal coefficient
        return len(pinned) - 1

    steps = [
        (kernels[op.kernel], slot[op.dst], [operand(s) for s in op.srcs],
         charges.get(op.kernel))
        for op in lowered.ops
    ]
    applies = [
        (kernels[op.kernel], op.dst, [slot[s] for s in op.srcs],
         charges.get(op.kernel))
        for op in lowered.applies
    ]
    allocating = list(pinned)
    for name in lowered.buffers:
        allocating[slot[name]] = None
    loads = [(slot[name], name) for name in lowered.views]

    def run(views, u, v):
        slots = list(pinned if u.shape[1] == rank else allocating)
        slots[0] = u
        slots[1] = v
        for index, name in loads:
            slots[index] = views[name]
        for kernel, dst, srcs, charge in steps:
            args = [slots[i] for i in srcs]
            if charge is not None:
                charge(*args)
            slots[dst] = kernel(*args)
        for kernel, name, srcs, charge in applies:
            args = [slots[i] for i in srcs]
            if charge is not None:
                charge(*args)
            views[name] = kernel(*args)

    run.__name__ = f"on_update_{lowered.input_name}"
    return run


def compile_trigger_function(
    trigger: Trigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
    counter: counters.Counter = counters.NULL_COUNTER,
) -> Callable:
    """The loop executor of ``trigger``'s lowered form.

    Binds the form against concrete ``dims`` (:func:`_bind`) and returns
    ``fn(views, u, v)``.  An update of the compiled width runs on the
    leased buffers; any other width runs the same records with
    allocating destinations.  Every record is charged to ``counter``.
    """
    lowered, be, values = _bind(trigger, dims, backend, workspace)
    return _loop(lowered, be, values, counter)


def _print(lowered: LoweredTrigger, function_name: str | None) -> str:
    name = function_name or f"on_update_{lowered.input_name}"

    def call(op: Op) -> str:
        args = ", ".join(s if isinstance(s, str) else repr(s)
                         for s in op.srcs)
        return f"_{op.kernel}({args})"

    lines = [
        f"# Lowered trigger for updates to {lowered.input_name}; buffers "
        f"are shaped for update width {lowered.rank}.",
    ]
    lines += [f"#   {const} = {kind}({', '.join(map(str, shape))})"
              for const, (kind, *shape) in lowered.constants.items()]
    lines += [f"#   {buffer}: {shape}"
              for buffer, shape in lowered.buffers.items()]
    lines += [
        f"def {name}(views, {', '.join(lowered.params)}):",
        f'    """Maintain views in place for a factored update to '
        f'{lowered.input_name}."""',
        f"    if {lowered.params[0]}.shape[1] != _rank:",
        f"        return _any_width(views, {', '.join(lowered.params)})",
    ]
    lines += [f"    {view} = views[{view!r}]" for view in lowered.views]
    lines += [f"    {op.dst} = {call(op)}" for op in lowered.ops]
    lines += [f"    views[{op.dst!r}] = {call(op)}" for op in lowered.applies]
    return "\n".join(lines) + "\n"


def generate_python_trigger(
    trigger: Trigger, function_name: str | None = None
) -> str:
    """Print ``trigger``'s lowered form as Python function source.

    Needs no ``dims``: buffers (``_bN``) and constants (``_cN``) are free
    names listed with their symbolic shapes in the leading comment;
    ``_<kernel>`` are the backend's ``*_into`` kernels, ``_rank`` the
    compiled update width and ``_any_width`` the loop executor that
    takes every other width.  :func:`compile_fused_trigger` binds them.
    """
    return _print(lower_trigger(trigger), function_name)


def compile_fused_trigger(
    trigger: Trigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
) -> Callable:
    """Print, bind and ``exec`` ``trigger``'s lowered form.

    Same binding as :func:`compile_trigger_function`, pinned in the
    function's globals; ``fn.__source__`` is the printed text.  Nothing
    is charged to a counter.
    """
    lowered, be, values = _bind(trigger, dims, backend, workspace)
    source = _print(lowered, None)
    namespace = {f"_{name}": kernel for name, kernel in _kernels(be).items()}
    namespace.update(values)
    namespace["_any_width"] = _loop(lowered, be, values,
                                    counters.NULL_COUNTER)
    exec(compile(source, f"<trigger:{trigger.input_name}>", "exec"),
         namespace)
    fn = namespace[f"on_update_{trigger.input_name}"]
    fn.__source__ = source  # type: ignore[attr-defined]
    return fn


__all__ = [
    "LoweredTrigger",
    "Op",
    "compile_fused_trigger",
    "compile_trigger_function",
    "generate_python_trigger",
    "lower_trigger",
    "outer_operands",
]
