"""The lowered list form: one lowering, a loop and a printer over it.

A trigger's execution must equal re-evaluation, and every harness in
the repository states that promise against ``mode="interpret"`` — so
the two execution modes must be the same computation, not two
renderings of the same intent.  ``_Lowering.lower`` is the **only**
place an expression node becomes backend kernels, in a
:class:`LoweredTrigger`: a shape-symbolic list of ``(kernel, dst,
srcs)`` records in which everything an executor could decide
differently is already decided.  :func:`lower_trigger` lowers an
input's INCR trigger, :func:`lower_evaluation` every statement from the
stored inputs (builds, rebuilds, revalidation, :func:`~repro.runtime.
executor.evaluate`) or REEVAL's list for updates to one input.  In each:

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
  the list's own order: ``ops`` first, ``applies`` last;
* a record identical to an earlier one (same pure kernel, same
  operands) is merged into it: :func:`merge_duplicates`.

A program's lists are lowered once, into its
:class:`~repro.compiler.compile.CompiledProgram`, and every session
binds those.  Shapes stay symbolic until the list is **bound** to a
``dims`` mapping: constants are materialized, and each buffer is leased
once from a :class:`~repro.runtime.workspace.Workspace` at the
list's bound update width — or, bound with ``lease=False``, left
``None`` so every kernel allocates its result.  Two executors run a
bound list, and nothing else runs one:

* :func:`compile_trigger_function` — ``mode="interpret"``: a loop over
  the records;
* :func:`compile_fused_trigger` — ``mode="codegen"``:
  :func:`generate_python_trigger` prints the records as one flat
  Python function, ``exec``-compiled once.

Both call the same kernel callables on the same operands in the same
order, so they agree bit for bit on the dense backend by construction
and charge a :func:`~repro.cost.counters.counted` backend's ledger
alike; after one warm-up firing neither allocates (sparse state falls
back to allocation exactly where CSR structure forbids in-place
writes).  An update of another width runs the same records with
``None`` in every buffer operand (the kernels allocate, and constants
shaped by the width are rebuilt at it) and leases nothing, so many
distinct widths do not grow the workspace.  ``Inverse`` has no
``out=`` kernel and always allocates.

Function signature, both executors::

    on_update_A(views, u_A, v_A)

where ``views`` maps names to store-owned arrays (written in place); the
evaluation list takes no factors (``fn(views)``) and hands each value
over by a ``store`` apply instead.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Mapping, NamedTuple

import numpy as np

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
from ...runtime.executor import EvaluationError, resolve_dim
from ..trigger import Trigger


class Op(NamedTuple):
    """One kernel call: ``dst = kernel(*srcs)``."""

    #: Key of the kernel table (:func:`_kernels`).
    kernel: str
    #: Name bound to the result — for an apply, the view written.
    dst: str
    #: Operand names in call order (the ``out=`` buffer, or a REEVAL view,
    #: last); the one non-name operand is ``scale``'s float coefficient.
    srcs: tuple


class LoweredTrigger(NamedTuple):
    """A trigger as a flat, shape-symbolic kernel list."""

    #: The updated input (``None`` for the evaluation list).
    input_name: str | None
    #: The update's factor names (``u_A``, ``v_A``; none to evaluate).
    params: tuple[str, ...]
    #: Update width the buffers are shaped for (``None``: none depends on it).
    rank: DimLike | None
    #: Store names read at entry, in first-use order.
    views: tuple[str, ...]
    #: Name -> ``("eye", n)`` / ``("zeros", rows, cols)``, built at bind.
    constants: dict[str, tuple]
    #: Name -> symbolic shape of each scratch buffer, in lease order.
    buffers: dict[str, Shape]
    #: Phase 1: every factor block and delta, from old values only.
    ops: tuple[Op, ...]
    #: Phase 2: the view writes (in place, or a value handed over).
    applies: tuple[Op, ...]


def outer_operands(expr: Expr) -> "tuple[str, str] | None":
    """The ``(U, V)`` symbol names when ``expr`` is exactly ``U @ V'``
    (the form Algorithm 1 emits for every update statement, applied by
    ``add_outer_inplace`` without materializing the delta), else ``None``."""
    if (isinstance(expr, MatMul) and len(expr.children) == 2
            and isinstance(expr.children[0], MatrixSymbol)
            and isinstance(expr.children[1], Transpose)
            and isinstance(expr.children[1].child, MatrixSymbol)):
        return expr.children[0].name, expr.children[1].child.name
    return None


class _Lowering:
    """One kernel list under construction; :meth:`lower` is the only
    place an expression node becomes kernel records."""

    def __init__(self, computed=()):
        #: Symbols a record computes: transposed where read, not hoisted.
        self.computed = set(computed)
        #: Symbol -> the record holding its value, where the names differ.
        self.values: dict[str, str] = {}
        self.constants: dict[str, tuple] = {}
        self.buffers: dict[str, Shape] = {}
        self.named = 0  # buffers named so far; a landed one leaves
        self.hoisted: dict[str, Op] = {}
        self.ops: list[Op] = []

    def emit(self, kernel: str, *srcs, into: Shape | None = None) -> str:
        """Append one record; ``into`` plans its destination buffer."""
        if into is not None:
            buffer, self.named = f"_b{self.named}", self.named + 1
            self.buffers[buffer] = into
            srcs += (buffer,)
        dst = f"_t{len(self.ops) + 1}"
        self.ops.append(Op(kernel, dst, srcs))
        return dst

    def lower(self, expr: Expr) -> tuple[str, bool]:
        """Records computing ``expr``; its name, and whether the value
        is a fresh temporary (which a sum may accumulate into) rather
        than an alias of a view, param, constant or assigned block."""
        emit, lower = self.emit, self.lower
        if isinstance(expr, MatrixSymbol):
            return self.values.get(expr.name, expr.name), False
        if isinstance(expr, Transpose):
            child = expr.child
            if (isinstance(child, MatrixSymbol)
                    and child.name not in self.computed):
                # Views and params do not change while deltas evaluate:
                # one transposed view per firing, at the top of the list.
                name = f"_T_{child.name}"
                self.hoisted.setdefault(
                    name, Op("transpose", name, (child.name,)))
                return name, False
            return emit("transpose", lower(child)[0]), False
        if isinstance(expr, (Identity, ZeroMatrix)):
            name = f"_c{len(self.constants)}"
            self.constants[name] = (("eye", expr.shape.rows)
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
        raise EvaluationError(
            f"cannot evaluate node type {type(expr).__name__}")

    def land(self, value: str, view: str) -> bool:
        """Compute the fresh ``value`` into ``view``'s storage: the buffer
        it lands in becomes the view.  False when no buffer holds it."""
        records = {op.dst: op for op in self.ops}
        op = records[value]
        while op.kernel in ("add", "sub"):
            op = records[op.srcs[2]]
        buffer = op.srcs[-1]
        if buffer not in self.buffers:
            return False
        del self.buffers[buffer]
        self.ops = [o._replace(srcs=tuple(view if s == buffer else s
                                          for s in o.srcs)) for o in self.ops]
        return True

    def finish(self, input_name, params, rank, applies) -> LoweredTrigger:
        """The list built so far, its duplicate records merged; it loads
        every name it reads and no record writes, in first-use order."""
        ops = (*self.hoisted.values(), *self.ops)
        written = {*params, *self.constants, *self.buffers,
                   *(op.dst for op in ops)}
        views = dict.fromkeys(src for op in (*ops, *applies)
                              for src in op.srcs
                              if isinstance(src, str) and src not in written)
        return merge_duplicates(LoweredTrigger(
            input_name=input_name, params=params, rank=rank,
            views=tuple(views), constants=self.constants,
            buffers=self.buffers, ops=ops, applies=tuple(applies)))


def lower_trigger(trigger: Trigger) -> LoweredTrigger:
    """Lower ``trigger`` to its kernel list (see the module docstring)."""
    lowering = _Lowering(trigger.temp_names)

    # Phase 1a: assigns (delta factor blocks), old values only.  A bare
    # alias result (``U_B := u_A``) is snapshotted into a buffer:
    # temporaries must never share storage with something a later
    # in-place application could mutate.
    for assign in trigger.assigns:
        name, fresh = lowering.lower(assign.expr)
        if not fresh:
            lowering.emit("copy", name, into=assign.expr.shape)
        ops = lowering.ops
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
            applies.append(Op("applyadd", target,
                              (target, lowering.lower(update.expr)[0])))

    return lowering.finish(
        trigger.input_name, tuple(p.name for p in trigger.params),
        trigger.params[0].shape.cols, applies)


def lower_evaluation(statements, update: MatrixSymbol | None = None
                     ) -> LoweredTrigger:
    """Every ``(target name, expr)`` of ``statements``, in order.

    Without ``update``: the **evaluation list**, from the stored inputs,
    each value handed over by a ``store`` apply (a bare or transposed
    reference is the stored array or a view of it).  With ``update``,
    an input ``X``: **REEVAL's list** for ``X += u_X v_X'``.  With no
    ``inv``, it runs in place, as a maintainer does: the update lands in
    ``X`` and each fresh value in its view's storage (a reference is
    copied there).  With one, it is staged, so a singular ``inv`` writes
    nothing: the update lands in a buffered copy of ``X``, every
    statement in scratch buffers, then ``copy`` applies store them.  No
    buffer depends on the width: ``rank`` is ``None``.
    """
    targets = [target for target, _ in statements]
    lowering = _Lowering(targets)
    params: tuple[str, ...] = ()
    in_place = update is not None and not any(
        isinstance(node, Inverse) for _, expr in statements for node in walk(expr))
    if update is not None:
        x = update.name
        params = (f"u_{x}", f"v_{x}")
        lowering.computed.add(x)
        copied = x if in_place else lowering.emit("copy", x, into=update.shape)
        lowering.values[x] = lowering.emit("outer", copied, *params)
        targets = [x, *targets]
    # Targets whose value is their storage, or is handed over as it is.
    stored = set(targets) if update is None else {x} if in_place else set()
    for target, expr in statements:
        lowering.values[target], fresh = lowering.lower(expr)
        if in_place and fresh and lowering.land(lowering.values[target],
                                                target):
            stored.add(target)
    applies = [Op("store", t, (lowering.values[t],)) if t in stored
               else Op("copy", t, (lowering.values[t], t)) for t in targets]
    return lowering.finish(update and update.name, params, None, applies)


def merge_duplicates(lowered: LoweredTrigger) -> LoweredTrigger:
    """Merge each record into an earlier one running the same pure
    kernel on the same operands (the Section 6 CSE, on kernels), and
    point later reads at the survivor; its buffer is released.

    A record is pure when it writes a buffer of its own or is a
    transpose (an alias): sums accumulate into an operand and ``inv``
    allocates, so neither merges, and applies never do.  A sum that
    would overwrite a survivor before its last read writes into a fresh
    buffer instead.  No algebraic identity is used, and a list without
    duplicates comes back as is.
    """
    buffers = dict(lowered.buffers)
    merged: dict[str, str] = {}
    first: dict[tuple, str] = {}

    def renamed(op: Op) -> Op:
        return op._replace(srcs=tuple(merged.get(s, s) for s in op.srcs))

    ops: list[Op] = []
    for op in map(renamed, lowered.ops):
        owned = op.srcs[-1] in buffers
        key = (op.kernel, op.srcs[:-1] if owned else op.srcs)
        if (owned or op.kernel == "transpose") and key in first:
            merged[op.dst] = first[key]
            buffers.pop(op.srcs[-1], None)
            continue
        first.setdefault(key, op.dst)
        ops.append(op)
    if not merged:
        return lowered
    applies = tuple(map(renamed, lowered.applies))

    # A sum's ``out`` is read (directly or through a transposed alias)
    # after it only when it is a survivor, whose buffer is its last src.
    last = {src: index for index, op in enumerate((*ops, *applies))
            for src in op.srcs}
    for op in reversed(ops):
        if op.kernel == "transpose":
            last[op.srcs[0]] = max(last[op.srcs[0]], last.get(op.dst, -1))
    storage = {op.dst: op.srcs[-1] for op in ops}
    top = 1 + max((int(name[2:]) for name in lowered.buffers), default=-1)
    for index, op in enumerate(ops):
        if op.kernel in ("add", "sub") and last[op.srcs[2]] > index:
            fresh = f"_b{top + index}"
            buffers[fresh] = buffers[storage[op.srcs[2]]]
            ops[index] = op._replace(srcs=(*op.srcs[:2], fresh))
    return lowered._replace(buffers=buffers, ops=tuple(ops), applies=applies)


def _copy_into(src, out):
    """Materialize ``src`` in the buffer ``out`` (dense fast path)."""
    if isinstance(out, np.ndarray) and isinstance(src, np.ndarray):
        np.copyto(out, src)
        return out
    return src.copy()  # no buffer, or CSR (which no buffer holds)


#: Kernel name -> the backend kernel a record calls, which a counted
#: backend's ledger charges under its own name; ``transpose`` (an alias),
#: ``copy`` and ``store`` (a value handed over) call none.
BACKEND_KERNELS = {
    "matmul": "matmul_into", "add": "add_into", "sub": "sub_into",
    "scale": "scale_into", "hstack": "hstack_into", "vstack": "vstack_into",
    "inv": "inv", "outer": "add_outer_inplace", "applyadd": "add_inplace",
}


def _kernels(be) -> dict[str, Callable]:
    """Kernel name -> callable over an :class:`Op`'s ``srcs``, in order."""
    kernels = {name: getattr(be, kernel)
               for name, kernel in BACKEND_KERNELS.items()}
    return {**kernels, "transpose": attrgetter("T"),
            "copy": _copy_into, "store": lambda value: value,
            "hstack": lambda *args: be.hstack_into(args[:-1], args[-1]),
            "vstack": lambda *args: be.vstack_into(args[:-1], args[-1])}


def _bind(lowered: LoweredTrigger, dims: Mapping[str, int], backend,
          workspace, lease: bool = True):
    """Bind a lowered form: ``(backend, values)``.

    ``values`` holds what the list leaves free besides kernels:
    ``"_rank"`` (the bound update width), every constant (built here)
    and every buffer (leased here).  Buffers come from a fresh top-level
    lease scope of ``workspace`` (one is created when ``None``) —
    lists bound against one workspace share buffers by shape, which
    is safe because firings never interleave.  ``lease=False`` binds
    ``None`` in every buffer instead: allocating destinations.  An unbound
    dimension raises :class:`~repro.runtime.executor.EvaluationError`.
    """
    from ...backends import get_backend
    from ...runtime.workspace import Workspace

    be = get_backend(backend)
    values: dict[str, object] = {"_rank": None if lowered.rank is None
                                 else resolve_dim(lowered.rank, dims)}
    for name, constant in lowered.constants.items():
        values[name] = _constant(be, constant, dims)
    if not lease:
        values.update(dict.fromkeys(lowered.buffers))
        return be, values
    ws = Workspace() if workspace is None else workspace
    ws.begin()
    for name, shape in lowered.buffers.items():
        values[name] = ws.lease(resolve_dim(shape.rows, dims),
                                resolve_dim(shape.cols, dims))
    return be, values


def _constant(be, constant: tuple, dims: Mapping[str, int]):
    """A ``("eye", n)`` / ``("zeros", rows, cols)`` constant, built."""
    kind, *shape = constant
    sizes = [resolve_dim(dim, dims) for dim in shape]
    return be.eye(*sizes) if kind == "eye" else be.zeros(*sizes)


def _loop(lowered: LoweredTrigger, be, values: Mapping[str, object],
          dims: Mapping[str, int], kernels: Mapping | None = None
          ) -> Callable:
    """``fn(views, *params)`` running the bound form record by record;
    ``kernels`` replaces entries of the kernel table."""
    kernels = {**_kernels(be), **(kernels or {})}
    rank = values["_rank"]
    width = getattr(lowered.rank, "name", None)  # symbolic: bound per call

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

    def fetch(at: list[int]) -> Callable:  # slots -> operands, one C call
        return itemgetter(*at) if len(at) > 1 else itemgetter(slice(at[0], at[0] + 1))

    steps = [(kernels[op.kernel], slot[op.dst],
              fetch([operand(s) for s in op.srcs])) for op in lowered.ops]
    applies = [(kernels[op.kernel], op.dst, fetch([slot[s] for s in op.srcs]))
               for op in lowered.applies]
    allocating = list(pinned)
    for name in lowered.buffers:
        allocating[slot[name]] = None
    loads = [(slot[name], name) for name in lowered.views]
    count = len(lowered.params)

    def run(views, *params):
        if rank is None or params[0].shape[1] == rank:
            slots = list(pinned)
        else:
            slots = list(allocating)
            if width:  # constants at the update's width
                bound = {**dims, width: params[0].shape[1]}
                for name, constant in lowered.constants.items():
                    slots[slot[name]] = _constant(be, constant, bound)
        slots[:count] = params
        for index, name in loads:
            slots[index] = views[name]
        for kernel, dst, fetch in steps:
            slots[dst] = kernel(*fetch(slots))
        for kernel, name, fetch in applies:
            views[name] = kernel(*fetch(slots))

    run.__name__ = f"on_update_{lowered.input_name}"
    return run


def compile_trigger_function(
    lowered: LoweredTrigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
    lease: bool = True,
) -> Callable:
    """The loop executor of a lowered form.

    Binds ``lowered`` against concrete ``dims`` (:func:`_bind`) and
    returns ``fn(views, *params)``.  An update of the bound width runs
    on the leased buffers; any other width runs the same records with
    allocating destinations.
    """
    be, values = _bind(lowered, dims, backend, workspace, lease)
    return _loop(lowered, be, values, dims)


def generate_python_trigger(
    lowered: LoweredTrigger, function_name: str | None = None
) -> str:
    """Print a lowered trigger as Python function source.

    Needs no ``dims``: buffers (``_bN``) and constants (``_cN``) are free
    names listed with their symbolic shapes in the leading comment;
    ``_<kernel>`` are the backend's ``*_into`` kernels, ``_rank`` the
    bound update width and ``_any_width`` the loop executor that
    takes every other width.  :func:`compile_fused_trigger` binds them.
    """
    name = function_name or f"on_update_{lowered.input_name}"

    def call(op: Op) -> str:
        args = ", ".join(s if isinstance(s, str) else repr(s)
                         for s in op.srcs)
        return f"_{op.kernel}({args})"

    lines = [
        f"# Lowered trigger for updates to {lowered.input_name}; buffers "
        + (f"are shaped for update width {lowered.rank}."
           if lowered.rank is not None else "fit every update width."),
    ]
    lines += [f"#   {const} = {kind}({', '.join(map(str, shape))})"
              for const, (kind, *shape) in lowered.constants.items()]
    lines += [f"#   {buffer}: {shape}"
              for buffer, shape in lowered.buffers.items()]
    lines += [
        f"def {name}(views, {', '.join(lowered.params)}):",
        f'    """Maintain views in place for a factored update to '
        f'{lowered.input_name}."""',
    ]
    if lowered.rank is not None:
        lines += [
            f"    if {lowered.params[0]}.shape[1] != _rank:",
            f"        return _any_width(views, {', '.join(lowered.params)})",
        ]
    lines += [f"    {view} = views[{view!r}]" for view in lowered.views]
    lines += [f"    {op.dst} = {call(op)}" for op in lowered.ops]
    lines += [f"    views[{op.dst!r}] = {call(op)}" for op in lowered.applies]
    return "\n".join(lines) + "\n"


def compile_fused_trigger(
    lowered: LoweredTrigger,
    dims: Mapping[str, int],
    backend=None,
    workspace=None,
    lease: bool = True,
) -> Callable:
    """Print, bind and ``exec`` a lowered form.

    Same binding as :func:`compile_trigger_function`, pinned in the
    function's globals; ``fn.__source__`` is the printed text.
    """
    be, values = _bind(lowered, dims, backend, workspace, lease)
    source = generate_python_trigger(lowered)
    namespace = {f"_{name}": kernel for name, kernel in _kernels(be).items()}
    namespace.update(values)
    namespace["_any_width"] = _loop(lowered, be, values, dims)
    exec(compile(source, f"<trigger:{lowered.input_name}>", "exec"),
         namespace)
    fn = namespace[f"on_update_{lowered.input_name}"]
    fn.__source__ = source  # type: ignore[attr-defined]
    return fn


__all__ = [
    "BACKEND_KERNELS",
    "LoweredTrigger",
    "Op",
    "compile_fused_trigger",
    "compile_trigger_function",
    "generate_python_trigger",
    "lower_evaluation",
    "lower_trigger",
    "merge_duplicates",
    "outer_operands",
]
