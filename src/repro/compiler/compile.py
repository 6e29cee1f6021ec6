"""Algorithm 1: compile a program into per-input trigger programs.

For each dynamic input ``X`` the compiler seeds the affected-matrix list
``D`` with the update's factored form ``dX = u_X @ v_X'`` and walks the
program statements in order.  For every statement ``A_i := E_i`` it
derives the factored delta ``dA_i = P_i @ Q_i'`` of ``E_i`` under *all*
updates accumulated so far, materializes ``P_i``/``Q_i`` as named
temporaries (``U_Ai`` / ``V_Ai``), registers ``dA_i`` in ``D`` expressed
over those temporaries (so downstream deltas stay compact), and emits
the ``A_i += U_Ai @ V_Ai'`` update — or, in HYBRID's triggers, carries a
non-square view's delta dense (``D_Ai := sum L R'``, added).  Views
unaffected by ``X`` (a zero delta) are never touched.

:func:`compiled_program` is what the rest of the system consumes: one
:class:`CompiledProgram` per program — the triggers and their lowered
kernel lists at the symbolic update width :data:`UPDATE_WIDTH` — built
on first use and shared by the planner, the shardability check and
every session on that program object, each binding the width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping

from ..delta.derivation import compute_delta
from ..delta.factored import FactoredDelta
from ..expr.ast import Expr, Identity, Inverse, MatrixSymbol, add, matmul, transpose
from ..expr.shapes import DimLike, NamedDim
from .program import Program
from .trigger import Assign, Trigger, Update

if TYPE_CHECKING:
    from .codegen.fused import LoweredTrigger

#: The update width programs compile at, bound like any other dimension
#: (``dims[UPDATE_WIDTH.name] = rank``); no identifier can spell its name.
UPDATE_WIDTH = NamedDim("<width>")


def compile_program(program: Program, rank: DimLike = 1) -> dict[str, Trigger]:
    """Compile ``program`` into triggers, one per input.

    ``rank`` is the width of the incoming update factors (1 for the
    paper's rank-1 row/column updates; a symbolic dimension or a larger
    int for batched rank-k updates).  Each input's trigger is compiled
    on its own, so a caller that wants one indexes the mapping.

    Returns a mapping ``input name -> Trigger``.
    """
    return {name: _compile_for_input(program, name, rank)
            for name in program.input_names}


def _compile_for_input(program: Program, input_name: str, rank: DimLike,
                       hybrid: bool = False) -> Trigger:
    """One input's trigger; ``hybrid`` carries each non-square view's
    delta dense (Section 5.3.2): ``D_X := sum L R'``, applied by a sum
    and read downstream as the pair ``(D_X, I)``."""
    x = program.input(input_name)
    u = MatrixSymbol(f"u_{input_name}", x.shape.rows, rank)
    v = MatrixSymbol(f"v_{input_name}", x.shape.cols, rank)

    deltas: dict[str, FactoredDelta] = {input_name: FactoredDelta.rank_one(u, v)}
    assigns: list[Assign] = []
    updates: list[Update] = [Update(x, matmul(u, transpose(v)))]

    for stmt in program.statements:
        refs = _inverse_refs(stmt.expr, stmt.target)
        delta = compute_delta(stmt.expr, deltas, inverse_refs=refs)
        if delta.is_zero:
            continue
        rows, cols = stmt.target.shape
        if hybrid and not stmt.target.shape.is_square:
            d_sym = MatrixSymbol(f"D_{stmt.target.name}", rows, cols)
            assigns.append(Assign(d_sym, add(*(
                matmul(left, transpose(right)) for left, right in delta.terms))))
            deltas[stmt.target.name] = FactoredDelta.rank_one(d_sym, Identity(cols))
            updates.append(Update(stmt.target, d_sym))
            continue
        if len(delta.terms) == 1 and all(
                isinstance(factor, MatrixSymbol) for factor in delta.terms[0]):
            # An alias (``P := V``, ``P := V'``) keeps its source's factors:
            # renaming them would hide from a later sum (``V + P``) that
            # the two deltas share a right factor, and widen it.
            deltas[stmt.target.name] = delta
            left, right = delta.terms[0]
            updates.append(Update(stmt.target, matmul(left, transpose(right))))
            continue
        u_sym = MatrixSymbol(f"U_{stmt.target.name}", rows, delta.width)
        v_sym = MatrixSymbol(f"V_{stmt.target.name}", cols, delta.width)
        assigns.append(Assign(u_sym, delta.u_expr))
        assigns.append(Assign(v_sym, delta.v_expr))
        deltas[stmt.target.name] = FactoredDelta.rank_one(u_sym, v_sym)
        updates.append(Update(stmt.target, matmul(u_sym, transpose(v_sym))))

    return Trigger(input_name, (u, v), assigns, updates)


def _inverse_refs(expr: Expr, target: MatrixSymbol) -> Mapping[Expr, Expr]:
    """Old-inverse references for the Woodbury delta rule.

    When a statement's whole right-hand side is ``inv(Z)``, the view
    being maintained *is* the old inverse, so the rule may reference it
    by name (the ``W`` of Example 4.3) instead of re-inverting ``Z``.
    """
    if isinstance(expr, Inverse):
        return {expr: target}
    return {}


class _Triggers(Mapping):
    """Input name -> trigger, Algorithm 1 run on an input's first lookup
    (``hybrid``: HYBRID's, :func:`_compile_for_input`)."""

    def __init__(self, program: Program, rank: DimLike, hybrid: bool = False):
        self._program, self._rank, self._hybrid = program, rank, hybrid
        self._compiled = {}

    def __getitem__(self, name: str) -> Trigger:
        if name not in self._compiled:
            self._compiled[name] = _compile_for_input(
                self._program, name, self._rank, self._hybrid)
        return self._compiled[name]

    def __contains__(self, name: object) -> bool:
        return name in self._program.input_names

    def __iter__(self) -> Iterator[str]:
        return iter(self._program.input_names)

    def __len__(self) -> int:
        return len(self._program.inputs)


@dataclass(frozen=True)
class CompiledProgram:
    """A program's triggers and lowered lists, for every update width.

    Each trigger is compiled, and each list lowered, on first use (a
    REEVAL session runs no Algorithm 1) and kept; sessions run them and
    the planner prices them.
    """

    #: Input name -> its trigger (Algorithm 1).
    triggers: Mapping[str, Trigger]
    #: Input name -> its HYBRID trigger: non-square views' deltas dense.
    hybrid_triggers: Mapping[str, Trigger]
    #: The program's ``(target name, expr)`` statements, in order.
    statements: tuple
    #: Input name -> its declared symbol.
    inputs: Mapping[str, MatrixSymbol]
    _lowered: dict = field(default_factory=dict, repr=False, compare=False)

    def lowered(self, name: str) -> LoweredTrigger:
        """Input ``name``'s merged INCR trigger list."""
        return self._memo("INCR", name)

    def hybrid(self, name: str) -> LoweredTrigger:
        """Input ``name``'s merged HYBRID trigger list."""
        return self._memo("HYBRID", name)

    def reevaluated(self, name: str) -> LoweredTrigger:
        """REEVAL's list for updates to input ``name``
        (:func:`~repro.compiler.codegen.fused.lower_evaluation`)."""
        return self._memo("REEVAL", name)

    def evaluation(self) -> LoweredTrigger:
        """Every statement from the stored inputs: what an initial
        build, a rebuild and a revalidation run."""
        return self._memo("EVAL", None)

    def _memo(self, kind: str, name: str | None) -> LoweredTrigger:
        if (kind, name) not in self._lowered:
            from .codegen.fused import lower_evaluation, lower_trigger

            self._lowered[kind, name] = (
                lower_trigger(self.triggers[name]) if kind == "INCR" else
                lower_trigger(self.hybrid_triggers[name]) if kind == "HYBRID"
                else lower_evaluation(self.statements, name and self.inputs[name]))
        return self._lowered[kind, name]


def compiled_program(program: Program, rank: DimLike = UPDATE_WIDTH) -> CompiledProgram:
    """``program``'s :class:`CompiledProgram`.

    Algorithm 1 runs for an input, and each list is lowered, at most
    once per program, at the symbolic width :data:`UPDATE_WIDTH`: the
    planner's INCR pricing, the shardability check (:func:`~repro.distributed.sharded.unshardable`),
    every session's executors and every rebuild on the same program read
    the artifact kept on the program, and bind the width.  A concrete
    ``rank`` prints shapes (``repro compile --rank``) and is memoized
    beside it; an integer below 1 raises :class:`ValueError`.
    """
    if isinstance(rank, int) and rank < 1:
        raise ValueError(f"update rank must be at least 1, got {rank}")
    if rank not in program._compiled:
        program._compiled[rank] = CompiledProgram(
            _Triggers(program, rank), _Triggers(program, rank, hybrid=True),
            tuple((stmt.target.name, stmt.expr)
                  for stmt in program.statements),
            {sym.name: sym for sym in program.inputs})
    return program._compiled[rank]
