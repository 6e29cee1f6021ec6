"""Programs and statements (Section 3).

A :class:`Program` is a sequence of assignment statements over declared
input matrices, e.g. the running example of the paper::

    B := A * A
    C := B * B

Each statement materializes a view.  Programs are validated on
construction: targets are unique, every referenced matrix is an input or
an earlier view, and shapes are consistent (the expression layer checks
conformability).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..expr.ast import Expr, MatrixSymbol
from ..expr.printer import to_string
from ..expr.visitors import matrix_symbols


class ProgramError(ValueError):
    """Raised for malformed programs (unknown references, duplicate targets)."""


class Statement:
    """One assignment ``target := expr`` materializing a view.

    ``sources`` is the set of matrix names the expression reads.
    """

    __slots__ = ("target", "expr", "sources")

    def __init__(self, target: MatrixSymbol, expr: Expr):
        if target.shape != expr.shape:
            raise ProgramError(
                f"statement shape mismatch: {target.name} is {target.shape} "
                f"but expression is {expr.shape}"
            )
        self.target = target
        self.expr = expr
        self.sources = frozenset(s.name for s in matrix_symbols(expr))

    def __repr__(self) -> str:
        return f"{self.target.name} := {to_string(self.expr)};"


class Program:
    """An ordered list of statements over declared inputs.

    ``inputs`` are the base matrices (candidates for updates);
    ``outputs`` names the views of interest (defaults to the last
    statement's target).  All views — output or auxiliary — are
    materialized and incrementally maintained, as in the paper.
    """

    def __init__(
        self,
        inputs: Sequence[MatrixSymbol],
        statements: Sequence[Statement],
        outputs: Iterable[str] | None = None,
    ):
        self.inputs = tuple(inputs)
        self.statements = tuple(statements)
        if not self.statements:
            raise ProgramError("a program needs at least one statement")

        input_names = [m.name for m in self.inputs]
        if len(set(input_names)) != len(input_names):
            raise ProgramError(f"duplicate input names in {input_names}")

        defined: dict[str, MatrixSymbol] = {m.name: m for m in self.inputs}
        for stmt in self.statements:
            if stmt.target.name in defined:
                raise ProgramError(f"duplicate definition of {stmt.target.name!r}")
            for sym in matrix_symbols(stmt.expr):
                known = defined.get(sym.name)
                if known is None:
                    raise ProgramError(
                        f"statement {stmt!r} references undefined matrix {sym.name!r}"
                    )
                if known.shape != sym.shape:
                    raise ProgramError(
                        f"matrix {sym.name!r} used with shape {sym.shape}, "
                        f"declared {known.shape}"
                    )
            defined[stmt.target.name] = stmt.target

        self.outputs = tuple(outputs) if outputs else (self.statements[-1].target.name,)
        for name in self.outputs:
            if name not in defined:
                raise ProgramError(f"unknown output {name!r}")
            if name in input_names:
                raise ProgramError(f"output {name!r} is an input, not a view")
        #: Update width -> :class:`~repro.compiler.compile.CompiledProgram`,
        #: filled by :func:`~repro.compiler.compile.compiled_program`.
        self._compiled: dict = {}

    @property
    def input_names(self) -> tuple[str, ...]:
        """Names of the declared input matrices."""
        return tuple(m.name for m in self.inputs)

    @property
    def view_names(self) -> tuple[str, ...]:
        """Names of every materialized view, in statement order."""
        return tuple(s.target.name for s in self.statements)

    def input(self, name: str) -> MatrixSymbol:
        """Look up a declared input by name."""
        for m in self.inputs:
            if m.name == name:
                return m
        raise KeyError(f"no input named {name!r}")

    def statement_for(self, view: str) -> Statement:
        """The statement defining a given view."""
        for s in self.statements:
            if s.target.name == view:
                return s
        raise KeyError(f"no view named {view!r}")

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        inputs = ", ".join(f"{m.name}{m.shape}" for m in self.inputs)
        body = "\n".join(f"  {s!r}" for s in self.statements)
        outs = ", ".join(self.outputs)
        return f"Program(inputs: {inputs})\n{body}\n  output: {outs}"
