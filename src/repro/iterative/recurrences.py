"""Table 1's recurrences, written as programs.

:func:`program` spells one iterative family under one model as program
text, one statement per materialized iteration of
:meth:`Model.schedule <repro.iterative.models.Model.schedule>`, each
built from its :meth:`~repro.iterative.models.Model.predecessor`
``j`` (``h = i - j``):

* powers:  ``P_i = P_h P_j``;
* sums:    ``S_i = A S_{i-1} + I`` (linear) or ``S_i = P_h S_j + S_h``;
* general: ``T_i = A T_{i-1} + B`` (linear, and ``T_1``) or
  ``T_i = P_h T_j + S_h B``.

``P_1 = A`` and ``S_1 = I`` are not views: they are written in place
(``S_2 = A + I``).  Sums, and the general form under the exponential
and skip models, read ``P_h`` (and, with ``B``, ``S_h``) up to the
horizon, the largest ``h`` a step uses; those come first, by their own
recurrences.  The operand order is the maintainers' (``P_{i-j} P_j``),
so a session on the text computes what they compute.
"""

from __future__ import annotations

from .models import Model

#: The families :func:`program` writes, and the letter of their views.
VIEWS = {"powers": "P", "sums": "S", "general": "T"}
FAMILIES = tuple(VIEWS)


def program(family: str, model: Model, k: int, with_b: bool = False) -> str:
    """Program text of ``family`` to iteration ``k`` under ``model``.

    Inputs are ``A(n, n)`` and, for ``general``, the start iterate
    ``T0(n, p)`` and (``with_b``) ``B(n, p)``; the output is ``P<k>``,
    ``S<k>`` or ``T<k>``.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of "
                         f"{', '.join(FAMILIES)}")
    if with_b and family != "general":
        raise ValueError(f"{family} takes no B input")
    schedule = model.schedule(k)
    steps = [(i, model.predecessor(i)) for i in schedule[1:]]
    linear = model.kind == Model.LINEAR
    horizon = (k if family == "powers" else 1 if family == "general" and linear
               else max((i - j for i, j in steps), default=1))
    lines = ["input A(n, n);"]
    if family == "general":
        lines += ["input T0(n, p);"] + ["input B(n, p);"] * with_b
    lines += [f"P{i} := {_power(i - j)} * {_power(j)};"
              for i, j in steps if i <= horizon]
    if family == "sums" or with_b and not linear:
        lines += [f"S{i} := {_sum_step(linear, i, j)};"
                  for i, j in steps if i <= (k if family == "sums" else horizon)]
    if family == "general":
        for i in schedule:
            j = i - 1 if i == 1 or linear else model.predecessor(i)
            b = "B" if i - j == 1 else f"S{i - j} * B"
            lines.append(f"T{i} := {_power(i - j)} * T{j}"
                         f"{f' + {b}' if with_b else ''};")
    elif k == 1:  # no step: the first iterate itself is the view
        lines.append("P1 := A;" if family == "powers" else "S1 := eye(n);")
    lines.append(f"output {VIEWS[family]}{k};")
    return "\n".join(lines) + "\n"


def _power(i: int) -> str:
    return "A" if i == 1 else f"P{i}"


def _sum_step(linear: bool, i: int, j: int) -> str:
    """``S_i``'s right-hand side, ``S_1 = I`` written out."""
    h = i - j
    if j == 1:  # A S_1 + I, or P_1 S_1 + S_1
        return "A + eye(n)"
    if linear:
        return f"A * S{j} + eye(n)"
    return f"{_power(h)} * S{j} + {'eye(n)' if h == 1 else f'S{h}'}"


__all__ = ["FAMILIES", "program"]
