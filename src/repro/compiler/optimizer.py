"""Trigger optimizer (Section 6).

The paper's optimizer "analyzes intra- and inter-statement dependencies
... and performs transformations, like common subexpression elimination
and copy propagation, to reduce the overall maintenance cost".  This
module implements those passes over :class:`~repro.compiler.trigger.Trigger`
programs:

* :func:`eliminate_common_subexpressions` — hoists repeated non-trivial
  subexpressions into fresh temporaries (largest first, to fixpoint);
* :func:`propagate_copies` — removes ``T := S`` aliases;
* :func:`eliminate_dead_code` — drops temporaries no update needs;
* :func:`optimize_trigger` — the standard pipeline (CSE, copies, DCE).

Only the text emitters run them (``repro compile --optimize``); sessions
merge identical records of the lowered list instead
(:func:`~repro.compiler.codegen.fused.merge_duplicates`).  All passes
preserve trigger semantics; ``tests/test_optimizer.py`` checks
value-equivalence on random inputs.
"""

from __future__ import annotations

from collections import Counter as TallyCounter

from ..expr.ast import Expr, MatrixSymbol
from ..expr.visitors import count_nodes, substitute, walk
from .trigger import Assign, Trigger, Update


def optimize_trigger(trigger: Trigger, max_rounds: int = 10) -> Trigger:
    """Run the full pipeline (CSE, copy propagation, DCE) to fixpoint."""
    for _ in range(max_rounds):
        before = _signature(trigger)
        trigger = eliminate_common_subexpressions(trigger)
        trigger = propagate_copies(trigger)
        trigger = eliminate_dead_code(trigger)
        if _signature(trigger) == before:
            break
    return trigger


def _signature(trigger: Trigger) -> tuple:
    return (
        tuple((a.target.name, a.expr) for a in trigger.assigns),
        tuple((u.view.name, u.expr) for u in trigger.updates),
    )


def _candidate_subexpressions(trigger: Trigger) -> list[Expr]:
    """Non-leaf subexpressions occurring at least twice, largest first."""
    tally: TallyCounter[Expr] = TallyCounter()
    for expr in _all_expressions(trigger):
        seen_here: set[Expr] = set()
        for node in walk(expr):
            if node.children and node not in seen_here:
                seen_here.add(node)
                tally[node] += 1
        # Count repeats *within* one statement too.
        within: TallyCounter[Expr] = TallyCounter(
            node for node in walk(expr) if node.children
        )
        for node, count in within.items():
            if count > 1:
                tally[node] += count - 1
    repeated = [node for node, count in tally.items() if count >= 2]
    repeated.sort(key=count_nodes, reverse=True)
    return repeated


def _all_expressions(trigger: Trigger) -> list[Expr]:
    return [a.expr for a in trigger.assigns] + [u.expr for u in trigger.updates]


def eliminate_common_subexpressions(trigger: Trigger, prefix: str = "T") -> Trigger:
    """Hoist repeated subexpressions into fresh temporaries.

    Each hoisted expression becomes ``T<i> := <expr>`` placed before the
    first statement that uses it; all occurrences are replaced by the
    temporary.  Runs until no repeated non-leaf subexpression remains.
    """
    assigns = list(trigger.assigns)
    updates = list(trigger.updates)
    existing = {a.target.name for a in assigns} | {u.view.name for u in updates}
    existing.update(p.name for p in trigger.params)
    counter = 0

    for _ in range(100):  # fixpoint bound; each round strictly shrinks work
        current = Trigger(trigger.input_name, trigger.params, assigns, updates)
        candidates = _candidate_subexpressions(current)
        if not candidates:
            break
        target_expr = candidates[0]
        counter += 1
        while f"{prefix}{counter}" in existing:
            counter += 1
        name = f"{prefix}{counter}"
        existing.add(name)
        temp = MatrixSymbol(name, target_expr.shape.rows, target_expr.shape.cols)
        mapping = {target_expr: temp}

        new_assigns: list[Assign] = []
        inserted = False
        for a in assigns:
            replaced = substitute(a.expr, mapping)
            if replaced != a.expr and not inserted:
                new_assigns.append(Assign(temp, target_expr))
                inserted = True
            new_assigns.append(Assign(a.target, replaced))
        new_updates: list[Update] = []
        for u in updates:
            replaced = substitute(u.expr, mapping)
            if replaced != u.expr and not inserted:
                new_assigns.append(Assign(temp, target_expr))
                inserted = True
            new_updates.append(Update(u.view, replaced))
        if not inserted:
            break  # candidate vanished (was itself inside a replacement)
        assigns, updates = new_assigns, new_updates

    return Trigger(trigger.input_name, trigger.params, assigns, updates)


def propagate_copies(trigger: Trigger) -> Trigger:
    """Remove ``T := S`` pure-alias assignments, rewriting later uses."""
    assigns: list[Assign] = []
    mapping: dict[Expr, Expr] = {}
    for a in trigger.assigns:
        expr = substitute(a.expr, mapping) if mapping else a.expr
        if isinstance(expr, MatrixSymbol):
            mapping[a.target] = expr
        else:
            assigns.append(Assign(a.target, expr))
    updates = [
        Update(u.view, substitute(u.expr, mapping) if mapping else u.expr)
        for u in trigger.updates
    ]
    return Trigger(trigger.input_name, trigger.params, assigns, updates)


def eliminate_dead_code(trigger: Trigger) -> Trigger:
    """Drop temporaries that no update (or live temporary) references."""
    live: set[str] = set()
    for u in trigger.updates:
        live.update(s.name for s in _symbols(u.expr))
    kept: list[Assign] = []
    for a in reversed(trigger.assigns):
        if a.target.name in live:
            kept.append(a)
            live.update(s.name for s in _symbols(a.expr))
    kept.reverse()
    return Trigger(trigger.input_name, trigger.params, kept, trigger.updates)


def _symbols(expr: Expr) -> list[MatrixSymbol]:
    return [node for node in walk(expr) if isinstance(node, MatrixSymbol)]
