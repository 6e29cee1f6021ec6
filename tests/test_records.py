"""The frozen records that are ``typing.NamedTuple``\\ s, and the ones
that stay dataclasses.

A record with no validation, no cache and no ``asdict`` / ``fields``
caller is a NamedTuple: building its class costs a tenth of a frozen
dataclass's at every set-up (docs/invariants.md, "Import closures").
What callers rely on must not change with the base class: no field can
be assigned, ``_replace`` is the copy-with-changes, equality is
field-wise, and ``Token``'s ``repr`` is the lexer's own.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.backends import get_backend
from repro.compiler.compile import CompiledProgram, compiled_program
from repro.compiler.codegen.fused import LoweredTrigger
from repro.frontend import parse_program
from repro.frontend.lexer import IDENT, Token, tokenize
from repro.planner.plan import MaintenancePlan, WorkloadStats
from repro.runtime.batching import (
    DeferralSpec,
    _Resolved,
    resolve_deferral,
    still_resolved,
)
from repro.runtime.serving import Snapshot
from repro.runtime.session import IVMSession
from repro.runtime.updates import FactoredUpdate

CHAIN = "input A(n, n); B := A * A; C := B * B; output C;"


def _records():
    """``(record, a field, another value for it)`` per converted class."""
    program = parse_program(CHAIN)
    return [
        (Token(IDENT, "A", 1, 7), "text", "B"),
        (compiled_program(program).lowered("A"), "rank", 2),
        (Snapshot(epoch=3, seq=10, views={}, pending=2, published_at=0.5),
         "epoch", 4),
        (_Resolved.wanted(DeferralSpec(batch=4), None, None, None, None,
                          "dense"), "width", 8),
        (WorkloadStats(n=64, k=4), "density", 0.5),
    ]


@pytest.mark.parametrize("record, name, other", _records(),
                         ids=lambda value: type(value).__name__)
class TestNamedTupleRecords:
    def test_is_a_namedtuple_not_a_dataclass(self, record, name, other):
        assert isinstance(record, tuple) and hasattr(record, "_fields")
        assert not dataclasses.is_dataclass(record)

    def test_cannot_be_assigned(self, record, name, other):
        with pytest.raises(AttributeError):
            setattr(record, name, other)
        with pytest.raises(AttributeError):
            record.no_such_field = 1

    def test_replace_round_trips(self, record, name, other):
        changed = record._replace(**{name: other})
        assert getattr(changed, name) == other
        assert changed != record
        assert changed._replace(**{name: getattr(record, name)}) == record
        assert type(changed) is type(record)


def test_records_with_validation_caches_or_asdict_stay_dataclasses():
    for cls in (MaintenancePlan, DeferralSpec, CompiledProgram):
        assert dataclasses.is_dataclass(cls)
    with pytest.raises(ValueError, match="strategy"):
        MaintenancePlan("NOPE")
    with pytest.raises(ValueError, match="batch"):
        DeferralSpec(batch=0)


def test_token_repr_is_the_lexers():
    tokens = tokenize("B := A'")
    assert [repr(token) for token in tokens] == [
        "IDENT('B')@1:1", "ASSIGN(':=')@1:3", "IDENT('A')@1:6",
        "TICK(\"'\")@1:7", "EOF('')@1:8"]
    assert tokens[0] == Token(IDENT, "B", 1, 1)


def test_still_resolved_compares_field_wise():
    backend = get_backend("dense")
    spec = DeferralSpec(batch=4)
    running = resolve_deferral(spec, backend=backend)
    assert still_resolved(spec, None, running, backend=backend)
    assert not still_resolved(DeferralSpec(batch=8), None, running,
                              backend=backend)
    assert not still_resolved(DeferralSpec(batch=None), None, running,
                              backend=backend)
    # Equal decisions built twice are equal records.
    wanted = [_Resolved.wanted(spec, None, None, None, None, backend)
              for _ in range(2)]
    assert wanted[0] == wanted[1] and wanted[0] is not wanted[1]
    assert _Resolved.running(running) == wanted[0]
    assert _Resolved.running(None) is None


def test_workload_stats_from_matrix():
    a = np.zeros((10, 10))
    a[0, :5] = 1.0
    stats = WorkloadStats.from_matrix(a, k=8)
    assert (stats.n, stats.k, stats.density) == (10, 8, 0.05)
    assert stats.refresh_count == WorkloadStats(n=10).refresh_count
    assert WorkloadStats.from_matrix(a, density=1.0).density == 1.0


def test_lowered_trigger_runs_bitwise_in_both_modes():
    """The NamedTuple lowered list is what both executors run."""
    rng = np.random.default_rng(48)
    program = parse_program(CHAIN)
    lowered = compiled_program(program).lowered("A")
    assert isinstance(lowered, LoweredTrigger) and lowered.ops
    a0 = rng.standard_normal((12, 12)) / 12
    sessions = [IVMSession(program, {"A": a0}, mode=mode)
                for mode in ("interpret", "codegen")]
    for _ in range(5):
        update = FactoredUpdate("A", rng.standard_normal((12, 1)),
                                rng.standard_normal((12, 1)))
        for session in sessions:
            session.apply_update(update)
        for name in ("A", "B", "C"):
            assert np.array_equal(sessions[0][name], sessions[1][name])
