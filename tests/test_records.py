"""The engine's result records: constructors, value equality, immutability."""

from __future__ import annotations

import pytest

from torsion_gate.exactmath import PrimePower
from torsion_gate.gate import ConditionEvidence, GateReport
from torsion_gate.redux import TraceCensus

# Each frozen record: a factory (called twice, for two equal records), a
# record that differs in one field, and that field.
FROZEN_RECORDS = [
    (lambda: PrimePower(3, 2), PrimePower(p=3, n=1), "p"),
    (lambda: ConditionEvidence("hasse-gate", True, (("N", 169),)), ConditionEvidence("hasse-gate", False), "passed"),
    (lambda: TraceCensus(PrimePower(3, 1), 1, 7, frozenset({0, 1})), TraceCensus(PrimePower(3, 1), 0, 7, frozenset()), "hasse_lo"),
]


@pytest.mark.parametrize("make, other, field", FROZEN_RECORDS, ids=[type(other).__name__ for _, other, _ in FROZEN_RECORDS])
def test_frozen_record_is_an_immutable_value(make, other, field):
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    assert a != other
    assert hash(a) == hash(b)
    assert len({a, b, other}) == 2
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert a == b


def test_gate_report_is_an_immutable_value():
    a, b = (GateReport(N=91, d=3, outcome="excluded-T4", witness_prime=3, evidence=[], elapsed_ms=5) for _ in "ab")
    assert a == b and not a != b
    assert a.excluded and not a._replace(outcome="inconclusive").excluded
    assert a != GateReport(91, 3, "excluded-T4", 3, [], 6)
    assert a != GateReport(91, 3, "excluded-T4", 3, [ConditionEvidence("hasse-gate", True)], 5)
    assert repr(a) == "GateReport(N=91, d=3, outcome='excluded-T4', witness_prime=3, evidence=[], elapsed_ms=5)"
    with pytest.raises(AttributeError):
        a.outcome = "inconclusive"
    with pytest.raises(AttributeError):
        del a.N
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    with pytest.raises(TypeError):
        GateReport(91, 3, "inconclusive", None)  # every field is required
    assert a == b
