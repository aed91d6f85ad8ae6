"""The engine's result records: constructors, value equality, immutability."""

from __future__ import annotations

import pytest

from torsion_gate.exactmath import Factorization, PrimePower
from torsion_gate.gate import ConditionEvidence, GateReport
from torsion_gate.redux import JacobianFiniteFact, TraceCensus

# Each frozen record: a factory (called twice, for two equal records), a
# record that differs in one field, and that field.
FROZEN_RECORDS = [
    (lambda: Factorization(((2, 1), (3, 2))), Factorization(((2, 1), (3, 1))), "factors"),
    (lambda: PrimePower(3, 2), PrimePower(p=3, n=1), "p"),
    (lambda: ConditionEvidence("hasse-gate", True, (("N", 169),)), ConditionEvidence("hasse-gate", False), "passed"),
    (lambda: TraceCensus(PrimePower(3, 1), 1, 7, frozenset({0, 1})), TraceCensus(PrimePower(3, 1), 0, 7, frozenset()), "hasse_lo"),
    (lambda: JacobianFiniteFact(22, (1, 1, 4), "cited"), JacobianFiniteFact(25, (8, 4), "cited"), "N"),
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


def test_gate_report_defaults_and_fresh_evidence():
    a = GateReport(91, 3, "inconclusive", None)
    b = GateReport(91, 3, "inconclusive", None)
    assert a.evidence == [] and a.elapsed_ms == 0
    assert a.evidence is not b.evidence
    assert a == b
    a.evidence.append(ConditionEvidence("hasse-gate", False))
    assert b.evidence == []
    assert a != b
    c = GateReport(N=91, d=3, outcome="excluded-T4", witness_prime=3, evidence=[], elapsed_ms=5)
    assert c.excluded and not b.excluded
    assert c != GateReport(91, 3, "excluded-T4", 3, [], 6)
    assert repr(c) == "GateReport(N=91, d=3, outcome='excluded-T4', witness_prime=3, evidence=[], elapsed_ms=5)"


def test_factorization_is_not_a_tuple():
    fac = Factorization(((2, 1), (7, 1)))
    assert not isinstance(fac, tuple)
    assert list(fac) == [(2, 1), (7, 1)] and len(fac) == 2
    assert fac != ((2, 1), (7, 1))
    assert repr(fac) == "Factorization(factors=((2, 1), (7, 1)))"
