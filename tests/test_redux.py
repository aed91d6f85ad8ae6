from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from torsion_gate.cli import canonical_json
from torsion_gate.exactmath import PrimePower, is_prime
from torsion_gate.gate import gonality_exceeds
from torsion_gate.hecke import generic_winding_expansion
from torsion_gate.redux import (
    JACOBIAN_FINITE_FACTS,
    admissible_traces,
    additive_excluded,
    brute_force_census,
    method_a_verdict,
)

from oracles import brute_force_census_by_slices, brute_force_census_by_translation, brute_force_census_full

# hand-derived from Waterhouse's case list:
#   q=3:  (1) +-1, +-2; (4) +-3; (5) 0
#   q=5:  (1) +-1..+-4; (5) 0
#   q=9:  (1) coprime to 3; (2) +-6; (3) +-3 since 3 != 1 mod 3; (5) 0 since 3 != 1 mod 4
#   q=25: (1) coprime to 5; (2) +-10; (3) +-5; no 0 since 5 = 1 mod 4 and n even
#   q=27: (1) coprime to 3; (4) +-9; (5) 0
EXPECTED_TRACES = {
    (3, 1): {0, 1, -1, 2, -2, 3, -3},
    (5, 1): {0, 1, -1, 2, -2, 3, -3, 4, -4},
    (7, 1): {0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5},
    (3, 2): {0, 1, -1, 2, -2, 3, -3, 4, -4, 5, -5, 6, -6},
    (5, 2): {t for t in range(-10, 11) if t != 0},
    (3, 3): {0, 1, -1, 2, -2, 4, -4, 5, -5, 7, -7, 8, -8, 9, -9, 10, -10},
}


@pytest.mark.parametrize("p,n", sorted(EXPECTED_TRACES))
def test_admissible_traces(p, n):
    census = admissible_traces(PrimePower(p, n))
    q = p**n
    assert census.traces == frozenset(EXPECTED_TRACES[(p, n)])
    assert all(t * t <= 4 * q for t in census.traces)
    assert census.hasse_lo == q + 1 - max(census.traces)
    assert census.hasse_hi == q + 1 + max(census.traces)


def test_hasse_interval_endpoints():
    census = admissible_traces(PrimePower(3, 3))
    assert (census.hasse_lo, census.hasse_hi) == (18, 38)
    census = admissible_traces(PrimePower(3, 2))
    assert (census.hasse_lo, census.hasse_hi) == (4, 16)


def test_orders_divisible_by():
    # method A and `census --N` read the orders divisible by N off the census's orders
    orders27 = admissible_traces(PrimePower(3, 3)).orders
    assert not any(o % 25 == 0 for o in orders27)  # trace would be 3, inadmissible
    assert not any(o % 22 == 0 for o in orders27)  # trace would be 6
    assert not any(o % 49 == 0 for o in orders27)  # 49 > 38, above the interval
    assert len(orders27) == 17
    assert not any(o % 22 == 0 for o in admissible_traces(PrimePower(3, 2)).orders)  # 22 > 16


def test_additive_excluded():
    assert additive_excluded(49, 3, 3).passed
    assert additive_excluded(22, 3, 3).passed
    ev = additive_excluded(12, 3, 3)  # 12 | 3 * 4
    assert not ev.passed
    assert dict(ev.witnesses)["group_order"] == 12
    with pytest.raises(ValueError):
        additive_excluded(49, 4, 3)


# each of these took a level without checking it: N = 0 divided by zero (or, for the
# gonality gate, passed), and a negative N ran on
@pytest.mark.parametrize("N", (0, -3, -4))
@pytest.mark.parametrize(
    "call",
    (
        lambda N: generic_winding_expansion(N, 5),
        lambda N: additive_excluded(N, 3, 3),
        lambda N: gonality_exceeds("X0", N, 1),
    ),
    ids=("generic_winding_expansion", "additive_excluded", "gonality_exceeds"),
)
def test_level_functions_reject_nonpositive_N(call, N):
    with pytest.raises(ValueError, match="N must be positive"):
        call(N)


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_brute_force_matches_classification(p, n):
    pp = PrimePower(p, n)
    observed = brute_force_census(pp)
    predicted = admissible_traces(pp)
    assert observed.trace_set == predicted.traces
    assert all(predicted.hasse_lo <= o <= predicted.hasse_hi for o in observed.orders)
    # quadratic twisting pairs off curves with opposite traces
    for t, count in observed.trace_counts.items():
        assert observed.trace_counts[-t] == count


def test_brute_force_small_field_orders():
    observed = brute_force_census(PrimePower(5, 1))
    assert observed.orders == frozenset(range(2, 11))


def test_brute_force_excludes_target_orders_over_f27():
    observed = brute_force_census(PrimePower(3, 3))
    assert 25 not in observed.orders
    assert 22 not in observed.orders


def test_brute_force_guards():
    with pytest.raises(ValueError, match=r"^q must be an odd prime power <= 343$"):
        brute_force_census(PrimePower(2, 1))
    with pytest.raises(ValueError, match=r"^q must be an odd prime power <= 343$"):
        brute_force_census(PrimePower(3, 6))  # 729 > 343


def odd_prime_powers(lo: int, hi: int) -> list[tuple[int, int]]:
    """(p, n) for every odd prime power lo < p^n <= hi, in increasing q."""
    found = [(p, n) for p in range(3, hi + 1, 2) if is_prime(p) for n in range(1, 6) if lo < p**n <= hi]
    return sorted(found, key=lambda pn: pn[0] ** pn[1])


@pytest.mark.parametrize("p,n", odd_prime_powers(0, 49))
def test_brute_force_matches_full_scan(p, n):
    # the orbit slices with their weights count exactly what the q^4 scan counts
    pp = PrimePower(p, n)
    observed = brute_force_census(pp)
    full = brute_force_census_full(pp)
    assert observed.trace_counts == full.trace_counts
    assert observed.orders == full.orders


# every odd q in (49, 125], which covers q = 1 and 3 (mod 4) and p = 3 at 81,
# and q = 243, p = 3 with an odd exponent beyond 27
@pytest.mark.parametrize("p,n", odd_prime_powers(49, 125) + [(3, 5)])
def test_brute_force_matches_translation_scan(p, n):
    pp = PrimePower(p, n)
    observed = brute_force_census(pp)
    by_translation = brute_force_census_by_translation(pp)
    assert observed.trace_counts == by_translation.trace_counts
    assert observed.orders == by_translation.orders


# the tally of each slice's digits, less those of its singular c, counts what the curve-by-curve
# scan of the same slices counts, at every field the guard admits
@pytest.mark.parametrize("p,n", odd_prime_powers(0, 343))
def test_brute_force_matches_slice_scan(p, n):
    pp = PrimePower(p, n)
    assert brute_force_census(pp).trace_counts == brute_force_census_by_slices(pp).trace_counts


# No oracle with a field of its own reaches the fields in (125, 343] other than 243 in test time
# (the translation scan would take minutes at 343), and the slice scan reads the engine's field
# tables, so every census the guard admits is also pinned by the sha256 of its sorted trace
# counts.  The digests were computed before the census packed its character rows; the one at
# 343 was first computed at commit 71ff555.
CENSUS_DIGESTS = json.loads((Path(__file__).with_name("golden") / "census_digests.json").read_text())


@pytest.mark.parametrize("p,n", odd_prime_powers(0, 343))  # every field the guard allows, 343 included
def test_brute_force_at_guard_sizes(p, n):
    pp = PrimePower(p, n)
    observed = brute_force_census(pp)
    assert observed.trace_set == admissible_traces(pp).traces
    assert sum(observed.trace_counts.values()) == pp.q**3 - pp.q**2  # the nonsingular monic cubics
    assert all(count > 0 for count in observed.trace_counts.values())  # no trace without a curve
    for t, count in observed.trace_counts.items():
        assert observed.trace_counts[-t] == count
    digest = hashlib.sha256(canonical_json(sorted(observed.trace_counts.items())).encode()).hexdigest()
    assert digest == CENSUS_DIGESTS[str(pp.q)]


def test_census_digests_cover_the_guard():
    assert list(CENSUS_DIGESTS) == [str(p**n) for p, n in odd_prime_powers(0, 343)]
    assert CENSUS_DIGESTS["343"] == "8015c529b5335b13b3f43d66c5bf0fa8b83a1522902a342161460ef681d92d41"


def test_jacobian_facts_table():
    assert JACOBIAN_FINITE_FACTS == {
        49: (1, 48, 6, 12, 2),
        25: (8, 4),
        55: (1, 2, 1, 1, 4, 32, 8, 8, 16, 4, 4),
        40: (1, 1, 1, 4, 2, 2, 8, 2, 4),
        22: (1, 1, 4),
    }


@pytest.mark.parametrize("N", [49, 25, 55, 40, 22])
def test_method_a_verdict_passes(N):
    evidence = method_a_verdict(N, 3, 3)
    assert all(e.passed for e in evidence)
    names = [e.name for e in evidence]
    assert names[0] == "finite-jacobian-table"
    assert names.count("good-reduction-orders") == 3
    assert evidence[0].detail.endswith(f"finiteness via Kato; factor dims {JACOBIAN_FINITE_FACTS[N]})")


def test_method_a_verdict_fails_off_table():
    evidence = method_a_verdict(91, 3, 3)
    assert not all(e.passed for e in evidence)
    assert not evidence[0].passed


def test_method_a_verdict_validates_p():
    with pytest.raises(ValueError):
        method_a_verdict(49, 3, 2)
    with pytest.raises(ValueError):
        method_a_verdict(49, 3, 7)  # p | N
    with pytest.raises(ValueError):
        method_a_verdict(49, 3, 9)
    for N in (0, -3):  # p = 3 divides both, but N is checked first
        with pytest.raises(ValueError, match="N must be positive"):
            method_a_verdict(N, 3, 3)
