from __future__ import annotations

import json

import pytest

from torsion_gate import cli, gate
from torsion_gate.exactmath import divisors, euler_phi, factorize, is_prime
from torsion_gate.gate import (
    GONALITY,
    X0_THREE_GONAL_BY_GENUS,
    X0_TWO_GONAL_BY_GENUS,
    X1_THREE_GONAL_BY_GENUS,
    X1_TWO_GONAL_BY_GENUS,
    gonality_exceeds,
    hasse_gate,
    t3_divisibility,
    t4_coprimality,
    verify_cyclic_exclusion,
)
from torsion_gate.maninspace import genus_x0

from oracles import genus_x1


def test_hasse_gate_examples():
    assert hasse_gate(169, 5, 3).passed
    assert hasse_gate(143, 3, 3).passed
    assert not hasse_gate(25, 3, 3).passed  # 25 < (1 + sqrt(27))^2 ~ 38.4
    assert not hasse_gate(38, 3, 3).passed  # boundary: 38 < 38.39...
    assert hasse_gate(39, 3, 3).passed


def test_hasse_gate_monotone_in_level():
    for p, d in ((3, 3), (5, 3), (3, 1)):
        passed_before = False
        for N in range(1, 400):
            ok = hasse_gate(N, p, d).passed
            assert not (passed_before and not ok), (N, p, d)
            passed_before = ok


def test_hasse_gate_validates_arguments():
    with pytest.raises(ValueError):
        hasse_gate(169, 6, 3)
    with pytest.raises(ValueError):
        hasse_gate(169, 5, 0)


def test_t3_divisibility():
    ev = t3_divisibility(169, 5, 3)
    assert ev.passed
    witnesses = dict(ev.witnesses)
    assert witnesses["p_pow_2_minus_1"] == 24
    assert witnesses["p_pow_4_minus_1"] == 624
    assert witnesses["p_pow_6_minus_1"] == 15624
    ev = t3_divisibility(91, 3, 3)  # 7 | 3^6 - 1 = 728
    assert not ev.passed
    assert dict(ev.witnesses)["divides"] == 7
    assert not t3_divisibility(2, 3, 1).passed  # 2 | 3^2 - 1
    with pytest.raises(ValueError):
        t3_divisibility(15, 3, 3)


def test_t4_coprimality():
    assert t4_coprimality(143, 3, 3).passed  # gcd with 8 and 80 is 1
    assert t4_coprimality(77, 3, 3).passed
    ev = t4_coprimality(55, 3, 3)  # gcd(55, 80) = 5
    assert not ev.passed
    assert dict(ev.witnesses)["gcd_with_p_pow_4_minus_1"] == 5
    for bad in (49, 11, 12):
        with pytest.raises(ValueError):
            t4_coprimality(bad, 3, 3)
    with pytest.raises(ValueError):
        t4_coprimality(15, 3, 3)  # p divides N


def test_t3_implies_t4_at_squarefree_composites():
    # at N = q_1...q_r, T3 asks q_j not dividing p^2i - 1 for i <= d and T4
    # the same for i <= d - 1, so a T3 fallback after a failed T4 never passes
    levels = [N for N in range(6, 2001) if len(fac := factorize(N)) >= 2 and all(e == 1 for _, e in fac)]
    primes = [p for p in range(3, 98, 2) if is_prime(p)]
    for N in levels:
        for p in primes:
            if N % p:
                for d in (1, 2, 3):
                    assert not t3_divisibility(N, p, d).passed or t4_coprimality(N, p, d).passed, (N, p, d)


def test_witness_search_runs_one_condition_per_level(cached_gate, monkeypatch):
    # T4 at the squarefree composites 55, 1001 and 2431, T3 at 169
    calls = []
    for name in ("t3_divisibility", "t4_coprimality"):
        condition = getattr(gate, name)
        monkeypatch.setattr(gate, name, lambda N, p, d, name=name, condition=condition: calls.append(name) or condition(N, p, d))
    for N, used in ((55, "t4_coprimality"), (1001, "t4_coprimality"), (2431, "t4_coprimality"), (169, "t3_divisibility")):
        for d in (1, 2, 3):
            calls.clear()
            verify_cyclic_exclusion(N, d)
            assert calls and set(calls) == {used}, (N, d, calls)


def test_gonality_examples():
    assert gonality_exceeds("X0", 169, 3)
    assert not gonality_exceeds("X0", 54, 3)
    assert not gonality_exceeds("X1", 20, 3)
    assert not gonality_exceeds("X0", 25, 1)
    assert gonality_exceeds("X0", 11, 1)
    with pytest.raises(ValueError):
        gonality_exceeds("X0", 169, 4)
    with pytest.raises(ValueError):
        gonality_exceeds("X2", 169, 3)


def test_gonality_tables_are_cumulative():
    for family in ("X0", "X1"):
        assert GONALITY[family][1] <= GONALITY[family][2]
        assert GONALITY[family][2] <= GONALITY[family][3]


def test_gonality_tables_match_their_genus_labels():
    for table in (X0_TWO_GONAL_BY_GENUS, X0_THREE_GONAL_BY_GENUS):
        for genus, levels in table.items():
            for N in levels:
                assert genus_x0(N) == genus, (N, genus)
    for table in (X1_TWO_GONAL_BY_GENUS, X1_THREE_GONAL_BY_GENUS):
        for genus, levels in table.items():
            for N in levels:
                if N >= 5:  # genus_x1's formula starts at 5; X_1(N) has genus 0 below it
                    assert genus_x1(N) == genus, (N, genus)


def modular_index(family: str, N: int) -> int:
    """Index in PSL_2(Z) of Gamma_0(N), or of Gamma_1(N) (which for N >= 3 omits -1)."""
    psi = N
    for ell, _ in factorize(N):
        psi = psi // ell * (ell + 1)
    return psi * euler_phi(N) // 2 if family == "X1" and N >= 3 else psi


def test_gonality_tables_respect_abramovich_bound():
    # Abramovich (IMRN 1996): Gon(X) >= (7/800) * index, so a level of gonality <= d has
    # 7 * index <= 800 d.  The largest 7 * psi in the X0 trigonal set is 756 (N = 81).
    for family, by_degree in GONALITY.items():
        for d, levels in by_degree.items():
            for N in levels:
                assert 7 * modular_index(family, N) <= 800 * d, (family, d, N)
    assert max(7 * modular_index("X0", N) for N in GONALITY["X0"][3]) == 756


def test_hyperelliptic_levels_count_as_trigonal_covered():
    # levels of gonality 2 sit inside the gonality <= 3 set even when the
    # published trigonal list proper does not repeat them
    assert 30 in GONALITY["X0"][3]
    assert 71 in GONALITY["X0"][3]


def test_witness_search_cases(cached_gate, monkeypatch):
    report = verify_cyclic_exclusion(169, 3, 50)
    assert (report.outcome, report.witness_prime) == ("excluded-T3", 5)
    report = verify_cyclic_exclusion(143, 3, 50)
    assert (report.outcome, report.witness_prime) == ("excluded-T4", 3)
    # 55 finds no T3/T4 witness at p = 3 and falls back to method A
    report = verify_cyclic_exclusion(55, 3, 3)
    assert (report.outcome, report.witness_prime) == ("excluded-methodA", 3)
    # Gon(X_0(49)) <= 3: the gonality gate stops the search before its first candidate
    hasse = gate.hasse_gate
    tried = []
    monkeypatch.setattr(gate, "hasse_gate", lambda N, p, d: tried.append(p) or hasse(N, p, d))
    report = verify_cyclic_exclusion(49, 3, 50)
    assert report.outcome == "excluded-methodA"
    assert tried == []


def test_witness_prime_is_never_two_or_a_divisor(cached_gate):
    for N in (169, 143, 91, 77):
        report = verify_cyclic_exclusion(N, 3)
        assert report.outcome in ("excluded-T3", "excluded-T4"), N
        assert report.witness_prime > 2 and N % report.witness_prime != 0
        names = [e.name for e in report.evidence]
        assert names[0] == "gonality-x0" and names[-1] == "hecke-independence"


def test_witness_search_stops_at_first_pass(cached_gate, monkeypatch):
    # at 169, d = 3: p = 3 fails the Hecke check and 5 passes; d = 1: 3 passes,
    # although every odd p <= 97 would clear the Hasse and T3 gates
    rank = gate.quotient_rank_mod_p

    def recording_rank(space, vectors, p):
        tried.append(p)
        return rank(space, vectors, p)

    monkeypatch.setattr(gate, "quotient_rank_mod_p", recording_rank)
    for d, reached in ((3, [3, 5]), (1, [3])):
        tried = []
        report = verify_cyclic_exclusion(169, d, 97)
        assert (report.outcome, report.witness_prime) == ("excluded-T3", reached[-1])
        assert tried == reached


def test_criterion_vectors_built_once_per_level(cached_gate, monkeypatch):
    # at 169, p = 3 reaches the Hecke check and fails it; p = 5 passes
    calls = []
    build = gate.criterion_vectors
    monkeypatch.setattr(gate, "criterion_vectors", lambda space, d: calls.append(d) or build(space, d))
    report = verify_cyclic_exclusion(169, 3, 50)
    assert report.witness_prime == 5
    assert calls == [3]


@pytest.mark.parametrize("d", (3, 4))
def test_verify_validates_p_max_at_every_degree(d):
    # d > 3 never reaches the witness search, so verify checks p_max itself
    with pytest.raises(ValueError, match="p_max must be >= 3"):
        verify_cyclic_exclusion(91, d, p_max=2)


@pytest.mark.parametrize(
    "N,outcome,p",
    [
        (169, "excluded-T3", 5),
        (143, "excluded-T4", 3),
        (91, "excluded-T4", 3),
        (77, "excluded-T4", 3),
        (49, "excluded-methodA", 3),
        (25, "excluded-methodA", 3),
        (55, "excluded-methodA", 3),
        (40, "excluded-methodA", 3),
        (22, "excluded-methodA", 3),
    ],
)
def test_verify_cyclic_exclusion_all_cases(cached_gate, N, outcome, p):
    report = verify_cyclic_exclusion(N, 3)
    assert report.outcome == outcome
    assert report.witness_prime == p
    assert report.excluded
    assert all(e.passed for e in report.evidence if e.name != "witness-prime-search")


def test_verify_cyclic_exclusion_inconclusive(cached_gate):
    report = verify_cyclic_exclusion(20, 3)
    assert report.outcome == "inconclusive"
    assert report.witness_prime is None
    assert not report.excluded
    # 169 needs p = 5: capping the search at 3 must come back inconclusive
    report = verify_cyclic_exclusion(169, 3, p_max=3)
    assert report.outcome == "inconclusive"


@pytest.mark.parametrize("N,d", [(43, 2), (97, 3), (109, 3)])
def test_tau_fixed_torsion_certifies_nothing(cached_gate, N, d):
    # T_1(0,1)..T_2d(0,1) are dependent mod 3 in H_1(X_0(N), cusps); they
    # looked independent only while a tau-fixed symbol survived as 3-torsion
    report = verify_cyclic_exclusion(N, d)
    assert report.outcome == "inconclusive"
    assert report.witness_prime is None


def test_witness_search_stops_at_first_hasse_failure(cached_gate, monkeypatch):
    # (1 + sqrt(p^d))^2 grows with p, so a p_max of 10^12 costs nothing
    # once the Hasse gate fails: 169 passes at p = 5 before that, 97 fails
    # it at p = 5; 22 has Gon(X_0(22)) <= 3, and method A passes there at p = 3
    hasse = gate.hasse_gate
    tried = []
    monkeypatch.setattr(gate, "hasse_gate", lambda N, p, d: tried.append(p) or hasse(N, p, d))
    for N, outcome, p, reached in (
        (169, "excluded-T3", 5, [3, 5]),
        (97, "inconclusive", None, [3, 5]),
        (22, "excluded-methodA", 3, []),
    ):
        tried.clear()
        report = verify_cyclic_exclusion(N, 3, p_max=10**12)
        assert (report.outcome, report.witness_prime) == (outcome, p), N
        assert tried == reached, N


def test_verify_cyclic_exclusion_beyond_table_range(cached_gate):
    report = verify_cyclic_exclusion(91, 4)
    assert report.outcome == "inconclusive"
    assert [e.name for e in report.evidence] == ["gonality-tables-range"]


def test_report_json_dict_uses_decimal_strings(cached_gate, capsys):
    assert cli.main(["verify", "--N", "91", "--d", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["witness_prime"] == "3"
    for e in doc["evidence"]:
        assert all(isinstance(v, str) and v.lstrip("-").isdigit() for v in e["witnesses"].values())


# Cyclic levels N such that Z/NZ is the torsion of some elliptic curve over
# a degree-d field: Mazur 1977 (d = 1); Kenku-Momose 1988 and Kamienny 1992
# (d = 2); Jeon-Kim-Schweizer 2004 and Derickx-Etropolski-van Hoeij-Morrow-
# Zureick-Brown, arXiv 2007.13929 (d = 3).
REALIZED_LEVELS = {
    1: (*range(1, 11), 12),
    2: (*range(1, 17), 18),
    3: (*range(1, 17), 18, 20, 21),
}


@pytest.mark.parametrize("p_max", (97, 10**12))
@pytest.mark.parametrize("d", sorted(REALIZED_LEVELS))
def test_realized_levels_are_never_excluded(d, p_max):
    # an excluded-* verdict at a realized level is a soundness bug, whatever the gate
    for N in REALIZED_LEVELS[d]:
        report = verify_cyclic_exclusion(N, d, p_max=p_max)
        assert (report.outcome, report.witness_prime) == ("inconclusive", None), N


# No prime N >= 17 is cyclic torsion over fields of degree d <= 3 (Mazur 1977; Kamienny 1992,
# Kenku-Momose 1988; Parent 2000, 2003).  The coverage map of the primes 17 <= N < 400: T3
# excludes each at p = 3 but these, where the search up to the default p_max comes back empty.
PRIME_LEVELS = tuple(N for N in range(17, 400) if is_prime(N))
INCONCLUSIVE_PRIME_LEVELS = {
    1: (),
    2: (17, 19, 23, 29, 31, 37, 41, 43, 47, 59, 71),
    3: (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 97, 109),
}


@pytest.mark.parametrize("d", sorted(INCONCLUSIVE_PRIME_LEVELS))
def test_prime_level_coverage_map(d):
    verdicts = {N: verify_cyclic_exclusion(N, d) for N in PRIME_LEVELS}
    for N, report in verdicts.items():
        expected = ("inconclusive", None) if N in INCONCLUSIVE_PRIME_LEVELS[d] else ("excluded-T3", 3)
        assert (report.outcome, report.witness_prime) == expected, N
    excluded = sum(report.excluded for report in verdicts.values())
    assert (len(PRIME_LEVELS), excluded) == (72, {1: 72, 2: 61, 3: 55}[d])


# The minimal levels (ROADMAP C): N is not realized over degree-d fields, every proper divisor
# of N is, and every prime factor of N is allowed: p <= 7 at d = 1 (Mazur 1977), p <= 13 at
# d = 2 (Kamienny 1992, Kenku-Momose 1988) and d = 3 (Parent 2000, 2003).  A proper divisor
# N/p is realized, so N <= max(realized) * (largest allowed prime) bounds the search.  Each
# excluded level with its method and witness prime; every other minimal level is inconclusive.
ALLOWED_PRIMES = {1: 7, 2: 13, 3: 13}
MINIMAL_LEVEL_EXCLUSIONS = {
    1: {14: ("T4", 3), 15: ("T4", 7), 21: ("T4", 5), 25: ("methodA", 3), 27: ("T3", 5), 35: ("T4", 3), 49: ("T3", 3)},
    2: {
        22: ("methodA", 3), 25: ("methodA", 3), 49: ("methodA", 3),
        55: ("T4", 3), 65: ("T4", 3), 77: ("T4", 3), 91: ("T4", 3), 143: ("T4", 3),
        121: ("T3", 3), 169: ("T3", 3),
    },
    3: {
        22: ("methodA", 3), 25: ("methodA", 3), 40: ("methodA", 3), 49: ("methodA", 3), 55: ("methodA", 3),
        77: ("T4", 3), 91: ("T4", 3), 143: ("T4", 3),
        169: ("T3", 5),
    },
}


def minimal_levels(d: int) -> list[int]:
    realized, bound = set(REALIZED_LEVELS[d]), ALLOWED_PRIMES[d]
    return [
        N
        for N in range(2, max(realized) * bound + 1)
        if N not in realized
        and all(p <= bound for p, _ in factorize(N))
        and all(k in realized for k in divisors(N)[:-1])
    ]


@pytest.mark.parametrize("d", sorted(MINIMAL_LEVEL_EXCLUSIONS))
def test_minimal_level_coverage_map(d, cached_gate):
    levels = minimal_levels(d)
    excluded = MINIMAL_LEVEL_EXCLUSIONS[d]
    assert (len(levels), len(excluded)) == {1: (11, 7), 2: (23, 10), 3: (24, 9)}[d]
    assert set(excluded) <= set(levels)
    for N in levels:
        report = verify_cyclic_exclusion(N, d)
        method, p = excluded.get(N, (None, None))
        expected = ("inconclusive", None) if method is None else (f"excluded-{method}", p)
        assert (report.outcome, report.witness_prime) == expected, N
