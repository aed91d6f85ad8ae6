from __future__ import annotations

import pytest

from torsion_gate.hecke import (
    MerelMatrix,
    criterion_vectors,
    generic_winding_expansion,
    hecke_action,
    merel_matrices,
    winding_symbol,
)
from torsion_gate.maninspace import p1_list, quotient_rank_mod_p

from oracles import hecke_action_by_normalize, p1_normalize, quotient_rank_q, row_combination, symbol_view

# Reference expansions of T_n(0,1) as raw translate sums, n = 1..6.  These
# are level-independent whenever no summand is omitted (true at any level
# coprime to every entry, e.g. 169); each term is ((x, y), coefficient).
REFERENCE_WINDING_EXPANSIONS = {
    1: [((0, 1), 1)],
    2: [((0, 2), 1), ((1, 2), 1), ((0, 1), 2)],
    3: [((0, 3), 1), ((1, 3), 1), ((2, 3), 1), ((0, 1), 3), ((1, 2), 1)],
    4: [
        ((0, 4), 1),
        ((1, 4), 1),
        ((2, 4), 1),
        ((3, 4), 1),
        ((0, 1), 4),
        ((0, 2), 2),
        ((1, 2), 2),
        ((2, 3), 1),
    ],
    5: [
        ((0, 5), 1),
        ((1, 5), 1),
        ((2, 5), 1),
        ((3, 5), 1),
        ((4, 5), 1),
        ((0, 1), 5),
        ((1, 3), 1),
        ((1, 2), 2),
        ((3, 4), 1),
        ((2, 3), 1),
    ],
    6: [
        ((0, 6), 1),
        ((1, 6), 1),
        ((2, 6), 1),
        ((3, 6), 1),
        ((4, 6), 1),
        ((5, 6), 1),
        ((0, 1), 6),
        ((0, 3), 2),
        ((0, 2), 3),
        ((1, 3), 1),
        ((2, 3), 2),
        ((1, 2), 3),
        ((2, 4), 1),
        ((3, 4), 1),
        ((4, 5), 1),
    ],
}

MEREL_COUNTS = {1: 1, 2: 4, 3: 7, 4: 13, 5: 15, 6: 26}


def normalized_terms(N, terms):
    """Raw translate terms ((x, y), c) summed by canonical symbol."""
    acc = {}
    for (x, y), c in terms:
        sym = p1_normalize(N, x, y)
        acc[sym] = acc.get(sym, 0) + c
    return acc


def hecke_on_row(space, n, row):
    """T_n extended linearly to a column row."""
    return row_combination((c, hecke_action(space, n, space.symbol(col))) for col, c in row.items())


def test_merel_matrix_counts():
    for n, want in MEREL_COUNTS.items():
        assert len(merel_matrices(n)) == want


def test_merel_matrices_exact_for_small_n():
    assert merel_matrices(1) == (MerelMatrix(1, 0, 0, 1),)
    assert merel_matrices(2) == (
        MerelMatrix(1, 0, 0, 2),
        MerelMatrix(1, 0, 1, 2),
        MerelMatrix(2, 0, 0, 1),
        MerelMatrix(2, 1, 0, 1),
    )


def test_merel_matrices_satisfy_defining_conditions():
    for n in range(1, 13):
        mats = merel_matrices(n)
        assert len(set(mats)) == len(mats)
        assert list(mats) == sorted(mats)
        for m in mats:
            assert m.a > m.b >= 0
            assert m.d > m.c >= 0
            assert m.det == n


def test_merel_matrices_against_exhaustive_search():
    # independent brute force over the full box [0, n]^4
    for n in range(1, 9):
        brute = {
            (a, b, c, d)
            for a in range(n + 1)
            for b in range(n + 1)
            for c in range(n + 1)
            for d in range(n + 1)
            if a > b >= 0 and d > c >= 0 and a * d - b * c == n
        }
        assert {tuple(m) for m in merel_matrices(n)} == brute


def test_merel_rejects_bad_index():
    with pytest.raises(ValueError):
        merel_matrices(0)


def test_generic_expansions_match_reference():
    for n, terms in REFERENCE_WINDING_EXPANSIONS.items():
        assert dict(generic_winding_expansion(169, n)) == dict(terms)


def test_hecke_action_at_level_169(get_space):
    space = get_space(169)
    e = winding_symbol(169)
    assert e == (0, 1)
    assert symbol_view(space, hecke_action(space, 1, e)) == {e: 1}
    for n, terms in REFERENCE_WINDING_EXPANSIONS.items():
        assert symbol_view(space, hecke_action(space, n, e)) == normalized_terms(169, terms)


def test_hecke_omission_rule_at_level_two(get_space):
    # at N=2 the summand (0,2) of T_2 reduces to (0,0) and is omitted
    space = get_space(2)
    got = symbol_view(space, hecke_action(space, 2, (0, 1)))
    assert got == {(1, 0): 1, (0, 1): 2}
    assert dict(generic_winding_expansion(2, 2)) == {(1, 0): 1, (0, 1): 2}


def test_hecke_action_rejects_noncanonical_symbol(get_space):
    cases = [
        (169, (0, 2)),  # the class of (0, 1)
        (3, (2, 1)),  # the class of (1, 2)
        (169, (13, 14)),  # the class of (13, 1)
        (169, (13, 13)),  # not a point of P^1
        (169, (169, 1)),  # u >= N
    ]
    for N, (u, v) in cases:
        space = get_space(N)
        with pytest.raises(ValueError):
            hecke_action(space, 2, (u, v))


def test_t1_is_identity_on_winding_symbol(get_space):
    for N in (169, 49, 25, 143, 91, 77, 55, 40, 22):
        space = get_space(N)
        e = winding_symbol(N)
        assert symbol_view(space, hecke_action(space, 1, e)) == {e: 1}


def test_criterion_vectors(get_space):
    space = get_space(91)
    vecs = criterion_vectors(space, 3)
    assert len(vecs) == 6
    space2 = get_space(2)
    got = [symbol_view(space2, v) for v in criterion_vectors(space2, 1)]
    assert got[0] == {(0, 1): 1}
    assert got[1] == {(0, 1): 2, (1, 0): 1}


@pytest.mark.parametrize(
    "N,p,want",
    [
        (169, 5, True),
        (143, 3, True),
        (91, 3, True),
        (77, 3, True),
        (169, 3, False),  # the span drops to rank 5 mod 3
        (11, 3, False),  # quotient rank 3 < 6 bounds any span
    ],
)
def test_independence_mod_p(get_space, N, p, want):
    space = get_space(N)
    assert (quotient_rank_mod_p(space, criterion_vectors(space, 3), p) == 6) is want


def test_independence_rejects_bad_primes(get_space):
    space = get_space(169)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, criterion_vectors(space, 3), 2)


def test_hecke_action_matches_normalize_oracle(get_space):
    for N in range(1, 101):
        space = get_space(N)
        assert winding_symbol(N) == p1_normalize(N, 0, 1), N
        for x in p1_list(N):
            for n in range(1, 7):
                got = symbol_view(space, hecke_action(space, n, x))
                assert got == hecke_action_by_normalize(N, n, x), (N, n, x)
    for N in (1001, 2431, 2911):
        space = get_space(N)
        e = winding_symbol(N)
        want = [hecke_action_by_normalize(N, n, e) for n in range(1, 7)]
        assert [symbol_view(space, v) for v in criterion_vectors(space, 3)] == want, N


def test_hecke_multiplicativity_on_quotient(get_space):
    # T_2 T_3 = T_6 for coprime indices: the difference must vanish in the
    # rational quotient (rank-0 augmented test, basis-free)
    for N in (91, 143, 169):
        space = get_space(N)
        e = winding_symbol(N)
        t6 = hecke_action(space, 6, e)
        t2t3 = hecke_on_row(space, 2, hecke_action(space, 3, e))
        assert quotient_rank_q(space, [row_combination([(1, t2t3), (-1, t6)])]) == 0
        assert t2t3 != t6  # only equal after quotienting


def test_rank_bound_invariant(get_space):
    # span dimension never exceeds the vector count or the quotient rank
    for N, p in ((11, 3), (22, 3), (91, 3), (169, 5)):
        space = get_space(N)
        vecs = criterion_vectors(space, 3)
        r = quotient_rank_mod_p(space, vecs, p)
        assert r <= min(len(vecs), space.quotient_rank)
