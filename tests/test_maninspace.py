from __future__ import annotations

import random

import pytest

from torsion_gate.exactmath import gcd
from torsion_gate.hecke import criterion_vectors
from torsion_gate.maninspace import (
    FreeVector,
    ManinSymbol,
    SIGMA,
    TAU,
    _Echelon,
    build_space,
    cusp_count_x0,
    genus_x0,
    index_x0,
    p1_list,
    p1_normalize,
    quotient_rank_mod_p,
    quotient_rank_q,
    right_translate,
)

from oracles import bareiss_rank, dense_rank_mod_p, dense_rows, p1_list_by_normalize, relation_rows_by_normalize

# quotient dimension 2g + c - 1, with g and c from the classical formulas
EXPECTED_QUOTIENT_RANK = {
    11: 3,
    22: 7,
    25: 5,
    40: 13,
    49: 9,
    55: 13,
    77: 17,
    91: 17,
    143: 29,
    169: 29,
    1000: 301,
    2431: 505,
    5000: 1501,
}


def test_p1_normalize_examples():
    assert p1_normalize(169, 0, 2) == ManinSymbol(0, 1)
    assert p1_normalize(169, 2, 4) == ManinSymbol(1, 2)
    assert p1_normalize(1, 0, 0) == ManinSymbol(0, 0)
    with pytest.raises(ValueError):
        p1_normalize(2, 0, 0)
    with pytest.raises(ValueError):
        p1_normalize(12, 2, 4)


def test_p1_normalize_idempotent_and_unit_invariant():
    for N in range(1, 51):
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) != 1:
                    continue
                sym = p1_normalize(N, u, v)
                assert p1_normalize(N, *sym) == sym
    # scaling by any unit lands in the same class
    for N in (12, 15, 16, 25):
        units = [t for t in range(1, N) if gcd(t, N) == 1]
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) != 1:
                    continue
                sym = p1_normalize(N, u, v)
                for t in units[:6]:
                    assert p1_normalize(N, t * u, t * v) == sym


def test_p1_list_lengths():
    assert len(p1_list(13)) == 14
    assert len(p1_list(169)) == 182
    assert len(p1_list(22)) == 36
    assert p1_list(1) == (ManinSymbol(0, 0),)


def test_p1_list_matches_index_formula():
    for N in range(1, 201):
        assert len(p1_list(N)) == index_x0(N), N


def test_p1_list_matches_normalize_oracle():
    for N in [*range(1, 301), 1001, 2431]:
        assert p1_list(N) == p1_list_by_normalize(N), N


def test_p1_list_entries_are_canonical_and_distinct():
    for N in (22, 40, 169):
        gens = p1_list(N)
        assert len(set(gens)) == len(gens)
        for sym in gens:
            assert p1_normalize(N, *sym) == sym


def test_sigma_involution_and_tau_order_three():
    for N in range(1, 51):
        for sym in p1_list(N):
            pair = right_translate(N, *right_translate(N, sym.u, sym.v, SIGMA), SIGMA)
            assert p1_normalize(N, *pair) == sym
            pair = (sym.u, sym.v)
            for _ in range(3):
                pair = right_translate(N, *pair, TAU)
            assert p1_normalize(N, *pair) == sym


def test_genus_and_cusp_examples():
    assert genus_x0(40) == 3
    assert genus_x0(71) == 6
    assert genus_x0(169) == 8
    assert cusp_count_x0(169) == 14
    assert 2 * genus_x0(169) + cusp_count_x0(169) - 1 == 29
    assert genus_x0(1) == 0 and cusp_count_x0(1) == 1


def test_quotient_rank_matches_genus_cusp_formula(get_space):
    for N, want in EXPECTED_QUOTIENT_RANK.items():
        space = get_space(N)
        assert space.quotient_rank == want
        assert space.quotient_rank == 2 * genus_x0(N) + cusp_count_x0(N) - 1
        assert space.psi == index_x0(N)
        assert_rows_match_normalize_oracle(space)


def assert_rows_match_normalize_oracle(space):
    """One row per sigma or tau orbit: no duplicates, and the oracle's rows as a set."""
    rows = space.relation_rows
    assert len(set(rows)) == len(rows), space.N
    assert set(rows) == set(relation_rows_by_normalize(space.N)), space.N


def test_relation_rows_match_normalize_oracle():
    for N in [*range(1, 301), 1001, 1169, 1271, 2431, 2653, 2911, 379, 383, 389]:
        assert_rows_match_normalize_oracle(build_space(N))


@pytest.mark.parametrize("N", range(1, 201))
def test_ranks_match_dense_oracles(N):
    space = build_space(N)
    vectors = criterion_vectors(space, 3)
    base = bareiss_rank(dense_rows(space))
    assert quotient_rank_q(space, vectors) == bareiss_rank(dense_rows(space, vectors)) - base
    assert space.rank_q == base  # the quotient left the cached echelon as it was
    for p in (3, 5, 7):
        base = dense_rank_mod_p(dense_rows(space), p)
        assert quotient_rank_mod_p(space, vectors, p) == dense_rank_mod_p(dense_rows(space, vectors), p) - base
        assert space.rank_mod_p(p) == base


def test_echelon_matches_dense_oracles_on_random_matrices():
    # leading coefficients other than 1 occur here, unlike in relation matrices
    rng = random.Random(7)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
        cut = rng.randint(0, nrows)
        for p in (0, 3, 5):
            oracle = (lambda m: dense_rank_mod_p(m, p)) if p else bareiss_rank
            want = oracle([r[:] for r in rows[:cut]])
            base = _Echelon(p, sparse[:cut])
            assert base.rank == want
            assert base.extra_rank(sparse[cut:]) == oracle([r[:] for r in rows]) - want
            assert base.rank == want  # extra_rank left the echelon as it was


def test_sigma_relation_row_dies_in_quotient(get_space):
    space = get_space(169)
    vec = FreeVector({ManinSymbol(0, 1): 1, ManinSymbol(1, 0): 1})
    assert quotient_rank_mod_p(space, [vec], 5) == 0
    assert quotient_rank_q(space, [vec]) == 0  # i.e. (0,1) = -(1,0) in the quotient


def test_quotient_rank_mod_p_rejects_bad_p(get_space):
    space = get_space(11)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, [], 2)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, [], 9)


def test_quotient_rank_mod_p_rejects_foreign_symbols(get_space):
    space = get_space(11)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, [FreeVector({ManinSymbol(0, 2): 1})], 3)


def test_free_vector_algebra():
    a = FreeVector({ManinSymbol(0, 1): 2, ManinSymbol(1, 2): 1})
    b = FreeVector({ManinSymbol(0, 1): -2, ManinSymbol(1, 5): 3})
    assert (a + b).terms() == ((ManinSymbol(1, 2), 1), (ManinSymbol(1, 5), 3))
    assert a - a == FreeVector()
    assert not (a - a)
    assert 0 * a == FreeVector()
    assert (-1) * a == -a
    assert str(a) == "2(0,1)+(1,2)"
    assert str(-a) == "-2(0,1)-(1,2)"
    assert str(FreeVector()) == "0"
    assert a.coefficient(ManinSymbol(0, 1)) == 2
    assert a.coefficient(ManinSymbol(9, 9)) == 0
