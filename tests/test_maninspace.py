from __future__ import annotations

import random

import pytest

from torsion_gate import maninspace
from torsion_gate.exactmath import factorize, gcd
from torsion_gate.hecke import criterion_vectors
from torsion_gate.maninspace import (
    MAX_PSI,
    _rank_mod_p,
    build_space,
    cusp_count_x0,
    genus_x0,
    index_x0,
    p1_list,
    quotient_rank_mod_p,
)

from oracles import (
    SIGMA,
    TAU,
    _Echelon,
    bareiss_rank,
    dense_rank_mod_p,
    dense_rows,
    inverses_by_pow,
    p1_list_by_normalize,
    p1_normalize,
    quotient_rank_by_cotree,
    quotient_rank_q,
    relation_rows_by_normalize,
    right_translate,
    spanning_tree,
)

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
    assert p1_normalize(169, 0, 2) == (0, 1)
    assert p1_normalize(169, 2, 4) == (1, 2)
    assert p1_normalize(1, 0, 0) == (0, 0)
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
    assert p1_list(1) == ((0, 0),)


def test_p1_list_matches_index_formula():
    for N in range(1, 201):
        assert len(p1_list(N)) == index_x0(N), N


def test_p1_list_matches_normalize_oracle():
    # at 1000 some primes divide g but not N/g, so the least lift of a residue
    # mod N/g is not always the residue itself; at 2187 = 3^7 none do, but
    # every g < N keeps only the residues prime to 3
    for N in [*range(1, 301), 1000, 1001, 2187, 2431]:
        assert p1_list(N) == p1_list_by_normalize(N), N


def test_index_matches_normalize_oracle():
    # every point of P^1(Z/NZ) for N <= 120, then a seeded sample at large levels:
    # prime powers (625, 1024 = 2^10, 2187, 2401) with classes (p^j, w) up to j = 9, and a prime
    for N in range(1, 121):
        space = build_space(N)
        for u in range(N):
            for v in range(N):
                if gcd(gcd(u, v), N) == 1:
                    assert space.symbol(space.index(u, v)) == p1_normalize(N, u, v), (N, u, v)
                else:  # no point of P^1: an unrelated column, but a column
                    assert space.index(u, v) in range(space.psi), (N, u, v)
    for N in (625, 1000, 1024, 2187, 2401, 2431, 10007, 30030):
        space = build_space(N)
        rng = random.Random(N)
        checked = 0
        while checked < 2000:
            u, v = rng.randrange(N), rng.randrange(N)
            if gcd(gcd(u, v), N) == 1:
                assert space.symbol(space.index(u, v)) == p1_normalize(N, u, v), (N, u, v)
                checked += 1


def assert_product_permutations_match_normalize_oracle(space, columns):
    """At each column k: symbol(k) is canonical and indexes k, and sigma and tau move it as Algorithm 8.29 does."""
    N = space.N
    for k in columns:
        sym = space.symbol(k)
        assert p1_normalize(N, *sym) == sym and space.index(*sym) == k, (N, k)
        assert space.symbol(space._sigma[k]) == p1_normalize(N, *right_translate(N, *sym, SIGMA)), (N, k)
        assert space.symbol(space._tau[k]) == p1_normalize(N, *right_translate(N, *sym, TAU)), (N, k)


# every level up to 300, the benchmark's verify levels, then prime powers whose
# classes (p^j, w) reach j = 3 (625, 2401), 9 (1024) and 6 (2187)
@pytest.mark.parametrize("N", [*range(1, 301), 1001, 1169, 1271, 2431, 2653, 2911, 625, 1024, 2187, 2401])
def test_product_permutations_match_normalize_oracle(N, get_space):
    # the columns are numbered in mixed radix over the prime powers, so at a
    # composite level their symbols are P^1(Z/NZ) in another order than p1_list's
    space = get_space(N)
    assert sorted(space.symbol(k) for k in range(space.psi)) == list(p1_list(N))
    assert_product_permutations_match_normalize_oracle(space, range(space.psi))


def test_product_permutations_match_normalize_oracle_at_30030():
    # six prime factors, each with classes of both kinds (g = 1 and g = q)
    space = build_space(30030)
    assert sorted(space.symbol(k) for k in range(space.psi)) == list(p1_list(30030))
    rng = random.Random(30030)
    assert_product_permutations_match_normalize_oracle(space, [0, space.psi - 1, *rng.sample(range(space.psi), 2000)])


@pytest.mark.parametrize("N, sample", [(10007, None), (100003, 2000)])
def test_product_permutations_match_normalize_oracle_at_large_primes(N, sample):
    # the inverse table's recurrence, far beyond the levels above: every column at
    # 10007, a seeded sample at 100003, and at both sigma^2 = tau^3 = 1 on every column
    space = build_space(N)
    sigma, tau = space._sigma, space._tau
    assert all(sigma[sigma[k]] == k and tau[tau[tau[k]]] == k for k in range(space.psi))
    columns = range(space.psi) if sample is None else [0, 1, space.psi - 1, *random.Random(N).sample(range(space.psi), sample)]
    assert_product_permutations_match_normalize_oracle(space, columns)


def test_symbol_rejects_columns_outside_the_space(get_space):
    space = get_space(11)
    for k in (-1, space.psi):
        with pytest.raises(IndexError, match="not a generator"):
            space.symbol(k)
    assert space.symbol(0) == (0, 1) and get_space(1).symbol(0) == (0, 0)


def test_p1_list_entries_are_canonical_and_distinct():
    for N in (22, 40, 169):
        gens = p1_list(N)
        assert len(set(gens)) == len(gens)
        for sym in gens:
            assert type(sym) is tuple and p1_normalize(N, *sym) == sym


def test_sigma_involution_and_tau_order_three():
    for N in range(1, 51):
        for sym in p1_list(N):
            pair = right_translate(N, *right_translate(N, *sym, SIGMA), SIGMA)
            assert p1_normalize(N, *pair) == sym
            pair = sym
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
    """One row per sigma or tau orbit: no duplicates, and the oracle's rows as a set.

    The oracle numbers its columns by the sorted symbols, so its rows are
    carried over to the space's columns first.
    """
    rows = space.relation_rows
    assert len(set(rows)) == len(rows), space.N
    column = [space.index(*sym) for sym in p1_list_by_normalize(space.N)]
    want = {tuple(sorted((column[k], c) for k, c in row)) for row in relation_rows_by_normalize(space.N)}
    assert set(rows) == want, space.N


def test_relation_rows_match_normalize_oracle():
    for N in [*range(1, 301), 1001, 1169, 1271, 2431, 2653, 2911, 379, 383, 389]:
        assert_rows_match_normalize_oracle(build_space(N))


@pytest.mark.parametrize("N", range(1, 201))
def test_ranks_match_dense_oracles(N):
    space = build_space(N)
    vectors = criterion_vectors(space, 3)
    assert space.rank_q == bareiss_rank(dense_rows(space))
    for p in (3, 5, 7):
        base = dense_rank_mod_p(dense_rows(space), p)
        assert quotient_rank_mod_p(space, vectors, p) == dense_rank_mod_p(dense_rows(space, vectors), p) - base
        assert space.rank_mod_p(p) == base


@pytest.mark.parametrize("start", range(1, 801, 100))
def test_relation_quotient_has_no_odd_torsion(start):
    # Each tau-fixed symbol is killed by its own row, so the quotient has the
    # dimension 2g + c - 1 of H_1(X_0(N), cusps) over every F_p, p odd; with
    # the row 3x it kept a 3-torsion class mod 3 at levels such as 7, 13,
    # 43, 97 and 109
    for N in range(start, start + 100):
        space = build_space(N)
        want = 2 * genus_x0(N) + cusp_count_x0(N) - 1
        for p in (3, 5, 7):
            assert space.psi - space.rank_mod_p(p) == want, (N, p)


# every level up to 300, then the benchmark's homology and verify levels
@pytest.mark.parametrize("N", [*range(1, 301), 379, 383, 389, 1001, 1169, 1271, 2431, 2653, 2911])
def test_sigma_quotient_matches_generic_echelon(N, get_space):
    # 13 and 389 have sigma-fixed points, 13 and 91 tau-fixed ones, whose
    # row is x itself, so that mod 3 they are zero as over Q; the oracle
    # eliminates the raw relation rows, with no sigma quotient and no graph search
    space = get_space(N)
    assert space.rank_q == space.psi - (2 * genus_x0(N) + cusp_count_x0(N) - 1)
    for p in (3, 5, 7):
        generic = _Echelon(p, space.relation_rows)
        assert space.rank_mod_p(p) == generic.rank, p
        for d in (1, 2, 3):
            vectors = criterion_vectors(space, d)
            assert quotient_rank_mod_p(space, vectors, p) == generic.extra_rank(vec.items() for vec in vectors), (p, d)


@pytest.mark.parametrize("N", [2, 13, 25, 36, 65, 130, 169, 389])
def test_quotient_rank_matches_generic_echelon_on_random_rows(N, get_space):
    # Random column rows weighted towards the columns the graph treats
    # apart: sigma-fixed columns (dropped by the sigma quotient), both ends
    # of self-loop edges (sigma pairs within one tau orbit, never a cut)
    # and tau-fixed columns; the rest are drawn from all columns.  Every
    # level here but 36 has sigma-fixed points, and every level has self-loops.
    space = get_space(N)
    sigma, tau = space._sigma, space._tau
    fixed = [i for i in range(space.psi) if sigma[i] == i]
    loops = [i for i in range(space.psi) if sigma[i] != i and sigma[i] in (tau[i], tau[tau[i]])]
    assert bool(fixed) == (N != 36) and loops
    special = fixed + loops + [i for i in range(space.psi) if tau[i] == i]
    rng = random.Random(N)
    for p in (3, 5, 7):
        generic = _Echelon(p, space.relation_rows)
        for _ in range(40):
            rows = []
            for _ in range(rng.randint(1, 6)):
                cols = rng.sample(special, min(len(special), rng.randint(0, 3)))
                cols += rng.sample(range(space.psi), min(space.psi, rng.randint(0, 3)))
                row = {k: rng.choice((1, -1, 2, -3, p, 4)) for k in cols}
                rows.append(row)
            assert quotient_rank_mod_p(space, rows, p) == generic.extra_rank(row.items() for row in rows), (p, rows)


# every level up to 400 in four chunks, then the benchmark's verify levels and 24871
@pytest.mark.parametrize("levels", [range(1, 101), range(101, 201), range(201, 301), range(301, 401), (1001, 1169, 1271, 2431, 2653, 2911, 24871)])
def test_cut_search_matches_cotree_oracle(levels, get_space):
    # the depth-first tree and cotree residuals the cut search replaced
    for N in levels:
        space = get_space(N)
        for d in (1, 2, 3):
            vectors = criterion_vectors(space, d)
            for p in (3, 5, 7, 11, 13):
                if N % p:
                    assert quotient_rank_mod_p(space, vectors, p) == quotient_rank_by_cotree(space, vectors, p), (N, d, p)


def orbit_sets(space, rng):
    """Sets U of tau orbits: single orbits, balls about the orbit of column 0, and random sets."""
    sigma, tau = space._sigma, space._tau
    orbit = [frozenset((i, tau[i], tau[tau[i]])) for i in range(space.psi)]
    orbits = sorted(set(orbit), key=min)
    yield from ([o] for o in rng.sample(orbits, min(len(orbits), 8)))
    ball: set[frozenset[int]] = {orbit[0]}
    while len(ball) < len(orbits):  # G is connected, so the ball grows until it is all of G
        ball |= {orbit[sigma[i]] for o in ball for i in o}
        yield sorted(ball, key=min)
    for _ in range(8):
        yield rng.sample(orbits, rng.randint(1, len(orbits)))


@pytest.fixture
def ranked(monkeypatch):
    """The rows of each ``_rank_mod_p`` call, recorded in order: the cut rows lead, the vectors' rows follow."""
    calls = []
    rank = maninspace._rank_mod_p

    def recording_rank(rows, p):
        calls.append(rows := list(rows))
        return rank(rows, p)

    monkeypatch.setattr(maninspace, "_rank_mod_p", recording_rank)
    return calls


@pytest.mark.parametrize("N", [11, 13, 36, 91, 169, 389, 1001])
def test_cuts_of_orbit_sets_die_in_the_quotient(N, get_space, ranked):
    # delta 1_U, the sum of the tau rows of the orbits in U, is a coboundary:
    # it dies in the quotient and adds nothing to the criterion vectors.  Its
    # edges S cut the orbits of U off from the rest, so G - S falls apart,
    # the search runs its queue out, and the components' cuts reach the elimination
    space = get_space(N)
    vectors = criterion_vectors(space, 3)
    cuts = 0
    for U in orbit_sets(space, random.Random(N)):
        cut = {k: 1 for orbit in U for k in orbit}
        for p in (3, 5, 7):
            assert quotient_rank_mod_p(space, [cut], p) == 0, (U, p)
            cut_rows = ranked[-1][:-1]  # the components' cuts, ahead of the one vector
            assert _rank_mod_p(cut_rows, p) == max(len(cut_rows) - 1, 0), (U, p)
            cuts += len(cut_rows)
            if N % p:
                assert quotient_rank_mod_p(space, [*vectors, cut], p) == quotient_rank_mod_p(space, vectors, p), (U, p)
    assert cuts


def test_criterion_vectors_need_no_cut_above_169(ranked):
    # at these levels the edges that T_1..T_2d(0,1) touch all lie in one
    # component of G - S, so the search stops with one group and ranks no cut
    for N in range(170, 2001):
        space = build_space(N)
        for d in (1, 2, 3):
            vectors = criterion_vectors(space, d)
            quotient_rank_mod_p(space, vectors, 3)
            assert ranked[-1][: -len(vectors)] == [], (N, d)  # the cut rows, ahead of the vectors'


@pytest.mark.parametrize("N", [*range(1, 121), 169, 243, 389, 1001, 2431])
def test_spanning_tree_invariants(N, get_space):
    # the tree of the test-only cotree oracle
    space = get_space(N)
    sigma, tau = space._sigma, space._tau
    tree = spanning_tree(space)
    vertex, end, edges = tree.vertex, tree.end, tree.edges
    # one vertex per tau orbit, numbered 0 .. |V| - 1
    orbits = {frozenset((i, tau[i], tau[tau[i]])) for i in range(space.psi)}
    assert len(end) == len(orbits)
    for orbit in orbits:
        assert len({vertex[i] for i in orbit}) == 1
    assert {vertex[min(orbit)] for orbit in orbits} == set(range(len(end)))
    # every edge is a tree edge or a cotree edge, never both
    all_edges = {j for j, i in enumerate(sigma) if i < j}
    cotree = [e for e, _, _ in tree.cotree]
    assert len(set(cotree)) == len(cotree) and set(cotree) | set(edges) == all_edges
    assert not set(cotree) & set(edges)
    # each vertex but the root hangs below a parent numbered before it, so
    # every vertex reaches the root (one component), and it lies in its
    # parent's subtree, which is the contiguous preorder range
    assert sorted(child for child, _ in edges.values()) == list(range(1, len(end)))
    parent = [None] * len(end)
    for e, (child, sign) in edges.items():
        head, tail = vertex[e], vertex[sigma[e]]
        assert child == (head if sign == 1 else tail)
        parent[child] = tail if sign == 1 else head
        assert parent[child] < child < end[child] <= end[parent[child]]
    assert end[0] == len(end)
    for e, head, tail in tree.cotree:
        assert (head, tail) == (vertex[e], vertex[sigma[e]])
    assert len(tree.cotree) == 2 * genus_x0(N) + cusp_count_x0(N) - 1


def test_echelon_matches_dense_oracles_on_random_matrices():
    # leading coefficients other than 1 occur here, unlike in relation matrices
    rng = random.Random(7)
    for _ in range(300):
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(ncols)] for _ in range(nrows)]
        sparse = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
        cut = rng.randint(0, nrows)
        for p in (3, 5, 7):
            want = dense_rank_mod_p([r[:] for r in rows[:cut]], p)
            base = _Echelon(p, sparse[:cut])
            assert base.rank == want
            assert base.extra_rank(sparse[cut:]) == dense_rank_mod_p([r[:] for r in rows], p) - want
            assert base.rank == want  # extra_rank left the echelon as it was


def test_sigma_relation_row_dies_in_quotient(get_space):
    space = get_space(169)
    vec = {space.index(0, 1): 1, space.index(1, 0): 1}
    assert quotient_rank_mod_p(space, [vec], 5) == 0
    assert quotient_rank_q(space, [vec]) == 0  # i.e. (0,1) = -(1,0) in the quotient


def test_quotient_rank_mod_p_rejects_bad_p(get_space):
    space = get_space(11)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, [], 2)
    with pytest.raises(ValueError):
        quotient_rank_mod_p(space, [], 9)


def test_rank_mod_p_rejects_non_odd_primes():
    # 9 used to give a rank at N = 11, and a raw pow() error at N = 13
    for N in (11, 13):
        space = build_space(N)
        for p in (0, 1, 2, 4, 9):
            with pytest.raises(ValueError, match="odd prime"):
                space.rank_mod_p(p)
            assert space._rank is None, (N, p)  # a rejected p computes nothing
        assert space.rank_mod_p(3) == space.psi - (2 * genus_x0(N) + cusp_count_x0(N) - 1)


def test_build_space_guards_psi_before_listing(monkeypatch):
    listed = []
    p1 = maninspace.p1_list
    monkeypatch.setattr(maninspace, "p1_list", lambda N: listed.append(N) or p1(N))
    # the primes 999983 and 1000003 (psi = N + 1) lie on either side of the bound
    assert index_x0(999983) <= MAX_PSI < index_x0(1000003)
    for N in (1000003, 2 * 3 * 5 * 7 * 11 * 13 * 17, 10**7):
        with pytest.raises(ValueError, match="level guard"):
            build_space(N)
    assert listed == []
    # a space is built without listing P^1; the first symbol() lists each prime power once,
    # in ascending order, and later calls read the kept lists
    space = build_space(30)
    assert space.psi == index_x0(30) and listed == []
    assert space.symbol(0) == (0, 1) and listed == [2, 3, 5]
    assert space.symbol(space.psi - 1) != space.symbol(0) and listed == [2, 3, 5]


def test_inverses_match_pow_oracle():
    # the recurrence at every prime power q < 3000: primes, the steps through x - r
    # where p | q % x at higher powers (2187 = 3^7, 2401 = 7^4), and powers of 2
    prime_powers = [q for q in range(2, 3000) if len(factorize(q)) == 1]
    assert {2187, 2401, 2048, 2999} <= set(prime_powers)
    for q in prime_powers:
        p = factorize(q)[0][0]
        assert maninspace._inverses(p, q) == inverses_by_pow(p, q), q


def test_quotient_rank_mod_p_rejects_foreign_symbols(get_space):
    # a column outside range(psi) would become a pivot of its own and
    # inflate the rank, so it must be refused, not reduced
    space = get_space(11)
    for col in (-1, space.psi):
        with pytest.raises(ValueError, match="not a generator"):
            quotient_rank_mod_p(space, [{0: 1}, {col: 1}], 3)
    quotient_rank_mod_p(space, [{0: 1}, {space.psi - 1: 1}], 3)  # the last column is accepted

