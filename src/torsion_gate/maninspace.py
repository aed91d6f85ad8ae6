"""Manin-symbol presentation of the weight-2 relative homology of X_0(N).

The free Z-module on P^1(Z/NZ), modulo the two-term relations x + x.sigma
and the three-term relations x + x.tau + x.tau^2, presents
H_1(X_0(N), cusps; Z) up to torsion.  Symbols act on the right:
(u,v).[[a,b],[c,d]] = (ua+vc, ub+vd), with sigma = [[0,-1],[1,0]] and
tau = [[0,-1],[1,-1]].  A symbol x fixed by tau would enter only as the
row 3x and survive mod 3 as torsion, so its row is x itself, as in the
integral presentation (Merel, "Universal Fourier expansions of modular
forms", 1994; Stein, "Modular Forms: A Computational Approach", ch. 8).
A symbol fixed by sigma keeps the row 2x, which already kills it over
Q and over F_p, p odd.  The quotient then has no odd torsion, so its
rank over F_p equals its rank over Q for every odd prime p.

No rank eliminates the relation matrix.  Stein's quotient by the
two-term relations (ch. 8), x_i := -x_j for a sigma pair i < j and
x_i := 0 for a sigma-fixed x_i, turns the three-term rows into the
vertex-edge incidence matrix of a graph G: a vertex per tau orbit, an
edge per sigma pair i < j from the orbit of i (-1) to that of j (+1), a
self-loop when they coincide.  G is the trivalent graph dual to X_0(N)'s
triangulation by translates of the Farey triangle (an elliptic point
leaves a vertex of degree one or a missing edge), and it is connected,
as X_0(N) is.  So the relation rank is (sigma orbits) + (tau orbits) - 1
over Q and over every F_p, p odd, and the dimension 2g + c - 1 is G's
cycle rank |E| - |V| + 1.

Substituted, the tau rows span exactly the coboundaries of G: the
vectors delta x with (delta x)_e = x_head - x_tail, for values x on the
vertices.  A few substituted vectors V, such as the Hecke check's 2d,
touch few edges; let S be their union (a dozen at d = 3).  A coboundary
delta x lies on S exactly when x is constant on each component C of
G - S, so the coboundaries on S are spanned by the cuts delta 1_C (0 for
a component that touches no edge of S).  So ``quotient_rank_mod_p``,
rank([R; V]) - rank(R), is rank([cuts; V]) - rank(cuts), on rows with at
most |S| columns: the engine's only elimination.  The components come
from a breadth-first search over tau orbits in G - S, started at every
endpoint of S, one group per start, and a union-find merges two groups
when they meet.  The search stops when one group is left: every edge of S
then lies inside one component, and there is no cut.  Otherwise its queue
runs out, and every group is a whole component.  The rank is exact either
way; that the first case comes soon, near S, is a matter of speed only
(for the criterion vectors below N = 6000 the queue runs out only at
levels of psi at most 182).  Vectors are column rows: dicts from a column
(numbered as below) to a nonzero coefficient.

P^1(Z/NZ) is the product of P^1(Z/qZ) over the prime powers q || N (the
Chinese remainder theorem), and sigma and tau act on each factor
separately.  So a space is built one prime power at a time, and its
columns are numbered in mixed radix: the column of the class with local
columns k_1, ..., k_r (in ascending q) is (...(k_1 psi(q_2) + k_2) psi(q_3)
+ ...) + k_r, and the global sigma and tau are the products of the local
permutations.  Column 0 is the class of (0, 1), which is (0, 1) at every q.

At a prime power q = p^e, the canonical representative of a class of
P^1(Z/qZ) is its lexicographically least member, which has first
coordinate g = gcd(u, q) (the divisor-canonical scheme of Stein's
Algorithm 8.29).  For g = p^j < q, (g, v) ~ (g, v') exactly when v = v'
(mod m = q/g), since the scalars fixing g are the units t = 1 (mod m); so
a pair (u, v) is the class of (g, s v mod m) for s an inverse of u/g mod
m (Cremona, "Algorithms for Modular Elliptic Curves", 2nd ed., 2.2).
Sorted, the classes have closed-form local columns: (0, 1) is column 0,
(1, w) is column 1 + w for w mod q, and (p^j, w), for 0 < j < e and w a
unit below m = p^(e-j), is column q + q/p - m + w - floor(w/p): w is the
(w - floor(w/p))-th unit, after the 1 + q columns above and the
phi(p^(e-i)) columns of each g = p^i, 0 < i < j, which sum to q/p - m.
The engine classifies by this arithmetic, folded over the prime powers
(:meth:`SymbolSpace.index`), and builds sigma and tau from it with one
table of inverses mod q; it never normalizes a pair, and Algorithm 8.29's
normalization lives on only as the reference the tests compare against.
So a space is built from the column count psi(q) alone, and no class is
named unless a caller asks: :meth:`SymbolSpace.symbol` goes the other
way, from a column to the level's canonical symbol, by the Chinese
remainder theorem, reading the local symbols from the sorted P^1 lists
(:func:`p1_list`) that its first call makes.
The relation rows are derived from sigma and tau on request.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import islice, repeat

from .exactmath import _check_odd_prime, divisors, euler_phi, factorize, gcd

__all__ = [
    "SymbolSpace",
    "build_space",
    "cusp_count_x0",
    "genus_x0",
    "index_x0",
    "p1_list",
    "quotient_rank_mod_p",
]


def p1_list(N: int) -> tuple[tuple[int, int], ...]:
    """All canonical representatives (u, v) of P^1(Z/NZ), sorted; length psi(N).

    Every class has a member (g, v) with g = gcd(u, N) dividing N.  For
    g < N the classes are the residues w mod m = N/g with gcd(w, g, m) = 1
    (module docstring, with N for q), each represented by its least lift
    w + km coprime to g.  The representatives are plain tuples of ints,
    which the cyclic garbage collector untracks, so a collection during
    the listing does not re-walk those already made.
    """
    if N < 1:
        raise ValueError("level must be positive")
    out = [(0, 1 % N)]  # g = N: the class of (0, 1), which is (0, 0) at N = 1
    for g in divisors(N)[:-1]:
        m = N // g
        h = gcd(g, m)
        lifts = range(m) if h == 1 else [w for w in range(m) if gcd(w, h) == 1]
        if g > 1:
            lifts = list(lifts)
            for i, w in enumerate(lifts):
                while gcd(w, g) != 1:
                    w += m
                lifts[i] = w
            lifts.sort()
        out.extend(zip(repeat(g), lifts))  # ascending g, then v: sorted
    return tuple(out)


# ---------------------------------------------------------------------------
# classical Gamma_0(N) formulas (used as independent consistency checks)
# ---------------------------------------------------------------------------


def index_x0(N: int) -> int:
    """Index psi(N) = N * prod_{p | N} (1 + 1/p) of Gamma_0(N) in PSL_2(Z)."""
    if N < 1:
        raise ValueError("level must be positive")
    out = N
    for p, _ in factorize(N):
        out = out // p * (p + 1)
    return out


def _nu2(N: int) -> int:
    if N % 4 == 0:
        return 0
    out = 1
    for p, _ in factorize(N):
        if p == 2:
            continue
        out *= 1 + (1 if p % 4 == 1 else -1)
    return out


def _nu3(N: int) -> int:
    if N % 9 == 0:
        return 0
    out = 1
    for p, _ in factorize(N):
        if p == 3:
            continue
        out *= 1 + (1 if p % 3 == 1 else -1)
    return out


def cusp_count_x0(N: int) -> int:
    """Number of cusps of X_0(N): sum over d | N of phi(gcd(d, N/d))."""
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


def genus_x0(N: int) -> int:
    """Genus of X_0(N) via g = 1 + mu/12 - nu2/4 - nu3/3 - nuinf/2, exactly."""
    twelve_g = 12 + index_x0(N) - 3 * _nu2(N) - 4 * _nu3(N) - 6 * cusp_count_x0(N)
    assert twelve_g % 12 == 0, f"genus formula must be integral at N={N}"
    g = twelve_g // 12
    assert g >= 0
    return g


# ---------------------------------------------------------------------------
# the symbol space and its relation graph
# ---------------------------------------------------------------------------


class SymbolSpace:
    """Level, its local spaces at the prime powers q || N, and the sigma and tau permutations.

    ``_factors`` holds (p, q, n) for each prime power q = p^e || N, in
    ascending q, with n = psi(q) = q + q/p local columns (the closed forms
    of the module docstring).  ``_sigma[k]`` and ``_tau[k]`` are the columns
    of x.sigma and x.tau for the class x of column k, numbered in the mixed
    radix of the module docstring.  The first rank query counts the
    relation rank, which serves every prime; since the presentation has no
    odd torsion, :attr:`rank_q` is the rank mod 3.

    :meth:`index`, which folds the closed-form local columns, is the
    engine's only P^1 classifier; :meth:`symbol` names a column's class.
    A space is built without naming any class: the first :meth:`symbol`
    call lists each local P^1 with :func:`p1_list`, as plain (u, v) tuples,
    and the lists are kept for later calls, as the relation rank is.
    """

    def __init__(self, N: int, factors: tuple[tuple[int, int, int], ...], sigma: list[int], tau: list[int]):
        self.N = N
        self._factors = factors
        self._sigma = sigma
        self._tau = tau
        self._rank: int | None = None  # the relation rank, counted on the first query
        self._gens: list[tuple[tuple[int, int], ...]] | None = None  # the local P^1 lists, made on the first symbol()

    def index(self, u: int, v: int) -> int:
        """Column of the class of (u, v): at each q, (u, v) is scaled to (g, w) and numbered in closed form.

        (u, v) must be a point of P^1(Z/NZ): callers check gcd(u, v, N) = 1
        first.  Any other pair of integers still gets a column in range(psi),
        of an unrelated class: where p divides u and v at some q, the local w
        is no unit, and its closed form lands on a neighbouring column.
        """
        k = 0
        for p, q, n in self._factors:
            a = u % q
            if a % p:  # (1, v/u)
                c = 1 + pow(a, -1, q) * v % q
            elif a:  # (g, w) with g = gcd(u, q) and w = v (u/g)^-1 mod m = q/g
                g = gcd(a, q)
                m = q // g
                w = pow(a // g, -1, m) * v % m
                c = q + q // p - m + w - w // p
            else:  # (0, v): the class of (0, 1)
                c = 0
            k = k * n + c
        return k

    def symbol(self, k: int) -> tuple[int, int]:
        """The canonical (lexicographically least) symbol (u, v) of column k's class, a plain tuple.

        Its first coordinate is g = gcd(u, N), the product of the local g_i
        (q for a local (0, 1)).  Where g_i < q, (g, v) is the local class
        (g_i, w_i) exactly when v = (g/g_i) w_i (mod q/g_i); where g_i = q,
        when v is prime to q.  So v is the least solution, by the Chinese
        remainder theorem, lifted by steps of N/g until it is prime to those q.
        The local symbols are read from the lists that the first call makes.
        """
        if k not in range(self.psi):
            raise IndexError(f"column {k!r} is not a generator at level {self.N}")
        if self._gens is None:
            self._gens = [p1_list(q) for _, q, _ in self._factors]
            for (_, q, n), gens in zip(self._factors, self._gens):
                assert len(gens) == n, f"P^1(Z/{q}) enumeration does not match psi"
        local = []
        for (_, q, n), gens in zip(reversed(self._factors), reversed(self._gens)):
            k, i = divmod(k, n)
            local.append((q, gens[i]))
        g = 1
        for q, (u, _) in local:
            g *= u or q
        if g == self.N:  # u = 0 mod N: the class of (0, 1), or (0, 0) when N = 1
            return 0, 1 % self.N
        v, m, coprime = 0, 1, 1  # v mod m so far, and the product of the q that v must be prime to
        for q, (u, w) in local:
            if u:
                mq = q // u
                v += m * ((g // u * w - v) * pow(m, -1, mq) % mq)
                m *= mq
            else:
                coprime *= q
        while gcd(v, coprime) != 1:
            v += m
        return g, v

    @property
    def psi(self) -> int:
        return len(self._sigma)

    @property
    def relation_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """One row of (column, coefficient) pairs per orbit of sigma, then per orbit of tau, built afresh.

        x + x.sigma, or 2x when sigma fixes x; x + x.tau + x.tau^2, or x when tau fixes x.
        """
        sigma, tau = self._sigma, self._tau
        rows = [((i, 1), (j, 1)) if i < j else ((i, 2),) for i, j in enumerate(sigma) if i <= j]
        for i, j in enumerate(tau):
            k = tau[j]
            if i == j:  # tau fixes the class, so the orbit is {i}
                rows.append(((i, 1),))
            elif i < j and i < k:
                rows.append(((i, 1), (j, 1), (k, 1)) if j < k else ((i, 1), (k, 1), (j, 1)))
        return tuple(rows)

    @property
    def rank_q(self) -> int:
        """Rank of the relation matrix over Q, which equals its rank mod 3 (module docstring)."""
        return self.rank_mod_p(3)

    @property
    def quotient_rank(self) -> int:
        """dim over Q of the quotient, i.e. of H_1(X_0(N), cusps) tensor Q."""
        return self.psi - self.rank_q

    def rank_mod_p(self, p: int) -> int:
        """Rank of the relation matrix over F_p, (sigma orbits) + (tau orbits) - 1.

        The first call counts both while it walks the tau-orbit graph, which
        checks that the graph is connected.  Raises ValueError unless p is an
        odd prime.
        """
        _check_odd_prime(p)
        if self._rank is None:
            sigma, tau = self._sigma, self._tau
            seen = bytearray(len(sigma))
            rank = -1
            stack = [0]  # a column of each tau orbit to be entered
            pop, push = stack.pop, stack.append
            while stack:
                k = pop()
                if seen[k]:
                    continue
                rank += 1  # a tau orbit
                t = tau[k]
                orbit = (k,) if t == k else (k, t, tau[t])
                for i in orbit:
                    seen[i] = 1
                for i in orbit:
                    j = sigma[i]
                    if j >= i:  # a sigma orbit, counted at its least member
                        rank += 1
                    if not seen[j]:
                        push(j)
            assert 0 not in seen, f"the tau-orbit graph is disconnected at N={self.N}"
            self._rank = rank
        return self._rank


# `homology --N 999983` (psi = 999984, just under the bound) takes about 1.1 s and
# peaks at about 113 MB RSS, since it names no class and so lists no P^1; `verify
# --N 999983 --d 3` and `hecke --N 999983 --n 30`, which name the winding symbol and
# so list P^1(Z/999983Z), about 1.1 s and 168 MB; `homology --N 255255`
# (3*5*7*11*13*17, psi = 580608, a composite level near the bound) takes about 0.55 s
# and peaks at about 61 MB RSS (cold runs, 2-core Xeon VM, CPython 3.11.7).
MAX_PSI = 10**6


def _inverses(p: int, q: int) -> list[int]:
    """x^-1 mod q at each unit x of Z/qZ, and 0 at the other residues, for q = p^e.

    For a unit x, q = d x + r with d = q // x and r = q % x < x gives
    x^-1 = -d r^-1 when r is a unit, which it always is at a prime.  At a
    prime power p may divide r; then q = (d + 1) x - (x - r), and x - r < x
    is a unit (it is x mod p), so x^-1 = (d + 1) (x - r)^-1.
    """
    inv = [0, 1] + [0] * (q - 2)
    if p == q:
        for x in range(2, q):
            inv[x] = -(q // x) * inv[q % x] % q
        return inv
    for x in range(2, q):
        if x % p:
            d, r = divmod(q, x)
            inv[x] = (-d * inv[r] if r % p else (d + 1) * inv[x - r]) % q
    return inv


def _local_space(p: int, q: int) -> tuple[list[int], list[int]]:
    """The sigma and tau permutations of the psi(q) local columns at q = p^e.

    (u, v).sigma = (v, -u) and (u, v).tau = (v, -u - v) both have first
    coordinate v, so each class's two translates are scaled by one inverse:
    of v mod q at a unit v, of v / p^j mod q / p^j at v = p^j t.  Their
    columns are the closed forms of the module docstring.
    """
    n = q // p * (p + 1)
    col = list(range(n))  # sigma and tau take their entries from col, so that they share one int per column
    inv = _inverses(p, q)
    # (1, v) at a unit v -> (1, -s) and (1, -s - 1) with s = v^-1 (at v divisible by p, a placeholder
    # that the loop below overwrites); then (0, 1) -> (1, 0) and (1, -1), and (1, 0) -> (0, -1) twice
    sigma = [col[q + 1 - s] for s in islice(inv, 1, None)]
    tau = [col[q - s] for s in islice(inv, 1, None)]
    sigma[:0] = 1, 0
    tau[:0] = q, 0
    g = p
    while g < q:  # the classes (g, w) with g = p^j, 0 < j < e: one per unit w < m = q / g
        m = q // g
        base = q + q // p - m  # (g, w) is column base + w - w // p
        # (1, g t) at a unit t < m -> (g, w) with w = -t^-1 and -t^-1 - g mod m; the slice also
        # holds t divisible by p, which the next g overwrites
        ws = [-inv[t] % m for t in range(1, m)]
        sigma[1 + g : 1 + q : g] = [col[base + w - w // p] for w in ws]
        ws = [(w - g) % m for w in ws]
        tau[1 + g : 1 + q : g] = [col[base + w - w // p] for w in ws]
        # (g, w) -> (1, -w^-1 g) and (1, -w^-1 g - 1), columns x + 1 and x for x = -w^-1 g mod q, 0 < x < q
        xs = [-inv[w] * g % q for w in range(1, m) if w % p]
        sigma += [col[x + 1] for x in xs]
        tau += [col[x] for x in xs]
        g *= p
    return sigma, tau


def _check_level(N: int) -> int:
    """psi(N), or ValueError when it exceeds :data:`MAX_PSI`; a level above the bound is refused unfactored, since psi(N) >= N."""
    if N > MAX_PSI:
        raise ValueError(f"level guard: psi({N}) >= {N} exceeds {MAX_PSI}")
    psi = index_x0(N)
    if psi > MAX_PSI:
        raise ValueError(f"level guard: psi({N}) = {psi} exceeds {MAX_PSI}")
    return psi


def build_space(N: int) -> SymbolSpace:
    """Assemble the local spaces at the prime powers q || N, and sigma and tau as their products.

    Raises ValueError, before building anything, when psi(N) exceeds :data:`MAX_PSI`;
    since psi(N) >= N, a level above the bound is refused before it is factored.
    """
    psi = _check_level(N)
    factors = []
    sigma, tau = [0], [0]  # the one class of P^1(Z/1Z)
    for p, e in factorize(N):
        q = p**e
        local_sigma, local_tau = _local_space(p, q)
        n = len(local_sigma)
        if factors:  # column k * n + b for the class of column k so far and local column b
            sigma = [a + b for a in (a * n for a in sigma) for b in local_sigma]
            tau = [a + b for a in (a * n for a in tau) for b in local_tau]
        else:  # taken as they are: a copy adds about 60 MB to the peak RSS at a prime near MAX_PSI
            sigma, tau = local_sigma, local_tau
        factors.append((p, q, n))
    assert len(sigma) == psi
    return SymbolSpace(N, tuple(factors), sigma, tau)


# ---------------------------------------------------------------------------
# ranks in the quotient
# ---------------------------------------------------------------------------


def _rank_mod_p(rows: Iterable[Mapping[int, int]], p: int) -> int:
    """Rank over F_p of a few sparse integer rows, by Gaussian elimination."""
    pivots: list[tuple[int, dict[int, int]]] = []  # (column, row with 1 there and 0 at every earlier pivot column)
    for row in rows:
        v = {k: x % p for k, x in row.items() if x % p}
        for c, pivot in pivots:
            if f := v.get(c):
                for k, y in pivot.items():
                    if x := (v.get(k, 0) - f * y) % p:
                        v[k] = x
                    else:
                        del v[k]
        if v:
            c = next(iter(v))
            inv = pow(v[c], -1, p)
            pivots.append((c, {k: x * inv % p for k, x in v.items()}))
    return len(pivots)


def quotient_rank_mod_p(space: SymbolSpace, vectors: Iterable[Mapping[int, int]], p: int) -> int:
    """dim over F_p of the span of the vectors' images in the quotient mod p.

    Each vector is a column row.  Equal to rank_{F_p}([R; V]) - rank_{F_p}(R),
    exact by right-exactness of tensoring with F_p, and computed as
    rank([cuts; V]) - rank(cuts) on the edges S that the substituted vectors
    touch, with the cuts of the components of G - S that the search of the
    module docstring finds: none when one component holds all of S.  Raises
    ValueError unless p is an odd prime, and for a column outside
    range(psi), which has no edge of its own; a negative one would read
    another column's.
    """
    _check_odd_prime(p)
    sigma, tau = space._sigma, space._tau
    columns = range(space.psi)
    rows = []
    for vec in vectors:
        row: dict[int, int] = {}  # vec keyed by edges of G: x_i := -x_j for each sigma pair i < j, 0 if sigma fixes x_i
        for k, c in vec.items():
            if k not in columns:
                raise ValueError(f"column {k!r} is not a generator at level {space.N}")
            j = sigma[k]
            if j > k:
                row[j] = row.get(j, 0) - c
            elif j < k:
                row[k] = row.get(k, 0) + c
        rows.append(row)
    support = {e for row in rows for e in row}  # S, edges named by their larger column
    on_support = bytearray(len(sigma))  # 1 at both columns of each edge of S
    for e in support:
        on_support[e] = on_support[sigma[e]] = 1

    group = [-1] * len(sigma)  # group[k]: the group of the tau orbit of column k, once reached
    parent: list[int] = []  # union-find forest of the groups
    queue: list[int] = []  # a column of each orbit reached, in the order reached

    def root(g: int) -> int:
        while parent[g] != g:
            g = parent[g]
        return g

    for e in support:
        for k in (e, sigma[e]):
            if group[k] < 0:
                t = tau[k]
                group[k] = group[t] = group[tau[t]] = len(parent)  # one entry thrice when tau fixes k
                parent.append(len(parent))
                queue.append(k)
    roots = len(parent)
    for k in queue:  # breadth first over G - S; the queue grows as orbits are reached
        if roots < 2:
            break  # one component holds every edge of S: no cut
        g = group[k]
        while parent[g] != g:  # root(), inlined in the search
            g = parent[g]
        t = tau[k]
        for i in (k,) if t == k else (k, t, tau[t]):
            j = sigma[i]
            if j == i or on_support[i]:
                continue  # no edge, or an edge of S
            h = group[j]
            if h < 0:
                t = tau[j]
                group[j] = group[t] = group[tau[t]] = g
                queue.append(j)
                continue
            while parent[h] != h:
                h = parent[h]
            if h != g:
                parent[h] = g
                roots -= 1

    cuts: dict[int, dict[int, int]] = {}  # root -> its cut on S
    for e in support:
        head, tail = root(group[e]), root(group[sigma[e]])
        if head != tail:
            cuts.setdefault(head, {})[e] = 1
            cuts.setdefault(tail, {})[e] = -1
    return _rank_mod_p([*cuts.values(), *rows], p) - _rank_mod_p(cuts.values(), p)
