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

Ranks are computed exactly over F_p, p odd, by one sparse row echelon
(Stein, ch. 8) after Stein's quotient by the two-term relations: a sigma
pair i < j gives x_i := -x_j, and a sigma-fixed x_i gives x_i := 0.  The
relation rank is the number of sigma orbits plus the echelon rank of the
substituted three-term rows.  A space builds the echelon once per prime
and keeps it; the rank over Q is read off the echelon mod 3.

Vectors are column rows: dicts from a generator's column (its index in
the sorted ``SymbolSpace.gens``) to a nonzero coefficient.  Linear
independence of column rows in the quotient mod p is phrased as an
augmented-rank difference, never through an extracted basis, so no
choice of generators for the quotient ever enters: the extra rows are
substituted the same way and reduced against the kept echelon on an
overlay.

The canonical representative of a class of P^1(Z/NZ) is its
lexicographically least member, which has first coordinate g = gcd(u, N)
(the divisor-canonical scheme of Stein's Algorithm 8.29).  For g < N,
(g, v) ~ (g, v') exactly when v = v' (mod m = N/g), since the scalars
fixing g are the units t = 1 (mod m).  So the class of (g, w) is
``classes[g][w mod m]``, from a table of length m, and a pair (u, v) is
read off as (g, s v) for any s with s u = g (mod N), an inverse of u/g
mod m.  The engine classifies by that lookup, :meth:`SymbolSpace.index`,
never by normalizing a pair; Algorithm 8.29's normalization lives on only
as the reference the tests compare against.  The relation build emits
each relation once, per sigma orbit and per tau orbit, as Stein does
(ch. 8).
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import compress, repeat
from typing import Iterable, Mapping, NamedTuple

from .exactmath import divisors, euler_phi, factorize, gcd, is_prime

__all__ = [
    "ManinSymbol",
    "SymbolSpace",
    "build_space",
    "cusp_count_x0",
    "genus_x0",
    "index_x0",
    "p1_list",
    "quotient_rank_mod_p",
]


class ManinSymbol(NamedTuple):
    """A canonical representative (u, v) of a class of P^1(Z/NZ)."""

    u: int
    v: int

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


def p1_list(N: int) -> tuple[ManinSymbol, ...]:
    """All canonical representatives of P^1(Z/NZ), sorted; length psi(N).

    Every class has a member (g, v) with g = gcd(u, N) dividing N.  For
    g < N the classes are the residues w mod m = N/g with gcd(w, g, m) = 1
    (module docstring), each represented by its least lift w + km coprime
    to g.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return (ManinSymbol(0, 0),)
    out = [ManinSymbol(0, 1)]  # g = N: the class of (0, 1)
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
        out.extend(map(ManinSymbol, repeat(g), lifts))  # ascending g, then v: sorted
    return tuple(out)


# ---------------------------------------------------------------------------
# classical Gamma_0(N) formulas (used as independent consistency checks)
# ---------------------------------------------------------------------------


def index_x0(N: int) -> int:
    """Index psi(N) = N * prod_{p | N} (1 + 1/p) of Gamma_0(N) in PSL_2(Z)."""
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
# the symbol space and its relation matrix
# ---------------------------------------------------------------------------


class SymbolSpace:
    """Level, ordered P^1 generators, and the sigma/tau relation rows.

    There is one row per orbit of sigma and one per orbit of tau on the
    generators (x + x.sigma, or 2x when sigma fixes x; x + x.tau + x.tau^2,
    or x when tau fixes x), so no row repeats; the sigma rows come first.
    Ranks are taken over F_p only: the first rank query mod p builds the
    sparse echelon of the tau rows over the sigma quotient (module
    docstring) and caches it; quotient ranks reduce their substituted
    extra rows against it.  Since the presentation has no odd torsion,
    :attr:`rank_q` is the rank mod 3.

    The space also holds the class tables of the module docstring:
    ``_scale[u]``, an s with s u = g = gcd(u, N) (mod N), and
    ``_classes[g][w mod N/g]``, the column of (g, w), with key 0 (u = 0)
    a one-entry table, the column of (0, 1).  :meth:`index` reads them; it
    is the engine's only P^1 classifier.  ``_sigma[i]`` is the column of gens[i].sigma.
    """

    def __init__(self, N: int, gens: tuple[ManinSymbol, ...], scale: list[int], classes: dict[int, list[int]],
                 sigma: list[int], sigma_rows: list[tuple[tuple[int, int], ...]],
                 tau_rows: list[tuple[tuple[int, int], ...]]):
        self.N = N
        self.gens = gens
        self._scale = scale
        self._classes = classes
        self._sigma = sigma
        self._sigma_orbits = len(sigma_rows)
        self._tau_rows = tau_rows
        self.relation_rows = tuple(sigma_rows + tau_rows)
        self._echelons: dict[int, _Echelon] = {}  # keyed by p

    def index(self, u: int, v: int) -> int:
        """Column of the class of (u, v), looked up as (g, s v) mod N/g; see the module docstring.

        (u, v) must be a point of P^1(Z/NZ): callers check gcd(u, v, N) = 1
        first, since for any other pair the tables give -1 or an unrelated column.
        """
        N = self.N
        s = self._scale[u % N]
        table = self._classes[s * u % N]
        return table[s * v % len(table)]

    @property
    def psi(self) -> int:
        return len(self.gens)

    def _on_sigma_quotient(self, row: Iterable[tuple[int, int]]) -> dict[int, int]:
        """``row`` with x_i := -x_j for each sigma pair i < j and x_i := 0 for each sigma-fixed i.

        The larger column of a pair stays: the echelon then fills in far less.
        """
        sigma = self._sigma
        out: dict[int, int] = {}
        for k, c in row:
            j = sigma[k]
            if j > k:
                out[j] = out.get(j, 0) - c
            elif j < k:
                out[k] = out.get(k, 0) + c
        return out

    def _echelon(self, p: int) -> _Echelon:
        ech = self._echelons.get(p)
        if ech is None:
            rows = [self._on_sigma_quotient(row).items() for row in self._tau_rows]
            ech = self._echelons[p] = _Echelon(p, rows)
        return ech

    @property
    def rank_q(self) -> int:
        """Rank of the relation matrix over Q, which equals its rank mod 3 (module docstring)."""
        return self.rank_mod_p(3)

    @property
    def quotient_rank(self) -> int:
        """dim over Q of the quotient, i.e. of H_1(X_0(N), cusps) tensor Q."""
        return self.psi - self.rank_q

    def rank_mod_p(self, p: int) -> int:
        """Rank of the relation matrix over F_p (computed once, then cached).

        Raises ValueError unless p is an odd prime.
        """
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        return self._sigma_orbits + self._echelon(p).rank


def build_space(N: int) -> SymbolSpace:
    """Assemble the generators (from :func:`p1_list`), the class tables and one relation row per orbit."""
    gens = p1_list(N)
    psi = len(gens)
    assert psi == index_x0(N), f"P^1(Z/{N}) enumeration does not match psi"
    primes = [q for q, _ in factorize(N)]
    scale = [0] * N  # scale[g x] = x^-1 mod N/g, for x a unit mod N/g
    classes = {}  # classes[g][w]: the column of (g, w), for w mod N/g; keyed by gcd(u, N) mod N
    for g in divisors(N)[:-1]:
        m = N // g
        unit = bytearray(b"\1") * m
        for q in primes:
            if m % q == 0:
                unit[::q] = bytes(m // q)
        for x in compress(range(m), unit):
            scale[g * x] = pow(x, -1, m)
        classes[g] = [-1] * m  # -1 marks a residue that is no class
    for i, (g, v) in enumerate(gens[1:], 1):
        classes[g][v % (N // g)] = i
    classes[0] = [0]  # u = 0 mod N: every (0, w) in P^1 is the class of (0, 1)

    # (u, v).sigma = (v, -u) and (u, v).tau = (v, -u - v): one scale, one table
    sigma = [0] * psi
    tau = [0] * psi
    for i, (u, v) in enumerate(gens):
        s = scale[v]
        table = classes[s * v % N]
        m = len(table)
        sigma[i] = table[-s * u % m]
        tau[i] = table[-s * (u + v) % m]
    assert -1 not in sigma and -1 not in tau, f"a translate missed the class tables at N={N}"
    sigma_rows = [((i, 1), (j, 1)) if i < j else ((i, 2),) for i, j in enumerate(sigma) if i <= j]
    tau_rows = []
    for i, j in enumerate(tau):
        k = tau[j]
        if i == j:  # tau fixes the class, so the orbit is {i}
            tau_rows.append(((i, 1),))
        elif i < j and i < k:
            tau_rows.append(((i, 1), (j, 1), (k, 1)) if j < k else ((i, 1), (k, 1), (j, 1)))
    return SymbolSpace(N, gens, scale, classes, sigma, sigma_rows, tau_rows)


# ---------------------------------------------------------------------------
# exact rank computations
# ---------------------------------------------------------------------------


def _reduce(pivots: Mapping[int, dict[int, int]], v: dict[int, int], p: int) -> int | None:
    """Reduce ``v`` in place mod p against ``pivots``; return its new leading column.

    Columns are cleared in increasing order until the least remaining one
    has no pivot row: then ``v`` is independent of the rows and that column
    is its leading column.  None means ``v`` lies in their span.  Every
    pivot row has leading coefficient 1.
    """
    heap = list(v)
    heapify(heap)
    while heap:
        c = heappop(heap)
        f = v.get(c)
        if f is None:
            continue  # cancelled since it was pushed
        row = pivots.get(c)
        if row is None:
            return c
        del v[c]
        for k, y in row.items():
            if k == c:
                continue
            x = v.get(k)
            if x is None:
                v[k] = -f * y % p  # nonzero: f and y are units mod p
                heappush(heap, k)
            else:
                x = (x - f * y) % p
                if x:
                    v[k] = x
                else:
                    del v[k]
    return None


class _Echelon:
    """Sparse row echelon form of the relation rows over F_p.

    Each row is a dict column -> coefficient stored under its leading
    (least) column, with leading coefficient 1.  Built once and never
    changed afterwards; :meth:`extra_rank` works on an overlay.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int, rows: Iterable[tuple[tuple[int, int], ...]]):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}
        # shortest rows first: on the sigma quotient a tau row keeps one to
        # three terms (a tau-fixed symbol gives one; a term vanishes on a
        # sigma-fixed symbol or merges with another), and the full
        # three-term rows then reduce against the short ones with little fill-in
        for row in sorted(rows, key=len):
            self._add(self.pivots, row)

    def _add(self, pivots: dict[int, dict[int, int]], row: Iterable[tuple[int, int]]) -> None:
        """Add ``row`` to the echelon rows ``pivots`` unless it lies in their span."""
        p = self.p
        v = {}
        for k, x in row:
            x %= p
            if x:
                v[k] = x
        c = _reduce(pivots, v, p)
        if c is None:
            return
        if v[c] != 1:
            inv = pow(v[c], -1, p)
            v = {k: x * inv % p for k, x in v.items()}
        pivots[c] = v

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extra_rank(self, rows: Iterable[Iterable[tuple[int, int]]]) -> int:
        """dim of the span of ``rows`` modulo the row space of the echelon."""
        overlay = dict(self.pivots)  # the stored rows are never mutated, so a shallow copy is safe
        for row in rows:
            self._add(overlay, row)
        return len(overlay) - len(self.pivots)


def quotient_rank_mod_p(space: SymbolSpace, vectors: Iterable[Mapping[int, int]], p: int) -> int:
    """dim over F_p of the span of the vectors' images in the quotient mod p.

    Each vector is a column row, a mapping from generator column to
    coefficient.  Equal to rank_{F_p}([R; V]) - rank_{F_p}(R), which by
    right-exactness of tensoring with F_p is basis-free and exact;
    computed by substituting the vectors onto the sigma quotient and
    reducing only them against the cached echelon of the tau rows mod p.
    Raises ValueError for a column outside range(psi): such a key would
    become a pivot of its own and inflate the rank.
    """
    space.rank_mod_p(p)  # checks p; builds the echelon of R mod p once per space
    columns = range(space.psi)
    rows = []
    for vec in vectors:
        for k in vec:
            if k not in columns:
                raise ValueError(f"column {k!r} is not a generator at level {space.N}")
        rows.append(space._on_sigma_quotient(vec.items()).items())
    return space._echelons[p].extra_rank(rows)
