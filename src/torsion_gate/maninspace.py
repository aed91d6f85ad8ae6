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

A space keeps one depth-first spanning tree of G for every p.  Modulo
the tau rows, a substituted column row v is v less the coboundary of
the vertex potentials x with x_head - x_tail = v_e on the tree edges:
its residual on the cotree edges, the pairing of v with G's fundamental
cycles.  So ``quotient_rank_mod_p``, rank([R; V]) - rank(R), is the rank
mod p of the residuals of V, at most 2d rows and the engine's only
elimination.  Vectors are column rows: dicts from a generator's column
(its index in the sorted ``SymbolSpace.gens``) to a nonzero coefficient.

The canonical representative of a class of P^1(Z/NZ) is its
lexicographically least member, which has first coordinate g = gcd(u, N)
(the divisor-canonical scheme of Stein's Algorithm 8.29).  For g < N,
(g, v) ~ (g, v') exactly when v = v' (mod m = N/g), since the scalars
fixing g are the units t = 1 (mod m).  So the class of (g, w) is
``classes[g][w mod m]``, from a table of length m, and a pair (u, v) is
read off as (g, s v) for any s with s u = g (mod N), an inverse of u/g
mod m.  The engine classifies by that lookup, :meth:`SymbolSpace.index`,
never by normalizing a pair; Algorithm 8.29's normalization lives on only
as the reference the tests compare against.  Sigma and tau are kept as
permutations of the columns, and the relation rows are derived on request.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
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


class _SpanningTree(NamedTuple):
    """A depth-first spanning tree of the tau-orbit graph G, vertices numbered in preorder.

    An edge is named by its column, the larger member j of its sigma pair;
    it runs from the orbit of sigma(j) to the orbit of j.
    """

    vertex: list[int]  # vertex[k]: the preorder number of the tau orbit of column k
    end: list[int]  # end[v]: one past the last vertex of v's subtree, which is range(v, end[v])
    edges: dict[int, tuple[int, int]]  # tree edge -> (child vertex, +1 if the child is its head, else -1)
    cotree: list[tuple[int, int, int]]  # (edge, head, tail) for every other edge, self-loops included


class SymbolSpace:
    """Level, ordered P^1 generators, the class tables and the sigma and tau permutations.

    ``_sigma[i]`` and ``_tau[i]`` are the columns of gens[i].sigma and
    gens[i].tau.  The first rank query builds the spanning tree of the
    tau-orbit graph (module docstring), which serves every prime; since the
    presentation has no odd torsion, :attr:`rank_q` is the rank mod 3.

    The space also holds the class tables of the module docstring:
    ``_scale[u]``, an s with s u = g = gcd(u, N) (mod N), and
    ``_classes[g][w mod N/g]``, the column of (g, w), with key 0 (u = 0)
    a one-entry table, the column of (0, 1).  :meth:`index` reads them; it
    is the engine's only P^1 classifier.
    """

    def __init__(self, N: int, gens: tuple[ManinSymbol, ...], scale: list[int], classes: dict[int, list[int]],
                 sigma: list[int], tau: list[int]):
        self.N = N
        self.gens = gens
        self._scale = scale
        self._classes = classes
        self._sigma = sigma
        self._tau = tau
        self._tree: _SpanningTree | None = None

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

    def _on_sigma_quotient(self, row: Iterable[tuple[int, int]]) -> dict[int, int]:
        """``row`` keyed by tau-orbit graph edges: x_i := -x_j for each sigma pair i < j, 0 if sigma fixes x_i."""
        sigma = self._sigma
        out: dict[int, int] = {}
        for k, c in row:
            j = sigma[k]
            if j > k:
                out[j] = out.get(j, 0) - c
            elif j < k:
                out[k] = out.get(k, 0) + c
        return out

    def _spanning_tree(self) -> _SpanningTree:
        """The depth-first spanning tree of the tau-orbit graph, built on the first call."""
        if self._tree is None:
            sigma, tau = self._sigma, self._tau
            vertex = [-1] * len(sigma)
            end: list[int] = []
            edges: dict[int, tuple[int, int]] = {}
            stack = [0]  # columns whose orbit is to be entered, and ~v to close the subtree of v
            pop, push = stack.pop, stack.append
            v = 0  # the next preorder number
            while stack:
                k = pop()
                if k < 0:
                    end[~k] = v
                elif vertex[k] < 0:
                    if v:  # entered over the edge from the orbit of j = sigma(k), which is v's parent
                        j = sigma[k]
                        if k > j:
                            edges[k] = (v, 1)
                        else:
                            edges[j] = (v, -1)
                    end.append(0)
                    push(~v)
                    for i in (k,) if tau[k] == k else (k, tau[k], tau[tau[k]]):
                        vertex[i] = v
                        if vertex[sigma[i]] < 0:
                            push(sigma[i])
                    v += 1
            assert -1 not in vertex, f"the tau-orbit graph is disconnected at N={self.N}"
            cotree = [(j, vertex[j], vertex[i]) for j, i in enumerate(sigma) if i < j and j not in edges]
            self._tree = _SpanningTree(vertex, end, edges, cotree)
        return self._tree

    @property
    def rank_q(self) -> int:
        """Rank of the relation matrix over Q, which equals its rank mod 3 (module docstring)."""
        return self.rank_mod_p(3)

    @property
    def quotient_rank(self) -> int:
        """dim over Q of the quotient, i.e. of H_1(X_0(N), cusps) tensor Q."""
        return self.psi - self.rank_q

    def rank_mod_p(self, p: int) -> int:
        """Rank of the relation matrix over F_p, (sigma orbits) + (tau orbits) - 1 = psi - #cotree edges.

        Raises ValueError unless p is an odd prime.
        """
        if p == 2 or not is_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        return self.psi - len(self._spanning_tree().cotree)


# `homology --N 999983` (psi = 999984, just under the bound) takes about 5.9 s and
# peaks at about 285 MB RSS (2-core Xeon VM, CPython 3.11.7).
MAX_PSI = 10**6


def build_space(N: int) -> SymbolSpace:
    """Assemble the generators (from :func:`p1_list`), the class tables and the sigma and tau permutations.

    Raises ValueError, before building anything, when psi(N) exceeds :data:`MAX_PSI`.
    """
    psi = index_x0(N)
    if psi > MAX_PSI:
        raise ValueError(f"level guard: psi({N}) = {psi} exceeds {MAX_PSI}")
    gens = p1_list(N)
    assert len(gens) == psi, f"P^1(Z/{N}) enumeration does not match psi"
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
    return SymbolSpace(N, gens, scale, classes, sigma, tau)


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
    exact by right-exactness of tensoring with F_p, and computed as the rank
    mod p of the vectors' cotree residuals (module docstring).  Raises
    ValueError for a column outside range(psi), which has no edge of its
    own; a negative one would read another column's.
    """
    space.rank_mod_p(p)  # checks p; builds the spanning tree once per space
    _, end, edges, cotree = space._spanning_tree()
    columns = range(space.psi)
    residuals = []
    for vec in vectors:
        for k in vec:
            if k not in columns:
                raise ValueError(f"column {k!r} is not a generator at level {space.N}")
        row = space._on_sigma_quotient(vec.items())
        # vertex potentials x with x_head - x_tail = row[e] on each tree edge e: the
        # edge adds +-row[e] to its child's subtree, a contiguous range in preorder
        diff = [0] * (len(end) + 1)
        for e, c in row.items():
            if (edge := edges.get(e)) is not None:
                child, sign = edge
                diff[child] += sign * c
                diff[end[child]] -= sign * c
        x = list(accumulate(diff))
        residuals.append({e: r for e, head, tail in cotree if (r := row.get(e, 0) - x[head] + x[tail])})
    return _rank_mod_p(residuals, p)
