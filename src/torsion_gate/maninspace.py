"""Manin-symbol presentation of the weight-2 relative homology of X_0(N).

The free Z-module on P^1(Z/NZ), modulo the two-term relations x + x.sigma
and the three-term relations x + x.tau + x.tau^2, presents
H_1(X_0(N), cusps; Z).  Symbols act on the right:
(u,v).[[a,b],[c,d]] = (ua+vc, ub+vd), with sigma = [[0,-1],[1,0]] and
tau = [[0,-1],[1,-1]].

Ranks are computed exactly, over Q and over F_p, by one sparse row
echelon (Stein, "Modular Forms: A Computational Approach", ch. 8): the
relation rows are added one at a time, two-term rows first, each reduced
against the rows kept so far; over Q the rows stay primitive integer
vectors, so no fractions arise.  A space builds the echelon once per
field and keeps it.  Linear independence in the quotient is always
phrased as an augmented-rank difference, never through an extracted
basis, so no choice of generators for the quotient ever enters: the
extra vectors are reduced against the kept echelon on an overlay.

P^1 normalization follows the divisor-canonical scheme (Stein's
"Modular Forms: A Computational Approach", Algorithm 8.29): the canonical
representative of a class is its lexicographically least member, which has
first coordinate gcd(u, N).
"""

from __future__ import annotations

from collections import ChainMap
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, MutableMapping, NamedTuple

from .exactmath import divisors, euler_phi, factorize, gcd, is_prime

__all__ = [
    "FreeVector",
    "ManinSymbol",
    "SIGMA",
    "SymbolSpace",
    "TAU",
    "build_space",
    "cusp_count_x0",
    "genus_x0",
    "index_x0",
    "p1_list",
    "p1_normalize",
    "quotient_rank_mod_p",
    "quotient_rank_q",
    "render_terms",
    "right_translate",
    "space_load",
    "space_save",
]


class ManinSymbol(NamedTuple):
    """A canonical representative (u, v) of a class of P^1(Z/NZ)."""

    u: int
    v: int

    def __str__(self) -> str:
        return f"({self.u},{self.v})"


SIGMA = ((0, -1), (1, 0))
TAU = ((0, -1), (1, -1))


def right_translate(N: int, u: int, v: int, m) -> tuple[int, int]:
    """(u,v).m reduced mod N, *not* canonicalized."""
    (a, b), (c, d) = m
    return ((u * a + v * c) % N, (u * b + v * d) % N)


def _lift_unit(N: int, d: int, a: int) -> int:
    """Lift a unit a mod d (d | N) to a congruent unit mod N."""
    if d == 1:
        return 1
    a %= d
    for x in range(a, N, d):
        if gcd(x, N) == 1:
            return x
    raise AssertionError("unit lift must exist")


def p1_normalize(N: int, u: int, v: int) -> ManinSymbol:
    """Canonical representative of the class [u : v] in P^1(Z/NZ).

    Two pairs normalize equal iff they differ by a unit scalar mod N.
    Raises ValueError unless gcd(u, v, N) = 1.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return ManinSymbol(0, 0)
    u %= N
    v %= N
    if gcd(gcd(u, v), N) != 1:
        raise ValueError(f"({u},{v}) is not a point of P^1(Z/{N}Z)")
    g = gcd(u, N)
    if g == N:  # u = 0: the class of (0,1)
        return ManinSymbol(0, 1)
    # scale by a unit s with s*u = g (mod N)
    m = N // g
    s = _lift_unit(N, m, pow(u // g, -1, m))
    v0 = s * v % N
    if g == 1:
        return ManinSymbol(1, v0)
    # the scalars fixing the first coordinate are the units t = 1 (mod N/g);
    # pick the least second coordinate over that stabilizer
    best = v0
    for t in range(1 + m, N, m):
        if gcd(t, N) == 1:
            w = t * v0 % N
            if w < best:
                best = w
    return ManinSymbol(g, best)


def p1_list(N: int) -> tuple[ManinSymbol, ...]:
    """All canonical representatives of P^1(Z/NZ), sorted; length psi(N).

    Every class has a member (g, v) with g = gcd(u, N) dividing N, and
    (g, v) ~ (g, v') exactly when v' = t v for a unit t = 1 (mod N/g), the
    scalars fixing g.  So for each g the classes are the orbits of that
    group on the v with gcd(g, v) = 1, and the least v of each orbit gives
    the canonical (lexicographically least) representative.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return (ManinSymbol(0, 0),)
    out = [ManinSymbol(0, 1)]  # g = N: the class of (0, 1)
    for g in divisors(N)[:-1]:
        m = N // g
        stabilizer = [t for t in range(1, N, m) if gcd(t, N) == 1]
        seen = bytearray(N)
        for v in range(N):
            if seen[v] or gcd(g, v) != 1:
                continue
            out.append(ManinSymbol(g, v))  # ascending g, then v: already sorted
            for t in stabilizer:
                seen[t * v % N] = 1
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
# sparse integer vectors over the symbol generators
# ---------------------------------------------------------------------------


class FreeVector:
    """Sparse integer combination of canonical Manin symbols.

    Zero coefficients are never stored; keys are expected to be canonical
    at one fixed level (enforced where a vector meets a SymbolSpace).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[ManinSymbol, int] | Iterable[tuple[ManinSymbol, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[ManinSymbol, int] = {}
        for sym, c in items:
            c = acc.get(sym, 0) + c
            if c:
                acc[sym] = c
            else:
                acc.pop(sym, None)
        self._coeffs = acc

    def coefficient(self, sym: ManinSymbol) -> int:
        return self._coeffs.get(sym, 0)

    def terms(self) -> tuple[tuple[ManinSymbol, int], ...]:
        return tuple(sorted(self._coeffs.items()))

    def __iter__(self):
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, FreeVector) and self._coeffs == other._coeffs

    def __add__(self, other: "FreeVector") -> "FreeVector":
        out = dict(self._coeffs)
        for sym, c in other._coeffs.items():
            s = out.get(sym, 0) + c
            if s:
                out[sym] = s
            else:
                out.pop(sym, None)
        return FreeVector(out)

    def __sub__(self, other: "FreeVector") -> "FreeVector":
        return self + (-1) * other

    def __mul__(self, k: int) -> "FreeVector":
        if k == 0:
            return FreeVector()
        return FreeVector({sym: k * c for sym, c in self._coeffs.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "FreeVector":
        return (-1) * self

    def __repr__(self) -> str:
        return f"FreeVector({self})"

    def __str__(self) -> str:
        return render_terms(self.terms())


def render_terms(terms) -> str:
    """Compact rendering like ``2(0,1)+(1,2)-(1,0)``; terms must be presorted."""
    if not terms:
        return "0"
    parts = []
    for sym, c in terms:
        mag = "" if abs(c) == 1 else str(abs(c))
        body = f"{mag}({sym[0]},{sym[1]})"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("-" if c < 0 else "+") + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# the symbol space and its relation matrix
# ---------------------------------------------------------------------------


class SymbolSpace:
    """Level, ordered P^1 generators, and the sigma/tau relation rows.

    Rows are emitted for *every* generator, duplicates from sigma/tau
    orbits included; a duplicate reduces to zero in the echelon.  The
    first rank query over a field builds the sparse echelon of the rows
    over that field and caches it; quotient ranks reduce their extra
    vectors against it without changing it.
    """

    def __init__(self, N: int, gens: tuple[ManinSymbol, ...], rows: tuple[tuple[tuple[int, int], ...], ...]):
        self.N = N
        self.gens = gens
        self.gen_index = {s: i for i, s in enumerate(gens)}
        self.relation_rows = rows
        self._echelons: dict[int, _Echelon] = {}  # keyed by p; 0 is Q

    @property
    def psi(self) -> int:
        return len(self.gens)

    def _echelon(self, p: int) -> _Echelon:
        ech = self._echelons.get(p)
        if ech is None:
            ech = self._echelons[p] = _Echelon(p, self.relation_rows)
        return ech

    def _columns(self, vectors: Iterable[FreeVector]) -> list[list[tuple[int, int]]]:
        """Vectors as sparse rows over the generator columns."""
        out = []
        for vec in vectors:
            row = []
            for sym, c in vec:
                idx = self.gen_index.get(sym)
                if idx is None:
                    raise ValueError(f"symbol {sym} is not canonical at level {self.N}")
                row.append((idx, c))
            out.append(row)
        return out

    @property
    def rank_q(self) -> int:
        """Rank of the relation matrix over Q (computed once, then cached)."""
        return self._echelon(0).rank

    @property
    def quotient_rank(self) -> int:
        """dim over Q of the quotient, i.e. of H_1(X_0(N), cusps) tensor Q."""
        return self.psi - self.rank_q

    def rank_mod_p(self, p: int) -> int:
        """Rank of the relation matrix over F_p (computed once, then cached)."""
        return self._echelon(p).rank


def build_space(N: int) -> SymbolSpace:
    """Assemble the generators and all sigma- and tau-relation rows at level N."""
    gens = p1_list(N)
    assert len(gens) == index_x0(N), f"P^1(Z/{N}) enumeration does not match psi"
    index = {s: i for i, s in enumerate(gens)}

    def normalized(sym: ManinSymbol, m) -> int:
        return index[p1_normalize(N, *right_translate(N, sym.u, sym.v, m))]

    rows = []
    for sym in gens:
        i = index[sym]
        acc: dict[int, int] = {i: 1}
        j = normalized(sym, SIGMA)
        acc[j] = acc.get(j, 0) + 1
        rows.append(tuple(sorted(acc.items())))

        acc = {i: 1}
        t = p1_normalize(N, *right_translate(N, sym.u, sym.v, TAU))
        j = index[t]
        acc[j] = acc.get(j, 0) + 1
        k = normalized(t, TAU)
        acc[k] = acc.get(k, 0) + 1
        rows.append(tuple(sorted(acc.items())))
    return SymbolSpace(N, gens, tuple(rows))


# ---------------------------------------------------------------------------
# exact rank computations
# ---------------------------------------------------------------------------


def _reduce(pivots: Mapping[int, dict[int, int]], v: dict[int, int], p: int) -> int | None:
    """Reduce ``v`` in place against ``pivots``; return its new leading column.

    Columns are cleared in increasing order until the least remaining one
    has no pivot row: then ``v`` is independent of the rows and that column
    is its leading column.  None means ``v`` lies in their span.  Over Q
    (p = 0) a leading coefficient a != 1 is cleared by scaling ``v``, so
    entries stay integers; over F_p every leading coefficient is 1.
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
        a = row[c]
        if a != 1:
            g = gcd(a, f)
            f //= g
            if a != g:
                for k in v:
                    v[k] *= a // g
        del v[c]
        for k, y in row.items():
            if k == c:
                continue
            x = v.get(k)
            if x is None:
                x = -f * y
                heappush(heap, k)
            else:
                x -= f * y
            if p:
                x %= p
            if x:
                v[k] = x
            else:
                del v[k]
    return None


class _Echelon:
    """Sparse row echelon form of the relation rows over Q (p = 0) or F_p.

    Each row is a dict column -> coefficient stored under its leading
    (least) column: with leading coefficient 1 over F_p, and as a
    primitive integer row over Q, so no fractions arise.  Built once and
    never changed afterwards; :meth:`extra_rank` works on an overlay.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int, rows: Iterable[tuple[tuple[int, int], ...]]):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}
        # two-term (sigma) rows first: they identify symbol pairs, and the
        # three-term rows then reduce against them with little fill-in
        for row in sorted(rows, key=len):
            self._add(self.pivots, row)

    def _add(self, pivots: MutableMapping[int, dict[int, int]], row: Iterable[tuple[int, int]]) -> None:
        """Add ``row`` to the echelon rows ``pivots`` unless it lies in their span."""
        p = self.p
        v = {}
        for k, x in row:
            if p:
                x %= p
            if x:
                v[k] = x
        c = _reduce(pivots, v, p)
        if c is None:
            return
        if p:
            inv = pow(v[c], -1, p)
            v = {k: x * inv % p for k, x in v.items()}
        else:  # primitive, with a positive leading coefficient
            g = 0
            for x in v.values():
                g = gcd(g, x)
            if v[c] < 0:
                g = -g
            if g != 1:
                v = {k: x // g for k, x in v.items()}
        pivots[c] = v

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def extra_rank(self, rows: Iterable[Iterable[tuple[int, int]]]) -> int:
        """dim of the span of ``rows`` modulo the row space of the echelon."""
        overlay = ChainMap({}, self.pivots)
        for row in rows:
            self._add(overlay, row)
        return len(overlay.maps[0])


def _require_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def quotient_rank_mod_p(space: SymbolSpace, vectors: Iterable[FreeVector], p: int) -> int:
    """dim over F_p of the span of the vectors' images in the quotient mod p.

    Equal to rank_{F_p}([R; V]) - rank_{F_p}(R), which by right-exactness of
    tensoring with F_p is basis-free and exact; computed by reducing only
    the vectors against the cached echelon of R mod p.
    """
    _require_odd_prime(p)
    rows = space._columns(vectors)
    space.rank_mod_p(p)  # builds the echelon of R mod p once per space
    return space._echelons[p].extra_rank(rows)


def quotient_rank_q(space: SymbolSpace, vectors: Iterable[FreeVector]) -> int:
    """dim over Q of the span of the vectors' images in the quotient."""
    rows = space._columns(vectors)
    space.rank_q  # builds the echelon of R over Q once per space
    return space._echelons[0].extra_rank(rows)


# ---------------------------------------------------------------------------
# optional on-disk cache for a built space
# ---------------------------------------------------------------------------

_CACHE_MAGIC = "torsion-gate-space 1"


def space_save(space: SymbolSpace, path) -> None:
    """Serialize a space: header, then one relation row per line."""
    lines = [
        _CACHE_MAGIC,
        f"N {space.N}",
        f"psi {space.psi}",
        f"rows {len(space.relation_rows)}",
    ]
    for row in space.relation_rows:
        lines.append(" ".join(f"{col}:{c}" for col, c in row))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def space_load(path) -> SymbolSpace:
    """Load a serialized space, re-deriving and re-validating the generators."""
    with open(path, encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != _CACHE_MAGIC:
        raise ValueError(f"{path}: not a symbol-space cache file")

    def header(idx: int, key: str) -> int:
        name, _, value = lines[idx].partition(" ")
        if name != key:
            raise ValueError(f"{path}: expected '{key}' header line")
        return int(value)

    N = header(1, "N")
    psi = header(2, "psi")
    nrows = header(3, "rows")
    gens = p1_list(N)
    if len(gens) != psi or psi != index_x0(N):
        raise ValueError(f"{path}: psi header {psi} does not match level {N}")
    body = lines[4 : 4 + nrows]
    if len(body) != nrows:
        raise ValueError(f"{path}: expected {nrows} relation rows")
    rows = []
    for line in body:
        row = []
        for chunk in line.split():
            col, _, c = chunk.partition(":")
            row.append((int(col), int(c)))
        rows.append(tuple(row))
    return SymbolSpace(N, gens, tuple(rows))
