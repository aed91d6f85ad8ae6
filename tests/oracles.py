"""Slow reference implementations the engine's fast paths are tested against.

These were the engine's production paths before the cut search in the
tau-orbit graph, the orbit enumeration of P^1, the classification of P^1
by closed-form columns, the recurrence for inverses mod a prime power,
the census by translation orbits and the census tally by rotated rows
replaced them: dense fraction-free (Bareiss)
elimination over Q, dense Gaussian elimination mod p, the heap-driven
sparse row echelon mod p (:class:`_Echelon`, which takes any relation
rows, not only those of a tau-orbit graph), the depth-first spanning
tree of the tau-orbit graph and the rank of column rows from their
cotree residuals (:func:`quotient_rank_by_cotree`), P^1 normalization by
Stein's Algorithm 8.29 (:func:`p1_normalize`), the P^1 enumeration that
normalizes every pair (g, v) with g | N, the table of inverses mod a
prime power by one ``pow`` per unit (:func:`inverses_by_pow`), the
relation build and the Hecke action that normalize every translate, the
census that scans every coefficient triple (a, b, c), the census by
translation orbits alone, the census by orbit slices that steps through
every x and every c in Python (:func:`brute_force_census_by_slices`), and the finite-field
operations (addition, powers, inverses, negation, subtraction and the
quadratic character by Euler's criterion) that the census no longer
needs now that it adds and multiplies through tables.  The oracles'
field is their own record :class:`OracleField`, whose modulus is the
first primitive x^n - r found by this module's Rabin test and order
check (:func:`first_primitive_modulus`), and field multiplication is a
polynomial product reduced mod that modulus.  So no oracle but the slice
census reads the engine's field or its choice of modulus; that one
checks the engine's scan on the engine's own tables.
Beside them sit the helpers only tests need, on the engine's column
rows: the rank over Q of extra rows in the quotient
(:func:`quotient_rank_q`, by Bareiss; the engine needs that rank only
mod p), the symbol view of a row and linear combinations of rows, and
the genus of X_1(N) (:func:`genus_x1`), which the gonality tables' labels
are checked against, and the argparse parser the CLI's option table
replaced (:func:`argparse_parser`), which its parses are checked against.
They share no elimination, enumeration or classification code with
:mod:`torsion_gate.maninspace` and no scan code with
:mod:`torsion_gate.redux`."""

from __future__ import annotations

import argparse
import struct
import sys
from collections import Counter
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple

from torsion_gate.exactmath import PrimePower, divisors, factorize, field_make, gcd
from torsion_gate.hecke import merel_matrices
from torsion_gate.maninspace import SymbolSpace
from torsion_gate.redux import BRUTE_FORCE_MAX_Q, BruteForceCensus, _check_census_q


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


def p1_normalize(N: int, u: int, v: int) -> tuple[int, int]:
    """Canonical representative of the class [u : v] in P^1(Z/NZ).

    Two pairs normalize equal iff they differ by a unit scalar mod N.
    Raises ValueError unless gcd(u, v, N) = 1.
    """
    if N < 1:
        raise ValueError("level must be positive")
    if N == 1:
        return 0, 0
    u %= N
    v %= N
    if gcd(gcd(u, v), N) != 1:
        raise ValueError(f"({u},{v}) is not a point of P^1(Z/{N}Z)")
    g = gcd(u, N)
    if g == N:  # u = 0: the class of (0,1)
        return 0, 1
    # scale by a unit s with s*u = g (mod N)
    m = N // g
    s = _lift_unit(N, m, pow(u // g, -1, m))
    v0 = s * v % N
    if g == 1:
        return 1, v0
    # the scalars fixing the first coordinate are the units t = 1 (mod N/g);
    # pick the least second coordinate over that stabilizer
    best = v0
    for t in range(1 + m, N, m):
        if gcd(t, N) == 1:
            w = t * v0 % N
            if w < best:
                best = w
    return g, best


def dense_rows(space: SymbolSpace, extra: Iterable[dict[int, int]] = ()) -> list[list[int]]:
    """The distinct relation rows of ``space``, then the column rows ``extra``, as dense integer rows."""
    out = []
    for row in dict.fromkeys(space.relation_rows):
        dense = [0] * space.psi
        for col, c in row:
            dense[col] = c
        out.append(dense)
    for vec in extra:
        dense = [0] * space.psi
        for col, c in vec.items():
            dense[col] = c
        out.append(dense)
    return out


def quotient_rank_q(space: SymbolSpace, vectors: list[dict[int, int]]) -> int:
    """dim over Q of the span of the column rows' images in the quotient, by Bareiss."""
    return bareiss_rank(dense_rows(space, vectors)) - bareiss_rank(dense_rows(space))


def symbol_view(space: SymbolSpace, row: dict[int, int]) -> dict[tuple[int, int], int]:
    """A column row keyed by the symbols its columns stand for."""
    return {space.symbol(col): c for col, c in row.items()}


def row_combination(scaled_rows: Iterable[tuple[int, dict[int, int]]]) -> dict[int, int]:
    """The column row sum of c * row over (c, row) pairs, zero entries dropped."""
    acc: dict[int, int] = {}
    for c, row in scaled_rows:
        for col, x in row.items():
            acc[col] = acc.get(col, 0) + c * x
    return {col: x for col, x in acc.items() if x}


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free Bareiss elimination.

    Destroys ``rows``.  Every intermediate entry is a minor of the input,
    and every division below is exact.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    col = 0
    while rows and col < ncols:
        pivot_at = None
        best = None
        for i, r in enumerate(rows):
            x = r[col]
            if x and (best is None or abs(x) < best):
                best = abs(x)
                pivot_at = i
                if best == 1:
                    break
        if pivot_at is None:
            col += 1
            continue
        pivot = rows.pop(pivot_at)
        pv = pivot[col]
        nxt = []
        for r in rows:
            x = r[col]
            if x == 0 and pv == prev:
                nxt.append(r)  # the update below would leave r unchanged
                continue
            new = [(pv * a - x * b) // prev for a, b in zip(r[col + 1 :], pivot[col + 1 :])]
            if any(new):
                nxt.append([0] * (col + 1) + new)
        rows = nxt
        prev = pv
        rank += 1
        col += 1
    return rank


def dense_rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over F_p by dense Gaussian elimination (destroys ``rows``)."""
    echelon: list[tuple[int, list[int]]] = []  # (pivot column, normalized row)
    rank = 0
    for row in rows:
        row = [a % p for a in row]
        for pc, pr in echelon:
            f = row[pc]
            if f:
                row = [(a - f * b) % p for a, b in zip(row, pr)]
        for pc, a in enumerate(row):
            if a:
                inv = pow(a, -1, p)
                pr = [inv * x % p for x in row]
                echelon.append((pc, pr))
                echelon.sort(key=lambda e: e[0])
                rank += 1
                break
    return rank


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
    """Sparse row echelon form of integer rows over F_p (each column at most once per row).

    Each row is a dict column -> coefficient stored under its leading
    (least) column, with leading coefficient 1.  Built once and never
    changed afterwards; :meth:`extra_rank` works on an overlay.
    """

    __slots__ = ("p", "pivots")

    def __init__(self, p: int, rows: Iterable[Iterable[tuple[int, int]]]):
        self.p = p
        self.pivots: dict[int, dict[int, int]] = {}
        # shortest rows first: on relation rows the one- and two-term rows
        # then clear most columns before the three-term rows arrive
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


class SpanningTree(NamedTuple):
    """A depth-first spanning tree of the tau-orbit graph G, vertices numbered in preorder.

    An edge is named by its column, the larger member j of its sigma pair;
    it runs from the orbit of sigma(j) to the orbit of j.  Subtrees are
    contiguous ranges in preorder, so a vector's vertex potentials come
    from one ``accumulate`` over a difference array.
    """

    vertex: list[int]  # vertex[k]: the preorder number of the tau orbit of column k
    end: list[int]  # end[v]: one past the last vertex of v's subtree, which is range(v, end[v])
    edges: dict[int, tuple[int, int]]  # tree edge -> (child vertex, +1 if the child is its head, else -1)
    cotree: list[tuple[int, int, int]]  # (edge, head, tail) for every other edge, self-loops included


def spanning_tree(space: SymbolSpace) -> SpanningTree:
    """The depth-first spanning tree of the space's tau-orbit graph."""
    sigma, tau = space._sigma, space._tau
    vertex = [-1] * len(sigma)
    end: list[int] = []
    edges: dict[int, tuple[int, int]] = {}
    stack = [0]  # columns whose orbit is to be entered, and ~v to close the subtree of v
    v = 0  # the next preorder number
    while stack:
        k = stack.pop()
        if k < 0:
            end[~k] = v
        elif vertex[k] < 0:
            if v:  # entered over the edge from the orbit of j = sigma(k), which is v's parent
                j = sigma[k]
                edges[max(j, k)] = (v, 1 if k > j else -1)
            end.append(0)
            stack.append(~v)
            for i in (k,) if tau[k] == k else (k, tau[k], tau[tau[k]]):
                vertex[i] = v
                if vertex[sigma[i]] < 0:
                    stack.append(sigma[i])
            v += 1
    assert -1 not in vertex, f"the tau-orbit graph is disconnected at N={space.N}"
    cotree = [(j, vertex[j], vertex[i]) for j, i in enumerate(sigma) if i < j and j not in edges]
    return SpanningTree(vertex, end, edges, cotree)


def quotient_rank_by_cotree(space: SymbolSpace, vectors: Iterable[Mapping[int, int]], p: int) -> int:
    """dim over F_p of the column rows' images in the quotient, from their cotree residuals.

    Each row is substituted into the sigma quotient (x_i := -x_j for a
    sigma pair i < j, 0 at a sigma-fixed column), less the coboundary of
    the vertex potentials that agree with it on the tree edges; what is left
    on the cotree edges is its pairing with G's fundamental cycles.
    """
    sigma = space._sigma
    tree = spanning_tree(space)
    residuals = []
    for vec in vectors:
        row: dict[int, int] = {}
        for k, c in vec.items():
            j = sigma[k]
            if j != k:
                e = max(j, k)
                row[e] = row.get(e, 0) + (c if k == e else -c)
        diff = [0] * (len(tree.end) + 1)
        for e, c in row.items():
            if e in tree.edges:
                child, sign = tree.edges[e]
                diff[child] += sign * c
                diff[tree.end[child]] -= sign * c
        x = list(accumulate(diff))
        residuals.append([(e, r) for e, head, tail in tree.cotree if (r := row.get(e, 0) - x[head] + x[tail])])
    return _Echelon(p, residuals).rank


def inverses_by_pow(p: int, q: int) -> list[int]:
    """x^-1 mod q at each unit x of Z/qZ, and 0 at the other residues, for q = p^e: one pow per unit."""
    return [pow(x, -1, q) if x % p else 0 for x in range(q)]


def p1_list_by_normalize(N: int) -> tuple[tuple[int, int], ...]:
    """All canonical representatives of P^1(Z/NZ), by normalizing every (g, v), g | N."""
    if N == 1:
        return ((0, 0),)
    seen = set()
    for g in divisors(N):
        u = g % N
        for v in range(N):
            if gcd(gcd(u, v), N) == 1:
                seen.add(p1_normalize(N, u, v))
    return tuple(sorted(seen))


def relation_rows_by_normalize(N: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The sigma and tau relation rows at level N, two per generator, duplicates included.

    Every translate is normalized with :func:`p1_normalize`; columns index
    :func:`p1_list_by_normalize`.  A symbol x fixed by tau gives the row x,
    not x + x.tau + x.tau^2 = 3x: the integral presentation kills it.
    """
    gens = p1_list_by_normalize(N)
    index = {s: i for i, s in enumerate(gens)}

    def normalized(sym: tuple[int, int], m) -> int:
        return index[p1_normalize(N, *right_translate(N, *sym, m))]

    rows = []
    for sym in gens:
        i = index[sym]
        acc: dict[int, int] = {i: 1}
        j = normalized(sym, SIGMA)
        acc[j] = acc.get(j, 0) + 1
        rows.append(tuple(sorted(acc.items())))

        t = p1_normalize(N, *right_translate(N, *sym, TAU))
        if t == sym:
            rows.append(((i, 1),))
            continue
        acc = {i: 1}
        j = index[t]
        acc[j] = acc.get(j, 0) + 1
        k = normalized(t, TAU)
        acc[k] = acc.get(k, 0) + 1
        rows.append(tuple(sorted(acc.items())))
    return tuple(rows)


def hecke_action_by_normalize(N: int, n: int, x: tuple[int, int]) -> dict[tuple[int, int], int]:
    """T_n(x) by Merel's translates, each normalized with :func:`p1_normalize`.

    A translate with gcd(x', y', N) != 1 is omitted, as in the engine.
    """
    acc: dict[tuple[int, int], int] = {}
    u, v = x
    for m in merel_matrices(n):
        pair = right_translate(N, u, v, ((m.a, m.b), (m.c, m.d)))
        if gcd(gcd(*pair), N) != 1:
            continue
        sym = p1_normalize(N, *pair)
        acc[sym] = acc.get(sym, 0) + 1
    return acc


class OracleField(NamedTuple):
    """F_q, q = p^n, as F_p[x] modulo ``modulus`` (coefficients little-endian, monic)."""

    p: int
    n: int
    q: int
    modulus: tuple[int, ...]


def oracle_field(pp: PrimePower) -> OracleField:
    """F_q modulo this module's own first primitive modulus x^n - r."""
    return OracleField(pp.p, pp.n, pp.q, first_primitive_modulus(pp.p, pp.n))


def field_add(F: OracleField, a: int, b: int) -> int:
    """a + b in F, digit by digit."""
    p = F.p
    out = 0
    shift = 1
    for _ in range(F.n):
        out += (a % p + b % p) % p * shift
        a //= p
        b //= p
        shift *= p
    return out


def field_neg(F: OracleField, a: int) -> int:
    """-a in F, digit by digit."""
    p = F.p
    out = 0
    shift = 1
    for _ in range(F.n):
        out += (-(a % p)) % p * shift
        a //= p
        shift *= p
    return out


def field_sub(F: OracleField, a: int, b: int) -> int:
    return field_add(F, a, field_neg(F, b))


def field_mul(F: OracleField, a: int, b: int) -> int:
    """a * b in F: the product of the two coefficient vectors, reduced mod ``F.modulus``."""
    p = F.p
    prod = poly_mulmod(digits(a, p, F.n), digits(b, p, F.n), F.modulus, p)
    return sum(c * p**i for i, c in enumerate(prod))


def field_pow(F: OracleField, a: int, e: int) -> int:
    """a^e in F (e >= 0) by square-and-multiply."""
    acc = 1
    base = a
    while e:
        if e & 1:
            acc = field_mul(F, acc, base)
        base = field_mul(F, base, base)
        e >>= 1
    return acc


def field_inv(F: OracleField, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero")
    return field_pow(F, a, F.q - 2)


def quadratic_character(F: OracleField, a: int) -> int:
    """Quadratic character of F_q by Euler's criterion: 0 at 0, +1 on nonzero squares, -1 otherwise."""
    if F.p == 2:
        raise ValueError("quadratic character needs odd characteristic")
    if a == 0:
        return 0
    c = field_pow(F, a, (F.q - 1) // 2)
    if c == 1:
        return 1
    assert c == F.p - 1, "x^((q-1)/2) must be +-1"  # -1 has index p - 1
    return -1


# ---------------------------------------------------------------------------
# dense polynomials over F_p: little-endian coefficient lists, no trailing zeros
# ---------------------------------------------------------------------------


def digits(a: int, p: int, n: int) -> list[int]:
    """The n base-p digits of a, least significant first."""
    return [a // p**i % p for i in range(n)]


def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def poly_mod(a: list[int], f, p: int) -> list[int]:
    """a mod a monic f over F_p, by long division."""
    a = [c % p for c in a]
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i]
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _ptrim(a[:df])


def poly_mulmod(a, b, f, p: int) -> list[int]:
    """a * b mod a monic f over F_p, by schoolbook multiplication."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return poly_mod(out, f, p)


def poly_powmod(a, e: int, f, p: int) -> list[int]:
    """a^e mod a monic f over F_p (e >= 0), by square-and-multiply."""
    acc = poly_mod([1], f, p)
    while e:
        if e & 1:
            acc = poly_mulmod(acc, a, f, p)
        a = poly_mulmod(a, a, f, p)
        e >>= 1
    return acc


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        inv = pow(b[-1], -1, p)
        a, b = b, poly_mod(a, [c * inv % p for c in b], p)
    return a


def rabin(f, p: int) -> bool:
    """Rabin's irreducibility test for a monic f of degree n >= 1 over F_p:
    x^(p^n) = x mod f, and gcd(f, x^(p^(n/r)) - x) = 1 for each prime r | n."""
    n = len(f) - 1
    x = poly_mod([0, 1], f, p)

    def frobenius_minus_x(k: int) -> list[int]:  # x^(p^k) - x mod f
        h = poly_powmod(x, p**k, f, p)
        width = max(len(h), len(x))
        h, x0 = h + [0] * (width - len(h)), x + [0] * (width - len(x))
        return _ptrim([(c - d) % p for c, d in zip(h, x0)])

    if frobenius_minus_x(n):
        return False
    return all(len(_poly_gcd(list(f), frobenius_minus_x(n // r), p)) == 1 for r, _ in factorize(n))


def x_has_order(f, p: int, m: int) -> bool:
    """Whether x has multiplicative order exactly m modulo the monic f over F_p."""
    x = poly_mod([0, 1], f, p)
    return poly_powmod(x, m, f, p) == [1] and all(poly_powmod(x, m // r, f, p) != [1] for r, _ in factorize(m))


def first_primitive_modulus(p: int, n: int) -> tuple[int, ...]:
    """The first f = x^n - r, r in ascending index order, that Rabin's test
    finds irreducible and modulo which x has order p^n - 1."""
    q = p**n
    for r in range(1, q):
        f = tuple(-c % p for c in digits(r, p, n)) + (1,)
        if rabin(f, p) and x_has_order(f, p, q - 1):
            return f
    raise AssertionError("a primitive polynomial of every degree exists")


def brute_force_census_by_translation(pp: PrimePower) -> BruteForceCensus:
    """Count points on every curve y^2 = x^3 + a x^2 + b x + c over F_q.

    Requires p odd and q <= 343.  Points are counted through the quadratic
    character: |E| = q + 1 + sum_x chi(f(x)).  Singular cubics
    (disc(f) = 0) are skipped.

    Every curve is counted, but most of them through their orbit under
    the translation x -> x + r (Silverman, AEC III.1), which keeps both
    the point count and the discriminant:

        (a, b, c) -> (a + 3r, b + 2ar + 3r^2, c + br + ar^2 + r^3).

    For p != 3 the action on a is free, so the slice a = 0 meets every
    orbit exactly once and each of its curves stands for q curves.  For
    p = 3 translation fixes a; when a != 0 it sends b to b + 2ar, freely,
    so the slice b = 0 meets every orbit with that a exactly once, again
    with weight q.  On the slice a = 0 translation need not act freely,
    so that slice is scanned in full with weight 1.
    The scan costs about q^3 steps (2 q^3 for p = 3) instead of q^4.
    """
    if pp.p == 2:
        raise ValueError("census requires odd characteristic")
    q = pp.q
    if q > BRUTE_FORCE_MAX_Q:
        raise ValueError(f"census guard: q = {q} exceeds {BRUTE_FORCE_MAX_Q}")
    F = oracle_field(pp)
    rng = range(q)
    add = [[field_add(F, a, b) for b in rng] for a in rng]
    mul = [[field_mul(F, a, b) for b in rng] for a in rng]
    chi = [quadratic_character(F, a) for a in rng]
    sq = [mul[x][x] for x in rng]
    cube = [mul[x][sq[x]] for x in rng]
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2,
    # evaluated in F_q via the prime-subfield constants below.
    c18 = 18 % pp.p
    cm4 = -4 % pp.p
    cm27 = -27 % pp.p
    traces: Counter = Counter()

    def scan(a: int, b_values, weight: int) -> None:
        a2 = sq[a]
        a3 = cube[a]
        mul_a = mul[a]
        for b in b_values:
            base = [add[cube[x]][add[mul_a[sq[x]]][mul[b][x]]] for x in rng]
            k_lin = add[mul[c18][mul[a][b]]][mul[cm4][a3]]  # (18ab - 4a^3)
            k_const = add[mul[a2][sq[b]]][mul[cm4][cube[b]]]  # a^2b^2 - 4b^3
            for c in rng:
                disc = add[add[mul[k_lin][c]][k_const]][mul[cm27][sq[c]]]
                if disc == 0:
                    continue
                add_c = add[c]
                s = sum(chi[add_c[v]] for v in base)
                traces[-s] += weight

    if pp.p != 3:
        scan(0, rng, q)
    else:
        scan(0, rng, 1)
        for a in range(1, q):
            scan(a, (0,), q)
    return BruteForceCensus(q=q, trace_counts=dict(traces))


def brute_force_census_by_slices(pp: PrimePower) -> BruteForceCensus:
    """The census over the orbit slices, curve by curve.

    The same slices, weights and packed character rows as
    :func:`torsion_gate.redux.brute_force_census`, on the same field
    tables, but each x and each c is handled by its own Python step: a
    product is a call of ``mul``, the discriminant of every c is
    evaluated, and each nonsingular curve adds its weight to its trace
    alone.  The scan costs at most 5 q^2 steps (7 q^2 for p = 3).
    """
    q = pp.q
    _check_census_q(q)
    add, exp, log = field_make(pp)
    rng = range(q)
    m = q - 1

    def mul(a: int, b: int) -> int:
        return exp[(log[a] + log[b]) % m] if a and b else 0

    # packed[w] holds 1 + chi(w + c) in its 16-bit digit c.  With P = q/p, adding P hi
    # adds hi to the top digit alone, so row lo + P hi is row lo, written twice, from
    # place P hi.
    one_chi = [1] + [1 + (-1) ** log[x] for x in range(1, q)]
    P = q // pp.p
    twice = [struct.pack(f"<{2 * q}H", *map(one_chi.__getitem__, add[lo] * 2)) for lo in range(P)]
    packed = [int.from_bytes(row[2 * P * hi : 2 * (P * hi + q)], "little") for hi in range(pp.p) for row in twice]
    unpack = struct.Struct(f"<{q}H").unpack
    sq = [mul(x, x) for x in rng]
    cube = [mul(x, sq[x]) for x in rng]
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2,
    # evaluated in F_q via the prime-subfield constants below.
    c18 = 18 % pp.p
    cm4 = -4 % pp.p
    cm27 = -27 % pp.p
    traces: Counter = Counter()

    def scan(a: int, b: int, weight: int) -> None:
        total = sum([packed[add[cube[x]][add[mul(a, sq[x])][mul(b, x)]]] for x in rng])
        digits = unpack(total.to_bytes(2 * q, "little"))  # q + sum over x of chi(c + v(x))
        k_lin = add[mul(c18, mul(a, b))][mul(cm4, cube[a])]  # (18ab - 4a^3)
        k_const = add[mul(sq[a], sq[b])][mul(cm4, cube[b])]  # a^2b^2 - 4b^3
        for c in rng:
            disc = add[add[mul(k_lin, c)][k_const]][mul(cm27, sq[c])]
            if disc == 0:
                continue
            traces[q - digits[c]] += weight

    e4 = gcd(4, m)
    a0_weight = q if pp.p != 3 else 1
    scan(0, 0, a0_weight)
    for i in range(e4):
        scan(0, exp[i], a0_weight * m // e4)
    if pp.p == 3:
        for i in range(2):
            scan(exp[i], 0, q * m // 2)
    return BruteForceCensus(q=q, trace_counts=dict(traces))


def brute_force_census_full(pp: PrimePower) -> BruteForceCensus:
    """Point counts of all q^4 curves y^2 = x^3 + a x^2 + b x + c over F_q (p odd).

    Each nonsingular cubic is counted once, through the quadratic
    character: |E| = q + 1 + sum_x chi(f(x)).
    """
    q = pp.q
    F = oracle_field(pp)
    rng = range(q)
    add = [[field_add(F, a, b) for b in rng] for a in rng]
    mul = [[field_mul(F, a, b) for b in rng] for a in rng]
    chi = [quadratic_character(F, a) for a in rng]
    sq = [mul[x][x] for x in rng]
    cube = [mul[x][sq[x]] for x in rng]
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2
    c18 = 18 % pp.p
    cm4 = -4 % pp.p
    cm27 = -27 % pp.p
    traces: Counter = Counter()
    for a in rng:
        a2 = sq[a]
        a3 = cube[a]
        mul_a = mul[a]
        for b in rng:
            base = [add[cube[x]][add[mul_a[sq[x]]][mul[b][x]]] for x in rng]
            k_lin = add[mul[c18][mul[a][b]]][mul[cm4][a3]]
            k_const = add[mul[a2][sq[b]]][mul[cm4][cube[b]]]
            for c in rng:
                disc = add[add[mul[k_lin][c]][k_const]][mul[cm27][sq[c]]]
                if disc == 0:
                    continue
                add_c = add[c]
                s = sum(chi[add_c[v]] for v in base)
                traces[-s] += 1
    return BruteForceCensus(q=q, trace_counts=dict(traces))


def genus_x1(N: int) -> int:
    """Genus of X_1(N) for N >= 5, in exact rationals:

        g = 1 + (N^2 / 24) prod_{l | N} (1 - 1/l^2) - (1/4) sum_{e | N} phi(e) phi(N/e).
    """
    if N < 5:
        raise ValueError("the formula holds for N >= 5")

    def phi(n: int) -> int:
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    area = Fraction(N * N, 24)
    for ell, _ in factorize(N):
        area *= 1 - Fraction(1, ell * ell)
    g = 1 + area - Fraction(sum(phi(e) * phi(N // e) for e in divisors(N)), 4)
    assert g.denominator == 1, (N, g)
    return int(g)


class _ArgparseParser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def argparse_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser as argparse built it, with the same dests, defaults and exit codes."""
    parser = _ArgparseParser(prog="torsion-gate")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_ArgparseParser)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p-max", type=int, default=97)

    p = sub.add_parser("homology", parents=[common])
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("hecke", parents=[common])
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("census", parents=[common])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--N", type=int, default=None)

    p = sub.add_parser("reproduce", parents=[common])
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p-max", type=int, default=97)

    return parser
