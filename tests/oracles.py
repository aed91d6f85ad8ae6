"""Slow reference implementations the engine's fast paths are tested against.

These were the engine's production paths before the sparse echelon, the
orbit enumeration of P^1 and the census by translation orbits replaced
them: dense fraction-free (Bareiss) elimination over Q, dense Gaussian
elimination mod p, the P^1 enumeration that normalizes every pair (g, v)
with g | N, and the census that scans every coefficient triple (a, b, c).
They share no elimination or enumeration code with
:mod:`torsion_gate.maninspace` and no scan code with
:mod:`torsion_gate.redux`.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from torsion_gate.exactmath import PrimePower, divisors, field_make, gcd
from torsion_gate.maninspace import FreeVector, ManinSymbol, SymbolSpace, p1_normalize
from torsion_gate.redux import BruteForceCensus


def dense_rows(space: SymbolSpace, extra: Iterable[FreeVector] = ()) -> list[list[int]]:
    """The distinct relation rows of ``space``, then ``extra``, as dense integer rows."""
    out = []
    for row in dict.fromkeys(space.relation_rows):
        dense = [0] * space.psi
        for col, c in row:
            dense[col] = c
        out.append(dense)
    for vec in extra:
        dense = [0] * space.psi
        for sym, c in vec:
            dense[space.gen_index[sym]] = c
        out.append(dense)
    return out


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


def p1_list_by_normalize(N: int) -> tuple[ManinSymbol, ...]:
    """All canonical representatives of P^1(Z/NZ), by normalizing every (g, v), g | N."""
    if N == 1:
        return (ManinSymbol(0, 0),)
    seen = set()
    for g in divisors(N):
        u = g % N
        for v in range(N):
            if gcd(gcd(u, v), N) == 1:
                seen.add(p1_normalize(N, u, v))
    return tuple(sorted(seen))


def brute_force_census_full(pp: PrimePower) -> BruteForceCensus:
    """Point counts of all q^4 curves y^2 = x^3 + a x^2 + b x + c over F_q (p odd).

    Each nonsingular cubic is counted once, through the quadratic
    character: |E| = q + 1 + sum_x chi(f(x)).
    """
    q = pp.q
    F = field_make(pp)
    rng = range(q)
    add = [[F.add(a, b) for b in rng] for a in rng]
    mul = [[F.mul(a, b) for b in rng] for a in rng]
    chi = [F.quadratic_character(a) for a in rng]
    sq = [mul[x][x] for x in rng]
    cube = [mul[x][sq[x]] for x in rng]
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2
    c18 = 18 % pp.p
    cm4 = -4 % pp.p
    cm27 = -27 % pp.p
    traces: Counter = Counter()
    orders: set[int] = set()
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
                orders.add(q + 1 + s)
                traces[-s] += 1
    return BruteForceCensus(q=q, trace_counts=dict(traces), orders=frozenset(orders))
