"""Slow reference implementations the engine's fast paths are tested against.

These were the engine's production paths before the sparse echelon and
the orbit enumeration of P^1 replaced them: dense fraction-free (Bareiss)
elimination over Q, dense Gaussian elimination mod p, and the P^1
enumeration that normalizes every pair (g, v) with g | N.  They share no
elimination or enumeration code with :mod:`torsion_gate.maninspace`.
"""

from __future__ import annotations

from typing import Iterable

from torsion_gate.exactmath import divisors, gcd
from torsion_gate.maninspace import FreeVector, ManinSymbol, SymbolSpace, p1_normalize


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
