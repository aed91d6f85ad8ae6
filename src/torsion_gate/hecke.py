"""Hecke operators T_n on Manin symbols via Merel's matrix-sum formula.

T_n sends a symbol (x,y) to the sum of the right translates
(x,y).[[a,b],[c,d]] over all integer matrices with

    a > b >= 0,   d > c >= 0,   ad - bc = n,

omitting any translate whose reduction mod N fails gcd(x',y',N) = 1
(Merel, "Universal Fourier expansions of modular forms", Prop. 20).
Each kept translate is classified by :meth:`SymbolSpace.index`, which
folds the closed-form local columns that sigma and tau are built from at
each prime power q || N, so the engine has one P^1 classifier, and
T_n(x) comes out as a column row: a dict from a column (in the space's
mixed-radix order, not the order of the symbols) to the number of
translates in that class; :meth:`SymbolSpace.symbol` names a column.
The distinguished symbol (0,1) is the class of the modular symbol
{0, oo}; the rows T_1(0,1), ..., T_{2d}(0,1) feed the Kamienny-style
independence test, which the gate runs through
:func:`~torsion_gate.maninspace.quotient_rank_mod_p`.  Only the rank mod
p of these rows is engine code; their rank over Q is test-only.
"""

from collections import Counter, namedtuple
from functools import lru_cache

from .exactmath import gcd
from .maninspace import SymbolSpace

__all__ = [
    "MerelMatrix",
    "criterion_vectors",
    "generic_winding_expansion",
    "hecke_action",
    "merel_matrices",
    "winding_symbol",
]


class MerelMatrix(namedtuple("MerelMatrix", "a b c d")):
    __slots__ = ()

    @property
    def det(self) -> int:
        return self.a * self.d - self.b * self.c


@lru_cache(maxsize=None)
def merel_matrices(n: int) -> tuple[MerelMatrix, ...]:
    """All matrices with a > b >= 0, d > c >= 0, ad - bc = n, sorted.

    Enumeration: for each (a, d) with ad >= n, let r = ad - n and emit
    every (b, c) with 0 <= b < a, 0 <= c < d, bc = r.  Any solution with
    r > 0 forces a + d <= n + 1, and r = 0 forces ad = n, so a, d <= n.
    """
    if n < 1:
        raise ValueError("Hecke index must be positive")
    out = []
    for a in range(1, n + 1):
        for d in range(max(1, -(-n // a)), n + 1):
            r = a * d - n
            if r == 0:
                out.extend(MerelMatrix(a, 0, c, d) for c in range(d))
                out.extend(MerelMatrix(a, b, 0, d) for b in range(1, a))
            else:
                for b in range(1, a):
                    if r % b == 0 and r // b < d:
                        out.append(MerelMatrix(a, b, r // b, d))
    out.sort()
    for m in out:
        assert m.a > m.b >= 0 and m.d > m.c >= 0 and m.det == n
    return tuple(out)


def winding_symbol(N: int) -> tuple[int, int]:
    """The Manin symbol (u, v) of the modular symbol {0, oo} at level N: (0, 1), or (0, 0) at N = 1."""
    return 0, 1 % N


def _kept_translates(N: int, n: int, u: int, v: int):
    """The right translates (u,v).m mod N over ``merel_matrices(n)``, in order,
    less those the omission rule drops: a translate with gcd(u', v', N) != 1
    lies outside P^1(Z/NZ)."""
    for m in merel_matrices(n):
        up = (u * m.a + v * m.c) % N
        vp = (u * m.b + v * m.d) % N
        if gcd(gcd(up, vp), N) == 1:
            yield up, vp


def _check_canonical(space: SymbolSpace, x: tuple[int, int]) -> None:
    """ValueError unless x is a point of P^1(Z/NZ) and the canonical symbol of its class."""
    N = space.N
    u, v = x
    if not (gcd(gcd(u, v), N) == 1 and space.symbol(space.index(u, v)) == x):
        raise ValueError(f"({u},{v}) is not a canonical symbol at level {N}")


def _hecke_row(space: SymbolSpace, n: int, x: tuple[int, int]) -> dict[int, int]:
    """T_n(x) as a column row, for a symbol x already checked canonical."""
    acc: dict[int, int] = {}  # a dict, not a Counter: building one costs more than these few terms
    u, v = x
    for up, vp in _kept_translates(space.N, n, u, v):
        col = space.index(up, vp)
        acc[col] = acc.get(col, 0) + 1
    return acc


def hecke_action(space: SymbolSpace, n: int, x: tuple[int, int]) -> dict[int, int]:
    """T_n applied to one canonical symbol, as a column row of ``space``."""
    _check_canonical(space, x)
    return _hecke_row(space, n, x)


def generic_winding_expansion(N: int, n: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """T_n(0,1) as raw translates mod N: ((x', y'), coefficient) pairs.

    No P^1 canonicalization is applied, only reduction mod N and the
    omission rule, so for small n this reproduces the level-independent
    displayed expansions.  Sorted by raw pair.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return tuple(sorted(Counter(_kept_translates(N, n, 0, 1)).items()))


def criterion_vectors(space: SymbolSpace, d: int) -> list[dict[int, int]]:
    """The 2d column rows T_1(0,1), ..., T_{2d}(0,1) at the space's level, the symbol checked once."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    e = winding_symbol(space.N)
    _check_canonical(space, e)
    return [_hecke_row(space, i, e) for i in range(1, 2 * d + 1)]

