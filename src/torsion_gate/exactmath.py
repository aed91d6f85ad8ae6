"""Exact integer and small-finite-field arithmetic.

Everything in this package is integer-exact: Python's arbitrary-precision
ints everywhere, no floating point.  ``isqrt`` (re-exported from ``math``)
is the only square-root primitive; inequality gates involving square roots
are decided by squaring, never by ``float``.

Finite fields F_{p^n} are realized in a polynomial basis modulo a
primitive polynomial x^n - r, so that x generates the units; elements are
packed base-p digit strings, i.e. integer indices in ``range(q)``.  A
field is its three tables, the tuple ``(add, exp, log)`` that
``field_make`` returns: the q x q addition table, built digit by digit
from the addition table of F_p, and the discrete-logarithm tables, read
off the walk over the powers of x that found the modulus.  Each step of
that walk is one lookup in the addition table.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt  # noqa: F401  re-exported: isqrt is exact for ints

__all__ = [
    "PrimePower",
    "divisors",
    "euler_phi",
    "factorize",
    "field_make",
    "gcd",
    "is_prime",
    "isqrt",
]


def is_prime(n: int) -> bool:
    """Trial-division primality test (all inputs in this package are small)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _check_odd_prime(p: int) -> None:
    if p == 2 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Trial-division factorization: the pairs (q_j, e_j), q_j increasing; factorize(1) is ()."""
    if n < 1:
        raise ValueError(f"cannot factor {n}: need a positive integer")
    out = []
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            e = 0
            while m % f == 0:
                m //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n."""
    out = [1]
    for q, e in factorize(n):
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def euler_phi(n: int) -> int:
    out = n
    for q, _ in factorize(n):
        out = out // q * (q - 1)
    return out


class PrimePower(namedtuple("PrimePower", "p n")):
    """q = p^n with p prime (checked) and n >= 1."""

    __slots__ = ()

    def __new__(cls, p: int, n: int) -> PrimePower:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if n < 1:
            raise ValueError("exponent must be >= 1")
        return super().__new__(cls, p, n)

    @property
    def q(self) -> int:
        return self.p**self.n

    def __str__(self) -> str:
        return str(self.q) if self.n == 1 else f"{self.p}^{self.n}"


def _add_table(p: int, n: int) -> list[list[int]]:
    """The p^n x p^n addition table of F_{p^n}, built one base-p digit at a time.

    Addition acts on each digit alone.  Given the table ``rows`` of the
    P = p^k elements with k digits, the element a = a_lo + P a_hi with
    k + 1 digits has a + b = (a_lo + b_lo) + P ((a_hi + b_hi) mod p).
    With a_hi = 0 that is the row ``cat[a_lo]``, made of p blocks
    ``rows[a_lo] + P t``, t = 0..p-1.  Adding a_hi rotates the blocks by
    a_hi places, so the row of a is a slice of ``cat[a_lo]`` written twice.
    """
    rows = [[0]]
    size = 1  # P = p^k
    for _ in range(n):
        width = size * p
        cat = [[s + size * t for t in range(p) for s in lo] * 2 for lo in rows]
        rows = [cat[lo][size * hi : size * hi + width] for hi in range(p) for lo in range(size)]
        size = width
    return rows


def field_make(pp: PrimePower) -> tuple[list[list[int]], list[int], list[int | None]]:
    """F_q for q = p^n as its tables ``(add, exp, log)``, in a polynomial basis.

    Elements are integer indices 0..q-1: index sum(c_i * p^i) stands for
    the coset c_0 + c_1*x + ... + c_{n-1}*x^{n-1} of F_p[x]/(f), so
    prime-subfield constants embed as themselves.  ``add[a][b] = a + b``;
    ``exp[k] = x^k`` for 0 <= k < q - 1, and ``log[exp[k]] = k``, with
    ``log[0]`` None.  Then a*b = exp[(log a + log b) % (q - 1)] for nonzero
    a, b.  The modulus f = x^n - r is the first with r in ascending index
    order modulo which x generates the units (for n = 1, x = r is the
    least primitive root mod p).  Since x^n = r, f is x^n - exp[n] when
    q > 2.  Building ``add`` costs O(q^2).  The tables are not to be
    modified.

    The walk over the powers of x that finds r is at once the proof that
    f is irreducible and the table ``exp``.  Modulo f, x (lo + P top) =
    p lo + top r for lo < P = q/p: one lookup in ``add``, given the
    multiples 0, r, ..., (p-1) r.  A candidate with p | r is skipped,
    since x then divides f (for n = 1, x = r = 0).  Otherwise x is a unit
    of the ring F_p[x]/(f), whose powers return to 1 within q - 1 steps;
    if they reach q - 1 distinct elements first, every nonzero class is a
    unit, so the ring is a field and x generates its units.
    """
    p, n, q = pp.p, pp.n, pp.q
    if p == 2 and n > 1:
        raise ValueError("characteristic-2 extensions are not supported")
    add = _add_table(p, n)
    P = q // p
    shifted = [add[p * lo] for lo in range(P)]  # shifted[lo][s] = x lo + s
    for r in range(1, q):
        if r % p == 0:
            continue
        times_r = [0]
        for _ in range(1, p):
            times_r.append(add[times_r[-1]][r])
        exp = [1]
        a = 1
        for _ in range(q - 2):
            top, lo = divmod(a, P)
            a = shifted[lo][times_r[top]]
            if a == 1:
                break
            exp.append(a)
        else:
            log: list[int | None] = [None] * q
            for k, u in enumerate(exp):
                log[u] = k
            return add, exp, log
    raise AssertionError("a primitive polynomial of every degree exists")
