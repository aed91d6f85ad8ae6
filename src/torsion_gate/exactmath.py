"""Exact integer and small-finite-field arithmetic.

Everything in this package is integer-exact: Python's arbitrary-precision
ints everywhere, no floating point.  ``isqrt`` (re-exported from ``math``)
is the only square-root primitive; inequality gates involving square roots
are decided by squaring, never by ``float``.

Finite fields F_{p^n} are realized in a polynomial basis modulo a
primitive polynomial x^n - r, so that x generates the units; elements are
packed base-p digit strings, i.e. integer indices in ``range(q)``.  All
arithmetic goes through the tables of ``FiniteField.tables``: the q x q
addition table, built digit by digit from the addition table of F_p, and
the discrete-logarithm tables, read off the walk over the powers of x
that found the modulus.  Each step of that walk is one lookup in the
addition table.
"""

from __future__ import annotations

from math import gcd, isqrt  # noqa: F401  re-exported: isqrt is exact for ints
from typing import NamedTuple

__all__ = [
    "FiniteField",
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


class _PrimePowerFields(NamedTuple):
    p: int
    n: int


class PrimePower(_PrimePowerFields):
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


class FiniteField:
    """F_{p^n} in the polynomial basis F_p[x]/(modulus), with x a generator of the units.

    Elements are integer indices 0..q-1: index sum(c_i * p^i) stands for
    the coset c_0 + c_1*x + ... + c_{n-1}*x^{n-1}.  Prime-subfield
    constants therefore embed as themselves.  The modulus is the first
    primitive f = x^n - r, with r taken in ascending index order (for
    n = 1, x = r is the least primitive root mod p).  Building the field
    walks the powers of x, which is at once the proof that f is
    irreducible and the discrete-logarithm table; see :meth:`tables`.
    Construction builds the q x q addition table, so it costs O(q^2).
    Instances and the tables they hand out are not to be modified.
    """

    def __init__(self, pp: PrimePower):
        p, n = pp.p, pp.n
        if p == 2 and n > 1:
            raise ValueError("characteristic-2 extensions are not supported")
        self.prime_power = pp
        self.p = p
        self.n = n
        self.q = pp.q
        self._add = self.add_table()
        r, self._exp = self._primitive_walk()
        # the coefficients of x^n - r, the ith that of x^i: minus the ith digit of r
        self.modulus = tuple(-(r // p**i) % p for i in range(n)) + (1,)

    def _primitive_walk(self) -> tuple[int, list[int]]:
        """The least r whose x generates the units of F_p[x]/(x^n - r), and x's powers.

        Modulo f = x^n - r, x (lo + P top) = p lo + top r for lo < P = q/p:
        one lookup in ``add``, given the multiples 0, r, ..., (p-1) r.  A
        candidate with p | r is skipped, since x then divides f (for
        n = 1, x = r = 0).  Otherwise x is a unit of the ring
        F_p[x]/(f), whose powers return to 1 within q - 1 steps; if they
        reach q - 1 distinct elements first, every nonzero class is a
        unit, so the ring is a field and x generates its units.
        """
        add, p, q = self._add, self.p, self.q
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
                return r, exp
        raise AssertionError("a primitive polynomial of every degree exists")

    def add_table(self) -> list[list[int]]:
        """The q x q addition table: ``add_table()[a][b] = a + b``.

        Addition acts on each base-p digit alone, so the table is built
        one digit at a time.  Given the table ``rows`` of the P = p^k
        elements with k digits, the element a = a_lo + P a_hi with k + 1
        digits has a + b = (a_lo + b_lo) + P ((a_hi + b_hi) mod p).  With
        a_hi = 0 that is the row ``cat[a_lo]``, made of p blocks
        ``rows[a_lo] + P t``, t = 0..p-1.  Adding a_hi rotates the blocks
        by a_hi places, so the row of a is a slice of ``cat[a_lo]``
        written twice.
        """
        p = self.p
        rows = [[0]]
        size = 1  # P = p^k
        for _ in range(self.n):
            width = size * p
            cat = [[s + size * t for t in range(p) for s in lo] * 2 for lo in rows]
            rows = [cat[lo][size * hi : size * hi + width] for hi in range(p) for lo in range(size)]
            size = width
        return rows

    def tables(self) -> tuple[list[list[int]], list[int], list[int | None]]:
        """The addition table and the discrete-logarithm tables ``(add, exp, log)``.

        ``add`` is :meth:`add_table`.  ``exp[k] = x^k`` for 0 <= k < q - 1,
        the walk that found the modulus, and ``log[exp[k]] = k``; ``log[0]``
        is None.  Then a*b = exp[(log a + log b) % (q - 1)] for nonzero
        a, b.  ``add`` and ``exp`` are the field's own lists.
        """
        log: list[int | None] = [None] * self.q
        for k, a in enumerate(self._exp):
            log[a] = k
        return self._add, self._exp, log


def field_make(pp: PrimePower) -> FiniteField:
    """Construct F_q for q = p^n, with a primitive modulus x^n - r."""
    return FiniteField(pp)
