"""Exact integer and small-finite-field arithmetic.

Everything in this package is integer-exact: Python's arbitrary-precision
ints everywhere, no floating point.  ``isqrt`` (re-exported from ``math``)
is the only square-root primitive; inequality gates involving square roots
are decided by squaring, never by ``float``.

Finite fields F_{p^n} are realized in a polynomial basis over an
irreducibility-checked modulus; elements are packed base-p digit strings,
i.e. integer indices in ``range(q)``.  Bulk arithmetic goes through the
tables of ``FiniteField.tables``: the q x q addition table, built digit
by digit from the addition table of F_p, and the discrete-logarithm
tables, whose walk over the powers of a generator g is one lookup per
power in the table of the F_p-linear map a -> g a.
"""

from __future__ import annotations

from math import gcd, isqrt  # noqa: F401  re-exported: isqrt is exact for ints
from typing import NamedTuple

__all__ = [
    "Factorization",
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


class Factorization:
    """Ordered prime factorization: ((q_1, e_1), ..., (q_n, e_n)), q_j increasing.

    Immutable; equal and hashed by its factors.  Not a tuple, since it
    iterates over and counts its factors.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[int, int], ...]) -> None:
        primes = [q for q, _ in factors]
        if primes != sorted(primes) or len(set(primes)) != len(primes):
            raise ValueError("factors must be strictly increasing primes")
        if any(e < 1 for _, e in factors) or not all(is_prime(q) for q in primes):
            raise ValueError("invalid factorization")
        object.__setattr__(self, "factors", factors)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factors == other.factors

    def __hash__(self) -> int:
        return hash(self.factors)

    def __repr__(self) -> str:
        return f"Factorization(factors={self.factors!r})"

    def __iter__(self):
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.factors)

    @property
    def prime_powers(self) -> tuple[int, ...]:
        """The maximal prime-power divisors q_j^{e_j}."""
        return tuple(q**e for q, e in self.factors)

    @property
    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factorize(n: int) -> Factorization:
    """Trial-division factorization; factorize(1) is the empty product."""
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
    return Factorization(tuple(out))


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


# ---------------------------------------------------------------------------
# dense polynomial arithmetic over F_p (little-endian coefficient tuples)
# ---------------------------------------------------------------------------


def _ptrim(a: tuple[int, ...]) -> tuple[int, ...]:
    k = len(a)
    while k > 0 and a[k - 1] == 0:
        k -= 1
    return a[:k]


def _pmul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _ptrim(tuple(out))


def _pmod(a: tuple[int, ...], f: tuple[int, ...], p: int) -> tuple[int, ...]:
    # f must be monic
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % p
        if c:
            for j in range(df + 1):
                a[i - df + j] = (a[i - df + j] - c * f[j]) % p
    return _ptrim(tuple(a))


def _pgcd(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    while b:
        inv = pow(b[-1], -1, p)
        bm = tuple(c * inv % p for c in b)  # make monic so _pmod applies
        a, b = b, _pmod(a, bm, p)
    return a


def _ppow_xq(f: tuple[int, ...], p: int, k: int) -> tuple[int, ...]:
    """x^(p^k) mod f, by k successive p-th powers."""
    t = _pmod((0, 1), f, p)
    for _ in range(k):
        acc: tuple[int, ...] = (1,)
        base = t
        e = p
        while e:
            if e & 1:
                acc = _pmod(_pmul(acc, base, p), f, p)
            base = _pmod(_pmul(base, base, p), f, p)
            e >>= 1
        t = acc
    return t


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial over F_p.

    A polynomial of degree >= 2 with a root in F_p has a linear factor,
    so it is rejected at once; Rabin's test decides every other one.
    """
    n = len(f) - 1
    if n < 1:
        return False
    if n >= 2 and any(_peval(f, r, p) == 0 for r in range(p)):
        return False
    return _rabin(f, p)


def _peval(f: tuple[int, ...], r: int, p: int) -> int:
    """f(r) mod p, by Horner's rule."""
    out = 0
    for c in reversed(f):
        out = (out * r + c) % p
    return out


def _rabin(f: tuple[int, ...], p: int) -> bool:
    """Rabin's irreducibility test for a monic f of degree n >= 1 over F_p."""
    n = len(f) - 1
    x = _pmod((0, 1), f, p)
    if _ptrim(tuple((a - b) % p for a, b in _zip_pad(_ppow_xq(f, p, n), x))):
        return False
    for r in factorize(n).primes:
        h = tuple((a - b) % p for a, b in _zip_pad(_ppow_xq(f, p, n // r), x))
        if len(_pgcd(f, _ptrim(h), p)) > 1:
            return False
    return True


def _zip_pad(a: tuple[int, ...], b: tuple[int, ...]):
    m = max(len(a), len(b))
    return zip(a + (0,) * (m - len(a)), b + (0,) * (m - len(b)))


# Fixed default moduli keep brute-force outputs bit-reproducible.
_DEFAULT_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (3, 2): (1, 0, 1),  # x^2 + 1      (-1 is a nonsquare mod 3)
    (3, 3): (2, 2, 0, 1),  # x^3 - x - 1  (no roots in F_3)
}


def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    pinned = _DEFAULT_MODULI.get((p, n))
    if pinned is not None:
        return pinned
    # first monic irreducible in lexicographic coefficient order
    def _next(c: list[int]) -> bool:
        for i in range(len(c) - 1, -1, -1):
            c[i] += 1
            if c[i] < p:
                return True
            c[i] = 0
        return False

    c = [0] * n
    while True:
        f = tuple(c) + (1,)
        if _is_irreducible(f, p):
            return f
        if not _next(c):
            raise RuntimeError("no irreducible modulus found")  # unreachable


class FiniteField:
    """F_{p^n} in the polynomial basis F_p[x]/(modulus).

    Elements are integer indices 0..q-1: index sum(c_i * p^i) stands for
    the coset c_0 + c_1*x + ... + c_{n-1}*x^{n-1}.  Prime-subfield
    constants therefore embed as themselves.  Instances are immutable.
    """

    def __init__(self, pp: PrimePower, modulus: tuple[int, ...] | None = None):
        p, n = pp.p, pp.n
        if p == 2 and n > 1:
            raise ValueError("characteristic-2 extensions are not supported")
        if modulus is None:
            modulus = _default_modulus(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[n] != 1:
            raise ValueError(f"modulus must be monic of degree {n}")
        if n >= 1 and not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.prime_power = pp
        self.p = p
        self.n = n
        self.q = pp.q
        self.modulus = modulus

    # --- element codec ---

    def coeffs(self, a: int) -> tuple[int, ...]:
        p = self.p
        out = []
        for _ in range(self.n):
            a, r = divmod(a, p)
            out.append(r)
        return tuple(out)

    def from_coeffs(self, coeffs) -> int:
        p = self.p
        cs = [c % p for c in coeffs]
        if len(cs) > self.n:
            cs = list(_pmod(tuple(cs), self.modulus, p))
        out = 0
        for c in reversed(cs):
            out = out * p + c
        return out

    # --- arithmetic ---

    def mul(self, a: int, b: int) -> int:
        prod = _pmod(_pmul(self.coeffs(a), self.coeffs(b), self.p), self.modulus, self.p)
        return self.from_coeffs(prod)

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

        ``add`` is :meth:`add_table`.  g is the least element whose powers
        reach all q - 1 units; ``exp[k] = g^k`` for 0 <= k < q - 1 and
        ``log[exp[k]] = k``; ``log[0]`` is None.  Then a*b =
        exp[(log a + log b) % (q - 1)] for nonzero a, b.

        Multiplication by a candidate g is F_p-linear, so its table over
        all of F_q is built digit by digit, like the addition table, from
        the images g x^i (n - 1 calls to :meth:`mul`) and their multiples
        by 0..p-1 (lookups in ``add``).  Each power of g is then one
        lookup.  A candidate is skipped when it is a power of one already
        rejected, since its powers generate no more.
        """
        add = self.add_table()
        p, q, m = self.p, self.q, self.q - 1
        non_generators = bytearray(q)
        for g in range(1, q):
            if non_generators[g]:
                continue
            image = g
            times_g = [0]  # times_g[a] = g a, for a < p^i
            for i in range(self.n):
                if i:
                    image = self.mul(image, p)  # g x^i = (g x^(i-1)) x, and x has index p
                multiples = [0]
                for _ in range(1, p):
                    multiples.append(add[multiples[-1]][image])
                times_g = [add[t][s] for t in multiples for s in times_g]
            exp = [1]
            x = g
            for _ in range(m):  # in a field the order of g divides m
                if x == 1:
                    break
                exp.append(x)
                x = times_g[x]
            else:
                raise RuntimeError(f"the powers of {g} never return to 1: {self.modulus} is reducible")
            if len(exp) == m:
                break
            for x in exp:
                non_generators[x] = 1
        else:
            raise RuntimeError(f"no generator of the units: {self.modulus} is reducible")
        log: list[int | None] = [None] * q
        for k, x in enumerate(exp):
            log[x] = k
        return add, exp, log


def field_make(pp: PrimePower, modulus: tuple[int, ...] | None = None) -> FiniteField:
    """Construct F_q for q = p^n, verifying the modulus is irreducible."""
    return FiniteField(pp, modulus)
