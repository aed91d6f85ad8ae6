from __future__ import annotations

import math
import random
from itertools import product

import pytest

from torsion_gate.exactmath import (
    PrimePower,
    divisors,
    euler_phi,
    factorize,
    field_make,
    is_prime,
    isqrt,
)

from oracles import (
    field_add,
    field_inv,
    field_mul,
    field_sub,
    first_primitive_modulus,
    oracle_field,
    quadratic_character,
    rabin,
    x_has_order,
)


def test_factorize_examples():
    assert factorize(169) == ((13, 2),)
    assert factorize(143) == ((11, 1), (13, 1))
    assert factorize(1) == ()
    assert factorize(40) == ((2, 3), (5, 1))


def test_factorize_reconstructs_and_is_prime():
    for n in range(1, 2000):
        fac = factorize(n)
        primes = [q for q, _ in fac]
        assert math.prod(q**e for q, e in fac) == n
        assert all(is_prime(q) for q in primes) and all(e >= 1 for _, e in fac)
        assert primes == sorted(set(primes))


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_isqrt_examples():
    assert isqrt(27) == 5
    assert isqrt(0) == 0
    assert isqrt(125) == 11


def test_isqrt_contract():
    # exhaustive on a small range, then square boundaries and a seeded sample
    values = list(range(0, 3000))
    values += [k * k + e for k in range(1, 1000) for e in (-1, 0, 1) if k * k + e >= 0]
    rng = random.Random(20260810)
    values += [rng.randrange(10**6) for _ in range(2000)]
    for n in values:
        s = isqrt(n)
        assert s * s <= n < (s + 1) * (s + 1)


def test_divisors_and_phi():
    assert divisors(40) == [1, 2, 4, 5, 8, 10, 20, 40]
    assert divisors(1) == [1]
    assert euler_phi(1) == 1
    for n in range(1, 200):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if _gcd(k, n) == 1)


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_prime_power_validation():
    assert PrimePower(3, 3).q == 27
    assert PrimePower(13, 2).q == 169
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(3, 0)


def test_prime_field_character_is_legendre():
    f3 = oracle_field(PrimePower(3, 1))
    assert [quadratic_character(f3, a) for a in range(3)] == [0, 1, -1]
    f7 = oracle_field(PrimePower(7, 1))
    squares = {a * a % 7 for a in range(1, 7)}
    for a in range(7):
        want = 0 if a == 0 else (1 if a in squares else -1)
        assert quadratic_character(f7, a) == want


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3)])
def test_field_axioms_exhaustive(p, n):
    f = oracle_field(PrimePower(p, n))
    q = f.q
    for a in range(1, q):
        assert field_mul(f, a, field_inv(f, a)) == 1
    # quadratic character splits the nonzero elements evenly
    chars = [quadratic_character(f, a) for a in range(q)]
    assert chars.count(0) == 1
    assert chars.count(1) == (q - 1) // 2
    assert chars.count(-1) == (q - 1) // 2


def test_field_arithmetic_spot_checks():
    f = oracle_field(PrimePower(3, 3))
    for a in (0, 1, 5, 13, 26):
        for b in (0, 2, 7, 19):
            assert field_add(f, a, b) == field_add(f, b, a)
            assert field_mul(f, a, b) == field_mul(f, b, a)
            assert field_sub(f, field_add(f, a, b), b) == a
    # distributivity sample
    for a, b, c in [(4, 9, 22), (1, 2, 3), (25, 13, 7)]:
        assert field_mul(f, a, field_add(f, b, c)) == field_add(f, field_mul(f, a, b), field_mul(f, a, c))


ODD_PRIME_POWERS_TO_343 = [(p, n) for p in range(3, 344, 2) if is_prime(p) for n in range(1, 6) if p**n <= 343]


def _mobius(n: int) -> int:
    fac = factorize(n)
    return (-1) ** len(fac) if all(e == 1 for _, e in fac) else 0


@pytest.mark.parametrize("p,n", ODD_PRIME_POWERS_TO_343)
def test_irreducible_count_is_gauss(p, n):
    # the monic irreducibles of degree n over F_p number (1/n) sum_{d | n} mu(d) p^(n/d)
    accepted = sum(rabin(digits + (1,), p) for digits in product(range(p), repeat=n))
    assert n * accepted == sum(_mobius(d) * p ** (n // d) for d in divisors(n))


@pytest.mark.parametrize("p,n", ODD_PRIME_POWERS_TO_343)
def test_default_modulus_matches_rabin_search(p, n):
    # the modulus is x^n - r for the least r that gives an irreducible f (by Rabin's
    # test) modulo which x has order q - 1: every smaller candidate is not primitive.
    # The engine's modulus is x^n - exp[n], since x^n = r.
    _, exp, _ = field_make(PrimePower(p, n))
    f = first_primitive_modulus(p, n)
    assert exp[n] == sum(-c % p * p**i for i, c in enumerate(f[:n]))
    assert rabin(f, p) and x_has_order(f, p, p**n - 1)


@pytest.mark.parametrize("p,n", [(p, n) for p, n in ODD_PRIME_POWERS_TO_343 if p**n <= 125 or p**n in (243, 343)])
def test_add_table_matches_field_add(p, n):
    pp = PrimePower(p, n)
    f = oracle_field(pp)
    q = f.q
    add, _, _ = field_make(pp)
    assert len(add) == q
    for a in range(q):
        assert add[a] == [field_add(f, a, b) for b in range(q)]


@pytest.mark.parametrize("p,n", ODD_PRIME_POWERS_TO_343)
def test_log_tables(p, n):
    pp = PrimePower(p, n)
    f = oracle_field(pp)
    q, m = f.q, f.q - 1
    _, exp, log = field_make(pp)
    x = exp[1]
    assert x == (p if n > 1 else -f.modulus[0] % p)  # x itself, which is r when n = 1
    assert len(exp) == m and len(set(exp)) == m and 0 not in exp
    assert log[0] is None
    assert all(log[a] == k for k, a in enumerate(exp))
    assert all(exp[(k + 1) % m] == field_mul(f, exp[k], x) for k in range(m))
    assert all(1 - 2 * (log[a] % 2) == quadratic_character(f, a) for a in range(1, q))


def test_field_rejects_char2_extension():
    with pytest.raises(ValueError):
        field_make(PrimePower(2, 2))
