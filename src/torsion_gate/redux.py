"""Finite-field reduction arguments ("method A").

For a level N whose J_1(N)(Q) is known finite (a cited-facts table: the
simple isogeny factors all have nonvanishing L(A, 1), so finiteness
follows from Kato's theorem) and with Gon(X_1(N)) > d, an elliptic curve
over a degree-d field with an N-torsion point must have good reduction at
any odd prime p not dividing N.  The contradiction is then arithmetic:
no elliptic curve over the residue field F_{p^i}, i <= d, can have group
order divisible by N.  Admissible group orders come from Waterhouse's
classification of isogeny classes (Waterhouse 1969, Thm 4.1), and a
census that counts every curve y^2 = cubic, through its orbit under
translation x -> x + r and scaling x -> u^2 x, y -> u^3 y, serves as an
independent desk-scale oracle for that classification.  One curve per
orbit class of a coefficient slice is scanned and weighted by its class
size.  For p != 3, on the slice a = 0: q for b = 0, and q (q - 1) /
gcd(4, q - 1) per coset of the fourth powers.  For p = 3: 1 for a = b = 0
(all singular), (q - 1) / gcd(4, q - 1) per coset of the fourth powers
on a = 0, and q (q - 1) / 2 per coset of the squares on b = 0.  The
cosets are powers of the class of x modulo the primitive modulus that
``exactmath.field_make`` chooses, which generates the units.  The twist
by x maps each slice b = x^i to b = x^(i+2), and a = 1 to a = x, with
every trace negated, so those twin slices are counted through their
twists.  Every sum is a lookup in Zech's logarithms, and the quadratic
character is packed into two base rows of 16-bit digits, so two
big-integer products give a slice's point counts for every c at once.
"""

import struct
from collections import Counter, namedtuple

from .exactmath import PrimePower, _check_odd_prime, field_make, gcd, is_prime, isqrt
from .gate import ConditionEvidence, _ev, _gonality_evidence

__all__ = [
    "BruteForceCensus",
    "JACOBIAN_FINITE_FACTS",
    "TraceCensus",
    "admissible_traces",
    "additive_excluded",
    "brute_force_census",
    "method_a_verdict",
]

# `census --q 343` takes about 0.05-0.07 s wall, nearly all of it interpreter start and import;
# the census itself takes about 0.6 ms (best of 400 calls, 2-core Xeon VM, CPython 3.11.7).
BRUTE_FORCE_MAX_Q = 343
# A packed census digit sums q values of 1 + chi, at most 2q, in 16 bits.
assert 2 * BRUTE_FORCE_MAX_Q < 1 << 16, "packed census digits would carry"


class TraceCensus(namedtuple("TraceCensus", "q hasse_lo hasse_hi traces")):
    """Hasse interval and Waterhouse-admissible traces over F_q.

    ``q: PrimePower``, ``hasse_lo: int``, ``hasse_hi: int`` and ``traces: frozenset[int]``.
    """

    __slots__ = ()

    @property
    def orders(self) -> frozenset[int]:
        return frozenset(self.q.q + 1 - t for t in self.traces)


def admissible_traces(pp: PrimePower) -> TraceCensus:
    """Traces t of elliptic-curve isogeny classes over F_q, per Waterhouse.

    t with t^2 <= 4q occurs iff one of:
      (1) gcd(t, p) = 1;
      (2) n even and t = +-2 p^{n/2};
      (3) n even, p != 1 mod 3, and t = +-p^{n/2};
      (4) n odd, p in {2, 3}, and t = +-p^{(n+1)/2};
      (5) t = 0, and n odd or p != 1 mod 4.
    """
    p, n, q = pp.p, pp.n, pp.q
    bound = isqrt(4 * q)  # |t| <= 2 sqrt(q) iff t^2 <= 4q
    traces = set()
    for t in range(-bound, bound + 1):
        if t % p != 0:
            traces.add(t)
        elif t == 0:
            if n % 2 == 1 or p % 4 != 1:
                traces.add(t)
        elif n % 2 == 0:
            half = p ** (n // 2)
            if abs(t) == 2 * half or (abs(t) == half and p % 3 != 1):
                traces.add(t)
        else:
            if p in (2, 3) and abs(t) == p ** ((n + 1) // 2):
                traces.add(t)
    assert all(t * t <= 4 * q for t in traces)
    return TraceCensus(q=pp, hasse_lo=q + 1 - bound, hasse_hi=q + 1 + bound, traces=frozenset(traces))


def additive_excluded(N: int, p: int, d: int) -> ConditionEvidence:
    """No additive-reduction group order p^i * c (i <= d, c <= 4) is divisible by N.

    An additive fiber over the residue field has |E~(k)| = |G_a| * |G| with
    |G_a| = p^i and a component group G of order at most four.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if N < 1:
        raise ValueError("N must be positive")
    for i in range(1, d + 1):
        for c in range(1, 5):
            order = p**i * c
            if order % N == 0:
                return _ev(
                    "additive-reduction",
                    False,
                    f"additive fiber order {p}^{i}*{c} = {order} is divisible by {N}",
                    N=N,
                    p=p,
                    p_power_index=i,
                    component_order=c,
                    group_order=order,
                )
    return _ev(
        "additive-reduction",
        True,
        f"{N} divides no additive fiber order {p}^i*c, i<={d}, c<=4",
        N=N,
        p=p,
        d=d,
        max_component_order=4,
    )


# ---------------------------------------------------------------------------
# brute-force census oracle
# ---------------------------------------------------------------------------


def _check_census_q(q: int) -> None:
    """The census guard: q odd, at least 3 and at most BRUTE_FORCE_MAX_Q.  It needs no factorization of q."""
    if q < 3 or q % 2 == 0 or q > BRUTE_FORCE_MAX_Q:
        raise ValueError(f"q must be an odd prime power <= {BRUTE_FORCE_MAX_Q}")


class BruteForceCensus(namedtuple("BruteForceCensus", "q trace_counts")):
    """Observed traces over F_q, each with its curve count (always positive).

    ``q: int`` and ``trace_counts: dict[int, int]``.
    """

    __slots__ = ()

    @property
    def trace_set(self) -> frozenset[int]:
        return frozenset(self.trace_counts)

    @property
    def orders(self) -> frozenset[int]:
        return frozenset(self.q + 1 - t for t in self.trace_counts)


def brute_force_census(pp: PrimePower) -> BruteForceCensus:
    """Count points on every curve y^2 = x^3 + a x^2 + b x + c over F_q.

    Requires p odd and q <= 343.  Points are counted through the quadratic
    character: |E| = q + 1 + sum_x chi(f(x)).  Singular cubics
    (disc(f) = 0) are skipped.

    Every curve is counted, but through its orbit under two substitutions
    (Silverman, AEC III.1) that keep both the point count and disc != 0.
    Translation x -> x + r acts as

        (a, b, c) -> (a + 3r, b + 2ar + 3r^2, c + br + ar^2 + r^3),

    and scaling x -> u^2 x, y -> u^3 y as (a, b, c) -> (u^-2 a, u^-4 b,
    u^-6 c), which multiplies the discriminant by u^-12.

    For p != 3 translation acts freely on a, so the slice a = 0 meets
    every translation orbit once and each of its curves stands for q
    curves.  For p = 3 translation fixes a; when a != 0 it sends b to
    b + 2ar, freely, so the slice b = 0 meets every orbit with that a
    once, again with weight q, while the slice a = 0 is taken whole,
    with weight 1.

    Scaling then maps {b} x F_q onto {u^4 b} x F_q, count for count, so
    a slice needs one b per coset of the fourth powers, with every c.
    The units are the powers x^i of the class of x modulo the primitive
    modulus of :func:`field_make` (the field's variable, written x^k
    below, not the curve's).  With m = q - 1 and e4 = gcd(4, m), the
    cosets are those of x^i for i < e4, each of m / e4 units, and b = 0
    is its own class.  The slices, each curve with its weight:

        p != 3:  (0, 0, c) q;  (0, x^i, c) q m / e4 for i < e4.
        p = 3:   (0, 0, c) 1 (all singular);  (0, x^i, c) m / e4 for
                 i < e4;  (x^j, 0, c) q m / 2 for j < 2, since scaling
                 sends (a, 0, c) to (u^-2 a, 0, u^-6 c).

    Twins.  The twist of y^2 = f(X) by d is d y^2 = f(X); multiplying by
    d^3 and setting X' = d X, y' = d^2 y gives y'^2 = X'^3 + d a X'^2 +
    d^2 b X' + d^3 c, and for a non-square d, chi(d) = -1 flips the sign
    of sum_x chi(f(x)).  With d = x the twist maps (a, b, c) to (x a,
    x^2 b, x^3 c), c -> x^3 c is a bijection that keeps disc = 0, and
    the trace t goes to -t.  So when e4 = 4 the slices b = x^2 and x^3
    are the twists of b = 1 and x, and for p = 3 the slice a = x is the
    twist of a = 1.  Each slice summed adds its tally once at t and, when
    it has a twin, once at -t, which counts every curve of the twin
    slice through its twist.  At most 3 slices are summed.

    Zech logarithms.  The curve's variable runs over the units x^k, k < m,
    in logarithm order, with 0 apart, where v = x^3 + a x^2 + b x is 0.
    Since x^i + x^j = x^i (1 + x^(j-i)), ``zech[s] = log(1 + x^s)`` gives
    each value's logarithm by one lookup: on the slice (0, x^i), v(x^k) =
    x^(k+i) (1 + x^(2k-i)) has logarithm k + i + zech[(2k - i) mod m]; on
    the slice (x^j, 0), v(x^k) = x^(2k+j) (1 + x^(k-j)) has 2k + j +
    zech[(k - j) mod m]; on (0, 0) it is 3k.  Where zech is None, v = 0.

    Character rows.  In a row of 16-bit digits indexed by logarithm,
    digit t of the row of w = x^l holds 1 + chi(w + x^t) = 1 + (-1)^l
    chi(1 + x^(t-l)).  So every row is one of two base rows, chosen by
    the parity of l, rotated by l, and the row of w = 0 (digit t holds
    1 + (-1)^t) and the digit c = 0 (1 + chi(w)) are kept apart.  The
    sum of a slice's rows over x is then the two base rows times the
    packed counts of its values of even and of odd logarithm, modulo
    X^m - 1 in the digit variable X: two big-integer products, whose
    upper m digits fold onto the lower m.  Digit t of the sum is q +
    sum_x chi(x^t + v(x)), and the trace of curve c = x^t is q minus
    that digit.  Every digit of the products, before and after folding,
    is a sum of nonnegative terms of at most the folded one, 2q <= 686 <
    2^16 under the guard q <= 343, so no digit carries into the next.

    Singular c, in closed form: for p != 3, disc = -4b^3 - 27c^2 on
    a = 0, so on (0, x^i) c^2 = -4 x^(3i) / 27, which has the two roots
    +-x^(s/2) when its logarithm s is even and none otherwise, and on
    (0, 0) only c = 0 is singular.  For p = 3, disc = a^2b^2 - b^3 -
    a^3c, so (0, x^i) has no singular c and (x^j, 0) only c = 0.  A
    slice's digits are tallied at once, its singular digits are taken
    back out, and each remaining trace is added with its weight, so no
    trace enters with count zero.
    """
    q = pp.q
    _check_census_q(q)
    zech, _, log = field_make(pp)
    p, m = pp.p, q - 1
    half = m // 2
    digit_row = struct.Struct(f"<{m}H")
    # digit s of base row e holds 1 + (-1)^e chi(1 + x^s), and chi(x^z) = (-1)^z
    odd = [1 if z is None else 2 * (z & 1) for z in zech]
    base_odd = int.from_bytes(digit_row.pack(*odd), "little")
    base_even = int.from_bytes(digit_row.pack(*[2 - d for d in odd]), "little")
    zero_row = int.from_bytes(b"\x02\x00\x00\x00" * half, "little")  # the row of w = 0
    even_mask = int.from_bytes(b"\xff\xff\x00\x00" * half, "little")
    odd_mask = even_mask << 16
    low = (1 << 16 * m) - 1
    traces: dict[int, int] = {}

    def scan(ks: range, zs: list[int | None], singular: list[int], weight: int, twin: bool) -> None:
        """Tally the slice on which v(x^k) has logarithm ks[k] + zs[k], and v = 0 where zs[k] is None.

        ``singular`` lists the logarithms of the singular c, with m for c = 0.
        """
        counts = [0] * m  # counts[l]: the x with v(x) = x^l
        for k, z in zip(ks, zs):
            if z is not None:
                counts[(k + z) % m] += 1
        at_zero = q - sum(counts)  # the x with v(x) = 0, x = 0 among them
        packed = int.from_bytes(digit_row.pack(*counts), "little")
        total = base_even * (packed & even_mask) + base_odd * (packed & odd_mask)
        total = (total & low) + (total >> 16 * m) + at_zero * zero_row
        digits = digit_row.unpack(total.to_bytes(2 * m, "little")) + (at_zero + 2 * sum(counts[::2]),)
        tally = Counter(digits)
        for t in singular:
            tally[digits[t]] -= 1
        for digit, count in tally.items():
            if count:
                traces[q - digit] = traces.get(q - digit, 0) + weight * count
                if twin:
                    traces[digit - q] = traces.get(digit - q, 0) + weight * count

    e4 = gcd(4, m)
    zech3 = zech * 3  # zech3[m - i + 2k] = zech[(2k - i) mod m]
    if p != 3:
        scan(range(0, 3 * m, 3), [0] * m, [m], q, False)  # (0, 0): 3k
        s27 = (log[-4 % p] - log[27 % p]) % m  # log(-4/27)
        for i in range(2):  # (0, x^i): k + i + zech[(2k - i) mod m]
            s = (s27 + 3 * i) % m  # log c^2 at the singular c
            singular = [s // 2, s // 2 + half] if s % 2 == 0 else []
            scan(range(i, i + m), zech3[m - i : 3 * m - i : 2], singular, q * m // e4, e4 == 4)
    else:
        for i in range(2):
            scan(range(i, i + m), zech3[m - i : 3 * m - i : 2], [], m // e4, e4 == 4)
        scan(range(0, 2 * m, 2), zech, [m], q * m // 2, True)  # (1, 0): 2k + zech[k]
    return BruteForceCensus(q=q, trace_counts=traces)


# ---------------------------------------------------------------------------
# cited finiteness facts and the method-A verdict
# ---------------------------------------------------------------------------


# J_1(N)(Q) is finite at these levels: L(A_i, 1) != 0 for each simple isogeny factor
# A_i, so finiteness follows from Kato's theorem.  Each level maps to the dimensions of
# its factors, as cited.
JACOBIAN_FINITE_FACTS: dict[int, tuple[int, ...]] = {
    49: (1, 48, 6, 12, 2),
    25: (8, 4),
    55: (1, 2, 1, 1, 4, 32, 8, 8, 16, 4, 4),
    40: (1, 1, 1, 4, 2, 2, 8, 2, 4),
    22: (1, 1, 4),
}


def _finite_jacobian_evidence(N: int) -> ConditionEvidence:
    """Whether J_1(N)(Q) is in the cited finite-Jacobian table."""
    dims = JACOBIAN_FINITE_FACTS.get(N)
    if dims is None:
        return _ev("finite-jacobian-table", False, f"J_1({N})(Q) is not in the cited finite-Jacobian table", N=N)
    return _ev(
        "finite-jacobian-table",
        True,
        f"J_1({N})(Q) finite (L(A_i,1) != 0 for all factors; finiteness via Kato; factor dims {dims})",
        N=N,
        factor_count=len(dims),
    )


def method_a_verdict(N: int, d: int, p: int) -> list[ConditionEvidence]:
    """The evidence of the full reduction argument for (N, d) at the odd prime p.

    The argument passes iff every entry passes: N is in the finite-Jacobian
    table, Gon(X_1(N)) > d, no additive fiber order is divisible by N,
    and for every i <= d no admissible order over F_{p^i} is divisible
    by N.  A pass reproduces the contradiction: good reduction is forced,
    yet no residue-field curve admits a point of order N.
    """
    _check_odd_prime(p)
    if N < 1:
        raise ValueError("N must be positive")
    if N % p == 0:
        raise ValueError(f"p = {p} must not divide N = {N}")
    evidence = [_finite_jacobian_evidence(N), _gonality_evidence("X1", N, d), additive_excluded(N, p, d)]

    for i in range(1, d + 1):
        pp = PrimePower(p, i)
        census = admissible_traces(pp)
        bad = [order for order in census.orders if order % N == 0]
        if bad:
            evidence.append(
                _ev(
                    "good-reduction-orders",
                    False,
                    f"an admissible order over F_{pp} is divisible by {N}",
                    q=pp.q,
                    order=min(bad),
                    trace=pp.q + 1 - min(bad),
                )
            )
        else:
            evidence.append(
                _ev(
                    "good-reduction-orders",
                    True,
                    f"no admissible order over F_{pp} is divisible by {N}",
                    q=pp.q,
                    hasse_lo=census.hasse_lo,
                    hasse_hi=census.hasse_hi,
                )
            )

    return evidence
