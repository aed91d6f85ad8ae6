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
``exactmath.field_make`` chooses, which generates the units.  The
quadratic character chi is packed, q values to an integer, so one sum of
q integers gives a slice's point counts for every c at once.
"""

import struct
from collections import Counter, namedtuple
from operator import getitem, itemgetter

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

# `census --q 343` takes about 0.05-0.10 s wall, nearly all of it interpreter start and import;
# the census itself takes about 2 ms (best of 40 calls, 2-core Xeon VM, CPython 3.11.7).
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
    The units are the powers ``exp[i]`` of the class of x modulo the
    primitive modulus of :func:`field_make` (the field's variable, not
    the curve's).  With m = q - 1 and e4 = gcd(4, m), the cosets are
    ``exp[i]`` for i < e4, each of m / e4 units, and b = 0 is its own
    class.  The curves scanned, each with its weight:

        p != 3:  (0, 0, c) q;  (0, exp[i], c) q m / e4 for i < e4.
        p = 3:   (0, 0, c) 1 (all singular);  (0, exp[i], c) m / e4 for
                 i < e4;  (exp[i], 0, c) q m / 2 for i < 2, since scaling
                 sends (a, 0, c) to (u^-2 a, 0, u^-6 c).

    Sums come from the addition table, and no q x q multiplication table
    is built: x runs in discrete-logarithm order, x = ``exp[k]`` for
    k < m, with x = 0 apart.  The product row a x is then ``exp`` rotated
    by log a and read at k, a slice of ``exp * 2``; a x^2 and x^3 are
    steps of 2 and 3 through ``exp * 3``.  The character is packed into
    rows: ``packed[w]`` is one integer whose 16-bit digit c is
    1 + chi(w + c).  They are built once, q/p of them by one gather of q
    entries each through the addition table and the rest as rotations of
    their doubled bytes.  A slice (a, b) fixes the values v(x) = x^3 +
    a x^2 + b x, so the q big-integer additions sum(packed[v(x)]) give,
    in digit c, q + sum_x chi(c + v(x)), and the trace of curve c is q
    minus that digit.  A digit is at most 2q <= 686 < 2^16 under the
    guard q <= 343, so no digit carries into the next.  The slice's
    digits are tallied at once; the digits of its singular c, where
    (18ab - 4a^3) c + a^2b^2 - 4b^3 = 27 c^2 (the row 27 c^2 is built
    once per field), are taken back out, and each remaining trace is
    added with its weight, so no trace enters with count zero.  A slice
    whose every curve is singular (a = b = 0 for p = 3) is not summed.

    No Python function runs per field element: the slice values and the
    singular c come from C-level maps and one comprehension over the
    rows, and a slice costs q additions of q-digit integers.  At most 5
    slices are summed (6 for p = 3), and the packed rows take q^2/p
    table reads; the addition table of :func:`field_make`, q^2 entries,
    is the largest single cost at the top of the guard.
    """
    q = pp.q
    _check_census_q(q)
    add, exp, log = field_make(pp)
    m = q - 1
    exp2 = exp * 2
    exp3 = exp * 3

    def mul(a: int, b: int) -> int:
        return exp[(log[a] + log[b]) % m] if a and b else 0

    # packed[w] holds 1 + chi(w + c) in its 16-bit digit c.  With P = q/p, adding P hi
    # adds hi to the top digit alone, so row lo + P hi is row lo, written twice, from
    # place P hi.  chi(exp[k]) = (-1)^k.
    one_chi = (1,) + itemgetter(*log[1:])([2, 0] * (m // 2))
    P = q // pp.p
    digit_row = struct.Struct(f"<{q}H")
    twice = [row + row for row in (digit_row.pack(*itemgetter(*add[lo])(one_chi)) for lo in range(P))]
    packed = [int.from_bytes(row[2 * P * hi : 2 * (P * hi + q)], "little") for hi in range(pp.p) for row in twice]
    cubes = exp3[::3]  # x^3 at x = exp[k]
    # disc(x^3 + a x^2 + b x + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2,
    # evaluated in F_q via the prime-subfield constants below.
    c18 = 18 % pp.p
    cm4 = -4 % pp.p
    l27 = log[27 % pp.p]
    c27_sq = [0] * m if l27 is None else exp3[l27 : l27 + 2 * m : 2]  # 27 c^2 at c = exp[k]
    traces: Counter = Counter()

    def scan(a: int, b: int, weight: int) -> None:
        k_lin = add[mul(c18, mul(a, b))][mul(cm4, mul(a, mul(a, a)))]  # 18ab - 4a^3
        k_const = add[mul(mul(a, a), mul(b, b))][mul(cm4, mul(b, mul(b, b)))]  # a^2b^2 - 4b^3
        lin = exp2[log[k_lin] : log[k_lin] + m] if k_lin else [0] * m  # k_lin c at c = exp[k]
        plus_const = add[k_const]
        singular = [c for c, kc, s in zip(exp, lin, c27_sq) if plus_const[kc] == s]
        if k_const == 0:
            singular.append(0)
        if len(singular) == q:
            return
        values = cubes
        if a:
            values = map(getitem, map(add.__getitem__, values), exp3[log[a] : log[a] + 2 * m : 2])
        if b:
            values = map(getitem, map(add.__getitem__, values), exp2[log[b] : log[b] + m])
        total = sum(map(packed.__getitem__, values), packed[0])  # packed[0] is x = 0
        digits = digit_row.unpack(total.to_bytes(2 * q, "little"))  # q + sum over x of chi(c + v(x))
        tally = Counter(digits)
        for c in singular:
            tally[digits[c]] -= 1
        for digit, count in tally.items():
            if count:
                traces[q - digit] += weight * count

    e4 = gcd(4, m)
    a0_weight = q if pp.p != 3 else 1
    scan(0, 0, a0_weight)
    for i in range(e4):
        scan(0, exp[i], a0_weight * m // e4)
    if pp.p == 3:
        for i in range(2):
            scan(exp[i], 0, q * m // 2)
    return BruteForceCensus(q=q, trace_counts=dict(traces))


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
