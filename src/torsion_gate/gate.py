"""Decision gates certifying that Z/NZ cannot embed in E(K)_tor, [K:Q] = d.

Two certification routes are implemented.

Route T3/T4 (Kamienny-style criterion): find an odd prime p not dividing
N such that N clears the Hasse gate N > (1 + sqrt(p^d))^2, the level's
divisibility condition holds, and T_1(0,1), ..., T_{2d}(0,1) are
independent mod p in the relative-homology quotient.  The condition is
coprimality (T4) at a squarefree composite N and the prime-power
condition (T3) at any other N; at a squarefree composite T3 implies T4,
so it is never tried there.  Both routes require Gon(X_0(N)) > d.

Route "methodA" (finite-field reduction, in :mod:`.redux`): for levels
whose J_1(N)(Q) is known finite, good reduction at a small prime is
forced and residue-field point counts rule out an N-torsion point.

Every inequality is decided in exact integers, and every condition is
recorded with the integers that witness it, so reports are independently
checkable.  An exhausted search is "inconclusive", never a proof that
torsion occurs.
"""

import time
from collections import namedtuple
from collections.abc import Iterator, Mapping

from .exactmath import factorize, gcd, is_prime
from .hecke import criterion_vectors
from .maninspace import SymbolSpace, _check_level, build_space, quotient_rank_mod_p

__all__ = [
    "ConditionEvidence",
    "GONALITY",
    "GateReport",
    "gonality_exceeds",
    "hasse_gate",
    "t3_divisibility",
    "t4_coprimality",
    "verify_cyclic_exclusion",
]


class ConditionEvidence(namedtuple("ConditionEvidence", "name passed witnesses detail", defaults=((), ""))):
    """One checked condition with the exact integers behind the verdict.

    ``name: str``, ``passed: bool``, ``witnesses: tuple[tuple[str, int], ...]``
    (default empty) and ``detail: str`` (default empty).
    """

    __slots__ = ()


def _ev(name: str, passed: bool, detail: str = "", **witnesses: int) -> ConditionEvidence:
    return ConditionEvidence(name, passed, tuple(witnesses.items()), detail)


# ---------------------------------------------------------------------------
# gonality lookup tables
# ---------------------------------------------------------------------------

# Published lists of the modular curves of gonality exactly <= the row's
# bound, keyed by genus as printed:
#   X_0 2-gonal: Ogg 1974; X_0 trigonal: Hasegawa-Shimura 1999;
#   X_1 2-gonal: Ishii-Momose 1991; X_1 trigonal: Jeon-Kim-Schweizer 2004.
X0_GENUS_ZERO = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25)
X1_GENUS_ZERO = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12)

X0_TWO_GONAL_BY_GENUS: Mapping[int, tuple[int, ...]] = {
    0: X0_GENUS_ZERO,
    1: (11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49),
    2: (22, 23, 26, 28, 29, 31, 37, 50),
    3: (30, 33, 35, 39, 40, 41, 48),
    4: (47,),
    5: (46, 59),
    6: (71,),
}

X0_THREE_GONAL_BY_GENUS: Mapping[int, tuple[int, ...]] = {
    0: X0_GENUS_ZERO,
    1: X0_TWO_GONAL_BY_GENUS[1],
    2: X0_TWO_GONAL_BY_GENUS[2],
    3: (34, 43, 45, 64),
    4: (38, 44, 53, 54, 61, 81),
}

X1_TWO_GONAL_BY_GENUS: Mapping[int, tuple[int, ...]] = {
    0: X1_GENUS_ZERO,
    1: (11, 14, 15),
    2: (13, 16, 18),
}

X1_THREE_GONAL_BY_GENUS: Mapping[int, tuple[int, ...]] = {
    0: X1_GENUS_ZERO,
    1: X1_TWO_GONAL_BY_GENUS[1],
    2: X1_TWO_GONAL_BY_GENUS[2],
    3: (20,),
}


def _flat(table: Mapping[int, tuple[int, ...]]) -> frozenset[int]:
    return frozenset(n for row in table.values() for n in row)


# Levels of gonality <= d, for d = 1, 2, 3, per curve family.  Sets are
# cumulative: the degree-d set contains every level whose gonality is at
# most d, so "Gon > d" is exactly absence from the degree-d set.  (The
# published trigonal lists stop at the trigonal curves proper; the
# hyperelliptic levels of higher genus are unioned in here, since a
# gonality-2 curve certainly has gonality <= 3.)
GONALITY: Mapping[str, Mapping[int, frozenset[int]]] = {
    "X0": {
        1: frozenset(X0_GENUS_ZERO),
        2: _flat(X0_TWO_GONAL_BY_GENUS),
        3: _flat(X0_TWO_GONAL_BY_GENUS) | _flat(X0_THREE_GONAL_BY_GENUS),
    },
    "X1": {
        1: frozenset(X1_GENUS_ZERO),
        2: _flat(X1_TWO_GONAL_BY_GENUS),
        3: _flat(X1_TWO_GONAL_BY_GENUS) | _flat(X1_THREE_GONAL_BY_GENUS),
    },
}


def gonality_exceeds(family: str, N: int, d: int) -> bool:
    """True iff Gon(X_family(N)) > d, per the published tables (d <= 3)."""
    if family not in GONALITY:
        raise ValueError(f"family must be 'X0' or 'X1', got {family!r}")
    if d not in GONALITY[family]:
        raise ValueError(f"gonality tables cover d = 1..3 only, got d = {d}")
    if N < 1:
        raise ValueError("N must be positive")
    return N not in GONALITY[family][d]


def _gonality_evidence(family: str, N: int, d: int) -> ConditionEvidence:
    ok = gonality_exceeds(family, N, d)
    curve = "X_0" if family == "X0" else "X_1"
    rel = ">" if ok else "<="
    return _ev(
        f"gonality-{family.lower()}",
        ok,
        f"Gon({curve}({N})) {rel} {d} (table lookup)",
        N=N,
        d=d,
    )


# ---------------------------------------------------------------------------
# exact arithmetic side conditions
# ---------------------------------------------------------------------------


def hasse_gate(N: int, p: int, d: int) -> ConditionEvidence:
    """N > (1 + sqrt(p^d))^2, decided exactly.

    Equivalent integer test: N - 1 - p^d > 0 and (N - 1 - p^d)^2 > 4 p^d.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if d < 1:
        raise ValueError("degree must be >= 1")
    q = p**d
    margin = N - 1 - q
    ok = margin > 0 and margin * margin > 4 * q
    rel = ">" if ok else "<="
    return _ev(
        "hasse-gate",
        ok,
        f"N {rel} (1+sqrt({q}))^2",
        N=N,
        p_pow_d=q,
        margin=margin,
        margin_squared=margin * margin,
        four_p_pow_d=4 * q,
    )


def t3_divisibility(N: int, p: int, d: int) -> ConditionEvidence:
    """q_j^{e_j} divides no p^{2i} - 1, over all maximal prime powers of N, i <= d."""
    if N % p == 0:
        raise ValueError(f"p = {p} must not divide N = {N}")
    witnesses: dict[str, int] = {"N": N, "p": p}
    for i in range(1, d + 1):
        witnesses[f"p_pow_{2 * i}_minus_1"] = p ** (2 * i) - 1
    for j, (q, e) in enumerate(factorize(N), start=1):
        qe = q**e
        witnesses[f"factor_{j}"] = qe
        for i in range(1, d + 1):
            val = p ** (2 * i) - 1
            if val % qe == 0:
                witnesses["divides"] = qe
                witnesses["divided"] = val
                return _ev(
                    "t3-divisibility",
                    False,
                    f"{qe} | {p}^{2 * i}-1 = {val}",
                    **witnesses,
                )
    return _ev(
        "t3-divisibility",
        True,
        f"no maximal prime power of {N} divides {p}^2i-1, i=1..{d}",
        **witnesses,
    )


def _squarefree_composite(N: int) -> bool:
    fac = factorize(N)
    return len(fac) >= 2 and all(e == 1 for _, e in fac)


def t4_coprimality(N: int, p: int, d: int) -> ConditionEvidence:
    """gcd(N, p^{2i} - 1) = 1 for i = 1..d-1; N must be squarefree composite."""
    if not _squarefree_composite(N):
        raise ValueError(f"N = {N} is not a squarefree composite")
    if N % p == 0:
        raise ValueError(f"p = {p} must not divide N = {N}")
    witnesses: dict[str, int] = {"N": N, "p": p}
    for i in range(1, d):
        val = p ** (2 * i) - 1
        g = gcd(N, val)
        witnesses[f"gcd_with_p_pow_{2 * i}_minus_1"] = g
        if g != 1:
            return _ev(
                "t4-coprimality",
                False,
                f"gcd({N}, {p}^{2 * i}-1) = {g}",
                **witnesses,
            )
    return _ev(
        "t4-coprimality",
        True,
        f"{N} coprime to {p}^2i-1 for i=1..{d - 1}",
        **witnesses,
    )


# ---------------------------------------------------------------------------
# witness search and verdicts
# ---------------------------------------------------------------------------


class GateReport(namedtuple("GateReport", "N d outcome witness_prime evidence elapsed_ms")):
    """Structured verdict for one (N, d) pair with its full evidence chain.

    ``N: int``, ``d: int``, ``outcome: str`` (excluded-T3 | excluded-T4 |
    excluded-methodA | inconclusive), ``witness_prime: int | None``,
    ``evidence: list[ConditionEvidence]`` and ``elapsed_ms: int``.
    """

    __slots__ = ()

    @property
    def excluded(self) -> bool:
        return self.outcome.startswith("excluded")


def _candidate_primes(N: int, p_max: int) -> Iterator[int]:
    """The odd primes p <= p_max not dividing N, ascending, generated one at a time."""
    return (p for p in range(3, p_max + 1, 2) if N % p and is_prime(p))


def _witness_search(N: int, d: int, p_max: int) -> tuple[int, str, list[ConditionEvidence]] | None:
    """Least odd prime p <= p_max passing the Hasse gate, the level's T4 or T3 condition, and the Hecke check.

    The level has one arithmetic condition: T4 at a squarefree composite,
    T3 at any other N.  At a squarefree composite q_1...q_r, T3 asks
    q_j not dividing p^(2i) - 1 for i <= d and T4 the same for i <= d - 1,
    so a candidate that fails T4 fails T3 too.

    Returns p, the method ("T3" or "T4") and the evidence of those three
    checks.  Candidates are tested in ascending order and the search stops
    at the first pass, or at the first Hasse failure, after which none can
    pass.  The symbol space and its criterion vectors are built at most
    once, when the first candidate reaches the Hecke check.  An empty
    result is *not* a disproof.
    """
    condition, method = (t4_coprimality, "T4") if _squarefree_composite(N) else (t3_divisibility, "T3")
    space: SymbolSpace | None = None
    vectors: list[dict[int, int]] = []
    for p in _candidate_primes(N, p_max):
        hasse = hasse_gate(N, p, d)
        if not hasse.passed:
            break  # (1 + sqrt(p^d))^2 grows with p, so no later candidate passes
        arith = condition(N, p, d)
        if not arith.passed:
            continue
        if space is None:
            space = build_space(N)
            vectors = criterion_vectors(space, d)
        rank = quotient_rank_mod_p(space, vectors, p)
        if rank == 2 * d:
            span = f"T_1(0,1)..T_{2 * d}(0,1) span rank {rank} mod {p} (need {2 * d})"
            return p, method, [hasse, arith, _ev("hecke-independence", True, span, p=p, rank=rank, required=2 * d)]
    return None


def verify_cyclic_exclusion(N: int, d: int = 3, p_max: int = 97) -> GateReport:
    """Full verdict for (N, d): witness-prime search, then reduction fallback.

    Raises ValueError for bad input, and at every degree when psi(N) exceeds
    MAX_PSI, with :func:`build_space`'s message (for N > MAX_PSI before
    anything factors N).
    """
    if N < 1 or d < 1:
        raise ValueError("N and d must be positive")
    if p_max < 3:
        raise ValueError("p_max must be >= 3")
    _check_level(N)  # before the search, whose T3/T4 conditions factor N: seconds at N ~ 10^16
    t0 = time.monotonic_ns()
    outcome = "inconclusive"
    witness: int | None = None

    if d > 3:
        # the gonality tables stop at degree 3, so neither route can be gated
        evidence = [
            _ev(
                "gonality-tables-range",
                False,
                f"gonality tables cover d <= 3 only; cannot certify d = {d}",
                d=d,
            )
        ]
    elif (gon := _gonality_evidence("X0", N, d)).passed and (hit := _witness_search(N, d, p_max)) is not None:
        witness, method, found = hit
        outcome, evidence = f"excluded-{method}", [gon, *found]
    else:
        from . import redux  # deferred: redux consumes this module's gates

        # the trail of why the witness search came up empty, or was never
        # run; it is replaced when method A passes, since an excluded-*
        # report must consist of passing conditions exclusively
        evidence = [gon]
        if gon.passed:
            evidence.append(
                _ev(
                    "witness-prime-search",
                    False,
                    f"no witness prime <= {p_max} satisfies all conditions",
                    p_max=p_max,
                )
            )
        if N in redux.JACOBIAN_FINITE_FACTS:
            for p in _candidate_primes(N, p_max):
                method_a = redux.method_a_verdict(N, d, p)
                if all(e.passed for e in method_a):
                    outcome, witness, evidence = "excluded-methodA", p, method_a
                    break
        else:
            evidence.append(redux._finite_jacobian_evidence(N))

    elapsed_ms = (time.monotonic_ns() - t0) // 1_000_000
    return GateReport(N=N, d=d, outcome=outcome, witness_prime=witness, evidence=evidence, elapsed_ms=int(elapsed_ms))
