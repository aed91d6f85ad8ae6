"""The benchmark's workloads: seeded operation lists and their pinned verdicts.

Each workload is a list of slots.  A slot is a pool of CLI inputs of one
size class; the seed picks one entry per slot and then shuffles the order
of the operations.  Seed 0 takes the first entry of every pool in the
listed order, which is the reference set described in README.md.

Every pool entry carries the verdict the engine must print for it.  Only
verdict-bearing fields are compared (exit code, outcome, witness primes,
per-level outcomes, homology integers, census match), so `timing` and any
evidence added later never count as a failure.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# reproduce re-verifies these nine levels at d = 3: (level, outcome, witness prime)
REPRODUCE_LEVELS = (
    (169, "excluded-T3", "5"),
    (49, "excluded-methodA", "3"),
    (25, "excluded-methodA", "3"),
    (143, "excluded-T4", "3"),
    (91, "excluded-T4", "3"),
    (77, "excluded-T4", "3"),
    (55, "excluded-methodA", "3"),
    (40, "excluded-methodA", "3"),
    (22, "excluded-methodA", "3"),
)

# homology level -> (psi, relation rank, dimension, genus, cusps)
HOMOLOGY = {
    169: (182, 153, 29, 8, 14),
    243: (324, 269, 55, 19, 18),
    389: (390, 325, 65, 32, 2),
    383: (384, 319, 65, 32, 2),
    379: (380, 317, 63, 31, 2),
}

# census field size -> number of Waterhouse-admissible traces over F_q
CENSUS = {25: 20, 23: 19, 29: 21, 27: 17, 49: 27, 47: 27, 81: 29}


@dataclass(frozen=True)
class Op:
    """One CLI call and the verdict-bearing fields it must produce."""

    argv: tuple[str, ...]
    expect: tuple

    def check(self, exit_code: int, doc: dict | None) -> list[str]:
        """Differences between the pinned verdict and the report (empty when correct)."""
        got = (exit_code,) + (verdict_fields(self.argv[0], doc) if doc is not None else ("no JSON report",))
        if got == self.expect:
            return []
        return [f"{' '.join(self.argv)}: expected {self.expect}, got {got}"]


def _evidence(doc: dict, name: str) -> dict:
    for item in doc.get("evidence", ()):
        if item.get("name") == name:
            return item
    return {}


def verdict_fields(command: str, doc: dict) -> tuple:
    """The verdict-bearing part of one JSON report, as a comparable tuple."""
    out = (doc.get("outcome"),)
    if command == "verify":
        return out + (doc.get("witness_prime"),)
    if command == "reproduce":
        levels = []
        for N, _, _ in REPRODUCE_LEVELS:
            ev = _evidence(doc, f"exclude-{N}")
            levels.append((N, ev.get("detail"), ev.get("witnesses", {}).get("witness_prime")))
        return out + tuple(levels)
    if command == "homology":
        w = _evidence(doc, "homology-dimension").get("witnesses", {})
        return out + tuple(w.get(k) for k in ("psi", "relation_rank", "dimension", "genus", "cusps"))
    if command == "census":
        ev = _evidence(doc, "waterhouse-census")
        return out + (ev.get("passed"), ev.get("witnesses", {}).get("observed_count"))
    raise ValueError(f"no verdict fields for command {command!r}")


def reproduce_op(p_max: int) -> Op:
    return Op(("reproduce", "--d", "3", "--p-max", str(p_max)), (0, "all-excluded") + REPRODUCE_LEVELS)


def verify_op(N: int) -> Op:
    return Op(("verify", "--N", str(N), "--d", "3"), (0, "excluded-T4", "3"))


def homology_op(N: int) -> Op:
    return Op(("homology", "--N", str(N)), (0, "ok") + tuple(str(x) for x in HOMOLOGY[N]))


def census_op(q: int) -> Op:
    return Op(("census", "--q", str(q)), (0, "match", True, str(CENSUS[q])))


# Pools hold inputs of one size class: the same psi for verify, a prime
# of similar psi for homology, a field of similar q^4 scan cost for census.
# Every reproduce level's witness prime is at most 5, so any p_max >= 5
# gives the same verdicts; the pool varies only the candidate list.
#
# symbol-space holds every call that builds a symbol space (mod-p and Q
# elimination); census-sweep holds the calls that never do.  The planned
# sparse echelon moves only the first and the census orbit scan only the
# second, so each has a workload that exercises it and one that bypasses it.
WORKLOADS: dict[str, tuple[tuple[Op, ...], ...]] = {
    "symbol-space": (
        tuple(reproduce_op(p) for p in (97, 89, 101, 103, 107, 109, 113)),  # the nine d = 3 exclusions
        tuple(verify_op(N) for N in (1001, 1169, 1271)),  # psi = 1344
        tuple(verify_op(N) for N in (2431, 2911, 2653)),  # psi = 3024, 3024, 3040
        (homology_op(169),),  # prime square
        (homology_op(243),),  # 3^5
        tuple(homology_op(N) for N in (389, 383, 379)),  # prime, psi = N + 1
    ),
    "census-sweep": (
        tuple(census_op(q) for q in (25, 23, 29)),  # p != 3, small
        (census_op(27),),  # p = 3, odd exponent
        tuple(census_op(q) for q in (49, 47)),  # p != 3, medium
        (census_op(81),),  # p = 3, even exponent
    ),
}

# Small calls made before timing, so that lazy set-up such as the
# Hecke-matrix cache is done; their verdicts are checked like any other.
WARMUP: dict[str, tuple[Op, ...]] = {
    "symbol-space": (reproduce_op(97),),
    "census-sweep": (census_op(25),),
}


def operations(workload: str, seed: int) -> list[Op]:
    """The workload's operation list for one seed."""
    slots = WORKLOADS[workload]
    if seed == 0:
        return [pool[0] for pool in slots]
    rng = random.Random(f"{workload}:{seed}")
    ops = [rng.choice(pool) for pool in slots]
    rng.shuffle(ops)
    return ops


# Layers that must record calls in a traced run of each workload; a layer
# that silently stops being reached fails the run instead of reporting 0.
EXPECTED_LAYERS: dict[str, tuple[str, ...]] = {
    "symbol-space": (
        "cli",
        "gate.verify",
        "gate.hasse",
        "hecke.criterion_vectors",
        "maninspace.p1_list",
        "maninspace.build_space",
        "maninspace.rank_q",
        "maninspace.rank_mod_p",
        "maninspace.quotient_rank_mod_p",
        "redux.method_a_verdict",
        "redux.admissible_traces",
    ),
    "census-sweep": ("cli", "redux.admissible_traces", "redux.brute_force_census", "exactmath.field_make"),
}
