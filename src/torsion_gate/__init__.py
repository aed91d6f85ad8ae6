"""Exact re-verification of cyclic torsion exclusions for elliptic curves.

The engine decides, in exact integer arithmetic, whether Z/NZ can occur
inside the torsion of an elliptic curve over a degree-d number field, for
the levels its two certification routes cover: a Kamienny-style
independence criterion on Hecke translates of the winding symbol in the
Manin presentation of H_1(X_0(N), cusps; Z), and a finite-field reduction
argument driven by Waterhouse's classification of Frobenius traces.
"""

from .exactmath import Factorization, FiniteField, PrimePower, factorize, field_make, isqrt
from .gate import (
    ConditionEvidence,
    GONALITY,
    GateReport,
    GonalityTables,
    WitnessPrime,
    find_witness_prime,
    gonality_exceeds,
    hasse_gate,
    t3_divisibility,
    t4_coprimality,
    verify_cyclic_exclusion,
)
from .hecke import (
    MerelMatrix,
    criterion_vectors,
    hecke_action,
    independence_mod_p,
    merel_matrices,
    winding_symbol,
)
from .maninspace import (
    FreeVector,
    ManinSymbol,
    SymbolSpace,
    build_space,
    cusp_count_x0,
    genus_x0,
    index_x0,
    p1_list,
    p1_normalize,
    quotient_rank_mod_p,
    quotient_rank_q,
)
from .redux import (
    BruteForceCensus,
    JACOBIAN_FINITE_FACTS,
    JacobianFiniteFact,
    MethodAVerdict,
    TraceCensus,
    admissible_traces,
    additive_excluded,
    brute_force_census,
    method_a_verdict,
    orders_divisible_by,
)

__version__ = "0.1.0"

__all__ = [
    "BruteForceCensus",
    "ConditionEvidence",
    "Factorization",
    "FiniteField",
    "FreeVector",
    "GONALITY",
    "GateReport",
    "GonalityTables",
    "JACOBIAN_FINITE_FACTS",
    "JacobianFiniteFact",
    "ManinSymbol",
    "MerelMatrix",
    "MethodAVerdict",
    "PrimePower",
    "SymbolSpace",
    "TraceCensus",
    "WitnessPrime",
    "admissible_traces",
    "additive_excluded",
    "brute_force_census",
    "build_space",
    "criterion_vectors",
    "cusp_count_x0",
    "factorize",
    "field_make",
    "find_witness_prime",
    "genus_x0",
    "gonality_exceeds",
    "hasse_gate",
    "hecke_action",
    "independence_mod_p",
    "index_x0",
    "isqrt",
    "merel_matrices",
    "method_a_verdict",
    "orders_divisible_by",
    "p1_list",
    "p1_normalize",
    "quotient_rank_mod_p",
    "quotient_rank_q",
    "t3_divisibility",
    "t4_coprimality",
    "verify_cyclic_exclusion",
    "winding_symbol",
]
