"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import pytest

from torsion_gate import cli
from torsion_gate.exactmath import PrimePower
from torsion_gate.hecke import (
    criterion_vectors,
    hecke_action,
    merel_matrices,
    winding_symbol,
)
from torsion_gate.maninspace import (
    cusp_count_x0,
    genus_x0,
    index_x0,
    p1_list,
    quotient_rank_mod_p,
)
from torsion_gate.redux import admissible_traces, brute_force_census, method_a_verdict

from oracles import SIGMA, TAU, p1_normalize, quotient_rank_q, right_translate, row_combination, symbol_view
from test_hecke import MEREL_COUNTS, REFERENCE_WINDING_EXPANSIONS, hecke_on_row, normalized_terms

CASE_LEVELS = (169, 49, 25, 143, 91, 77, 55, 40, 22)


@contextmanager
def criterion(number: int, description: str, budget_s: float):
    t0 = time.monotonic()
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        elapsed = time.monotonic() - t0
        print(f"\ncriterion {number} ({description}): {status} in {elapsed:.2f}s (budget {budget_s:g}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


def test_criterion_1_homology_dimension(capsys):
    with criterion(1, "homology dimension 29 at level 169", 5.0):
        code = cli.main(["homology", "--N", "169", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        witnesses = json.loads(out)["evidence"][0]["witnesses"]
        assert witnesses["dimension"] == "29"


def test_criterion_2_merel_matrix_counts():
    with criterion(2, "Merel matrix counts 1,4,7,13,15,26", 1.0):
        assert [len(merel_matrices(n)) for n in range(1, 7)] == [
            MEREL_COUNTS[n] for n in range(1, 7)
        ] == [1, 4, 7, 13, 15, 26]


def test_criterion_3_generic_hecke_expansions(get_space):
    with criterion(3, "winding expansions T_1..T_6 at level 169", 1.0):
        space = get_space(169)
        e = winding_symbol(169)
        for n, terms in REFERENCE_WINDING_EXPANSIONS.items():
            expected = normalized_terms(169, terms)
            assert symbol_view(space, hecke_action(space, n, e)) == expected, f"T_{n}(0,1) mismatch"


def test_criterion_4_independence_mod_p(get_space):
    with criterion(4, "criterion vectors independent mod p", 30.0):
        for N, p in ((169, 5), (143, 3), (91, 3), (77, 3)):
            space = get_space(N)
            rank = quotient_rank_mod_p(space, criterion_vectors(space, 3), p)
            assert rank == 6, f"N={N}, p={p}: rank {rank}"


def test_criterion_5_method_a():
    with criterion(5, "reduction verdicts at the five table levels", 5.0):
        for N in (49, 25, 55, 40, 22):
            assert all(e.passed for e in method_a_verdict(N, 3, 3)), f"N={N}"


def test_criterion_6_full_reproduction(capsys):
    with criterion(6, "full nine-level reproduction run", 60.0):
        code = cli.main(["reproduce"])
        out = capsys.readouterr().out
        assert code == 0
        assert "summary: 9/9 excluded" in out


def test_criterion_7_waterhouse_oracle():
    with criterion(7, "brute-force census equals trace classification", 300.0):
        for p, n in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)):
            pp = PrimePower(p, n)
            observed = brute_force_census(pp)
            assert observed.trace_set == admissible_traces(pp).traces, f"q={pp.q}"
        f27 = brute_force_census(PrimePower(3, 3))
        assert 25 not in f27.orders
        assert 22 not in f27.orders


def test_criterion_8_property_suites(get_space):
    with criterion(8, "structure properties and rank identities", 60.0):
        # sigma involution and tau order three on every generator, N <= 50
        for N in range(1, 51):
            for sym in p1_list(N):
                pair = right_translate(N, *right_translate(N, *sym, SIGMA), SIGMA)
                assert p1_normalize(N, *pair) == sym
                pair = sym
                for _ in range(3):
                    pair = right_translate(N, *pair, TAU)
                assert p1_normalize(N, *pair) == sym
        # generator counts against the multiplicative index formula
        for N in range(1, 201):
            assert len(p1_list(N)) == index_x0(N)
        # quotient rank = 2g + c - 1 at the nine case levels
        for N in CASE_LEVELS:
            space = get_space(N)
            assert space.quotient_rank == 2 * genus_x0(N) + cusp_count_x0(N) - 1
        # T_2 T_3 = T_6 on the rational quotient
        for N in (91, 143, 169):
            space = get_space(N)
            e = winding_symbol(N)
            t2t3 = hecke_on_row(space, 2, hecke_action(space, 3, e))
            assert quotient_rank_q(space, [row_combination([(1, t2t3), (-1, hecke_action(space, 6, e))])]) == 0
