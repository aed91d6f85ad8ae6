"""Command-line driver: verify, homology, hecke, census, reproduce.

Exit codes: 0 when the requested verification succeeds, 2 when it is
inconclusive (or a census mismatches), 1 on usage or guard errors.

JSON reports are canonical: sorted keys, compact separators, no floats;
evidence witnesses are decimal strings.  Re-serializing a parsed report
with the same settings reproduces it byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .exactmath import PrimePower, factorize
from .gate import ConditionEvidence, GateReport, verify_cyclic_exclusion
from .hecke import generic_winding_expansion, hecke_action, winding_symbol
from .maninspace import (
    build_space,
    cusp_count_x0,
    genus_x0,
    index_x0,
    render_terms,
)
from .redux import BRUTE_FORCE_MAX_Q, admissible_traces, brute_force_census, orders_divisible_by

__all__ = ["CASE_LEVELS", "canonical_json", "main"]

# The nine levels the full run re-verifies: the prime-power cases and the
# composite cases, at degree 3.
CASE_LEVELS = (169, 49, 25, 143, 91, 77, 55, 40, 22)

SCHEMA_VERSION = "1"


def canonical_json(doc) -> str:
    """Deterministic JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _envelope(command: str, inputs: dict, outcome: str, evidence: list[ConditionEvidence], elapsed_ms: int, **extra) -> dict:
    doc = {
        "version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outcome": outcome,
        "evidence": [e.to_json_dict() for e in evidence],
        "timing": {"elapsed_ms": int(elapsed_ms)},
    }
    doc.update(extra)
    return doc


def _emit(args, doc: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    else:
        print("\n".join(text_lines))
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> _Parser:
    parser = _Parser(prog="torsion-gate", description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text", help="output format")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("verify", parents=[common], help="decide one (N, d) exclusion")
    p.add_argument("--N", type=int, required=True, help="torsion order to exclude")
    p.add_argument("--d", type=int, default=3, help="field degree (default 3)")
    p.add_argument("--p-max", type=int, default=97, help="largest witness prime to try")

    p = sub.add_parser("homology", parents=[common], help="symbol-space dimensions at level N")
    p.add_argument("--N", type=int, required=True)

    p = sub.add_parser("hecke", parents=[common], help="T_n applied to the winding symbol (0,1)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="Hecke index (1..30)")

    p = sub.add_parser("census", parents=[common], help="Waterhouse vs brute-force trace census over F_q")
    p.add_argument("--q", type=int, required=True, help="odd prime power, at most 343")
    p.add_argument("--N", type=int, default=None, help="also list admissible orders divisible by N")

    p = sub.add_parser("reproduce", parents=[common], help="re-run all nine exclusions")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--p-max", type=int, default=97)

    return parser


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _report_lines(report: GateReport) -> list[str]:
    lines = [f"cyclic torsion Z/{report.N}Z over degree-{report.d} fields"]
    lines += [f"  {e}" for e in report.evidence]
    tail = f"  (witness prime p={report.witness_prime})" if report.witness_prime else ""
    lines.append(f"outcome: {report.outcome}{tail}  [{report.elapsed_ms} ms]")
    return lines


def cmd_verify(args) -> int:
    # build_space is passed from this module's namespace, not left to the
    # default bound at import, so that perfbench/tracing.py's wrapper of it
    # here sees every space built (reproduce does the same)
    report = verify_cyclic_exclusion(args.N, args.d, p_max=args.p_max, space_factory=build_space)
    doc = _envelope(
        "verify",
        {"N": args.N, "d": args.d, "p_max": args.p_max},
        report.outcome,
        report.evidence,
        report.elapsed_ms,
        witness_prime=None if report.witness_prime is None else str(report.witness_prime),
    )
    _emit(args, doc, _report_lines(report))
    return 0 if report.excluded else 2


def cmd_homology(args) -> int:
    t0 = time.monotonic_ns()
    space = build_space(args.N)
    psi = space.psi
    rank = space.rank_q
    dim = space.quotient_rank
    g = genus_x0(args.N)
    cusps = cusp_count_x0(args.N)
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    consistent = dim == 2 * g + cusps - 1
    ev = ConditionEvidence(
        "homology-dimension",
        consistent,
        (
            ("psi", psi),
            ("relation_rank", rank),
            ("dimension", dim),
            ("genus", g),
            ("cusps", cusps),
        ),
        f"dimension {dim} = psi {psi} - relation rank {rank}; 2g+c-1 = {2 * g + cusps - 1}",
    )
    doc = _envelope("homology", {"N": args.N}, "ok" if consistent else "inconsistent", [ev], elapsed)
    lines = [
        f"level N = {args.N}: index psi = {psi} generators, relation rank {rank}",
        f"  dimension of H_1(X_0({args.N}), cusps) = {dim}",
        f"  genus {g}, {cusps} cusps, 2g+c-1 = {2 * g + cusps - 1} ({'consistent' if consistent else 'INCONSISTENT'})",
    ]
    _emit(args, doc, lines)
    return 0 if consistent else 2


def cmd_hecke(args) -> int:
    if not 1 <= args.n <= 30:
        print("torsion-gate hecke: error: --n must be within 1..30", file=sys.stderr)
        return 1
    t0 = time.monotonic_ns()
    space = build_space(args.N)
    raw = generic_winding_expansion(args.N, args.n)
    vec = hecke_action(space, args.n, winding_symbol(args.N))
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    raw_str = render_terms(raw)
    can_str = str(vec)
    ev = ConditionEvidence(
        "hecke-winding-image",
        True,
        (("N", args.N), ("n", args.n), ("terms", len(vec))),
        f"T_{args.n}(0,1) = {can_str}",
    )
    doc = _envelope(
        "hecke",
        {"N": args.N, "n": args.n},
        "ok",
        [ev],
        elapsed,
        expansion={"generic": raw_str, "canonical": can_str},
    )
    lines = [
        f"T_{args.n}(0,1) at level {args.N}",
        f"  raw translates:  {raw_str}",
        f"  canonical form:  {can_str}",
    ]
    _emit(args, doc, lines)
    return 0


def cmd_census(args) -> int:
    fac = factorize(args.q)
    if len(fac) != 1:
        print(f"torsion-gate census: error: q = {args.q} is not a prime power", file=sys.stderr)
        return 1
    (p, n), = fac
    if p == 2 or args.q > BRUTE_FORCE_MAX_Q:
        print(
            f"torsion-gate census: error: q must be an odd prime power <= {BRUTE_FORCE_MAX_Q}",
            file=sys.stderr,
        )
        return 1
    pp = PrimePower(p, n)
    t0 = time.monotonic_ns()
    predicted = admissible_traces(pp)
    observed = brute_force_census(pp)
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    match = observed.trace_set == predicted.traces
    evidence = [
        ConditionEvidence(
            "waterhouse-census",
            match,
            (
                ("q", pp.q),
                ("hasse_lo", predicted.hasse_lo),
                ("hasse_hi", predicted.hasse_hi),
                ("admissible_count", len(predicted.traces)),
                ("observed_count", len(observed.trace_set)),
            ),
            "brute-force trace set matches the classification"
            if match
            else "brute-force trace set DIFFERS from the classification",
        )
    ]
    lines = [
        f"trace census over F_{pp} (Hasse interval [{predicted.hasse_lo}, {predicted.hasse_hi}])",
        f"  admissible traces: {' '.join(map(str, sorted(predicted.traces)))}",
        f"  brute-force traces: {' '.join(map(str, sorted(observed.trace_set)))}",
        f"  verdict: {'MATCH' if match else 'MISMATCH'}",
    ]
    if args.N is not None:
        hits = sorted(orders_divisible_by(pp, args.N))
        observed_hits = sorted(o for o in observed.orders if o % args.N == 0)
        ok = not hits
        evidence.append(
            ConditionEvidence(
                "orders-divisible-by",
                ok,
                (("N", args.N), ("admissible_hits", len(hits)), ("observed_hits", len(observed_hits))),
                f"orders divisible by {args.N}: " + (("none (no admissible order)") if ok else str(hits)),
            )
        )
        lines.append(
            f"  orders divisible by {args.N}: " + ("none (no admissible order)" if ok else " ".join(map(str, hits)))
        )
    doc = _envelope("census", {"q": args.q, "N": args.N}, "match" if match else "mismatch", evidence, elapsed)
    _emit(args, doc, lines)
    return 0 if match else 2


def cmd_reproduce(args) -> int:
    t0 = time.monotonic_ns()
    reports = [
        verify_cyclic_exclusion(N, args.d, p_max=args.p_max, space_factory=build_space)
        for N in CASE_LEVELS
    ]
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    excluded = sum(r.excluded for r in reports)
    evidence = [
        ConditionEvidence(
            f"exclude-{r.N}",
            r.excluded,
            (("N", r.N), ("d", r.d)) + (() if r.witness_prime is None else (("witness_prime", r.witness_prime),)),
            r.outcome,
        )
        for r in reports
    ]
    all_ok = excluded == len(CASE_LEVELS)
    doc = _envelope(
        "reproduce",
        {"d": args.d, "p_max": args.p_max},
        "all-excluded" if all_ok else "incomplete",
        evidence,
        elapsed,
    )
    lines = [f"re-verifying {len(CASE_LEVELS)} cyclic torsion exclusions at degree d={args.d}"]
    lines.append(f"  {'N':>4}  {'outcome':<18} {'witness':<8} ms")
    for r in reports:
        witness = f"p={r.witness_prime}" if r.witness_prime else "-"
        lines.append(f"  {r.N:>4}  {r.outcome:<18} {witness:<8} {r.elapsed_ms}")
    lines.append(f"summary: {excluded}/{len(CASE_LEVELS)} excluded")
    _emit(args, doc, lines)
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handler = {
        "verify": cmd_verify,
        "homology": cmd_homology,
        "hecke": cmd_hecke,
        "census": cmd_census,
        "reproduce": cmd_reproduce,
    }[args.command]
    try:
        return handler(args)
    except ValueError as exc:  # domain violations (N < 1, p_max < 3, ...)
        print(f"torsion-gate {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
