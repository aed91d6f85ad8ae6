"""Command-line driver: verify, homology, hecke, census, reproduce.

Exit codes: 0 when the requested verification succeeds, 2 when it is
inconclusive (or a census mismatches), 1 on usage or guard errors.

JSON reports are canonical: sorted keys, compact separators, no floats;
evidence witnesses are decimal strings.  :func:`canonical_json` writes them
without the json module; json.dumps with the same settings re-serializes a
parsed report byte for byte.

One option table, :data:`COMMANDS`, parses argv and prints each usage line
and ``--help``.  Options are exact flags, ``--flag value`` or ``--flag=value``
in any order; the last of a repeated flag wins.  A usage error prints the
usage line and argparse's ``PROG: error: MSG`` on stderr and exits 1.
"""

import os
import sys
import time
from types import SimpleNamespace

from .exactmath import PrimePower, factorize
from .gate import ConditionEvidence, verify_cyclic_exclusion
from .hecke import generic_winding_expansion, hecke_action, winding_symbol
from .maninspace import build_space, cusp_count_x0, genus_x0
from .redux import _check_census_q, admissible_traces, brute_force_census

__all__ = ["CASE_LEVELS", "canonical_json", "main"]

# The nine levels the full run re-verifies: the prime-power cases and the
# composite cases, at degree 3.
CASE_LEVELS = (169, 49, 25, 143, 91, 77, 55, 40, 22)

SCHEMA_VERSION = "1"
PROG = "torsion-gate"


def canonical_json(doc) -> str:
    """``json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\\n"``, byte for byte, for a report.

    Its values are dicts with str keys, lists, tuples, ASCII strings, ints, bools and None.  Another type
    raises TypeError (a float, a set, a namedtuple, a key that is not a str), and a non-ASCII string ValueError."""
    return _encode(doc) + "\n"


# json.dumps's escapes in ASCII: the quote, the backslash, and the C0 controls and DEL as \u00XX, five in short form
_ESCAPES = {c: f"\\u{c:04x}" for c in [*range(32), 127]} | {
    34: '\\"', 92: "\\\\", 8: "\\b", 9: "\\t", 10: "\\n", 12: "\\f", 13: "\\r"}


def _plain(s: str) -> bool:  # whether JSON writes s as it is: printable ASCII, no quote or backslash
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _string(s: str) -> str:
    if not s.isascii():
        raise ValueError(f"report strings are ASCII: {s!r}")
    return f'"{s}"' if _plain(s) else f'"{s.translate(_ESCAPES)}"'


def _encode(x) -> str:
    t = type(x)  # not isinstance, to which a bool is an int and a namedtuple a tuple
    if t is str:
        return _string(x)
    if t is int:
        return int.__repr__(x)
    if t is dict:
        keys = sorted(x)
        if _plain("".join(keys)):  # a TypeError unless every key is a str
            return "{" + ",".join([f'"{k}":{_encode(x[k])}' for k in keys]) + "}"
        return "{" + ",".join([f"{_string(k)}:{_encode(x[k])}" for k in keys]) + "}"
    if t is list or t is tuple:
        return "[" + ",".join(map(_encode, x)) + "]"
    if t is bool or x is None:
        return "true" if x else "false" if x is False else "null"
    raise TypeError(f"a report holds no value of type {t.__name__}")


def _emit(args, outcome: str, evidence: list[ConditionEvidence], lines: list[str], elapsed_ms: int, **extra) -> None:
    """Print one report: the JSON envelope, whose inputs are the parsed options, or the text lines."""
    if args.format == "json":
        doc = {
            "version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k not in ("command", "format")},
            "outcome": outcome,
            "evidence": [{**e._asdict(), "witnesses": {k: str(v) for k, v in e.witnesses}} for e in evidence],
            "timing": {"elapsed_ms": int(elapsed_ms)},
            **extra,
        }
        sys.stdout.write(canonical_json(doc))
    else:
        print("\n".join(lines))
    sys.stdout.flush()  # a closed pipe raises here, inside main, not at exit


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def render_terms(terms) -> str:
    """Compact rendering like ``2(0,1)+(1,2)``; terms must be presorted.

    Both callers count Merel translates, so every coefficient is positive,
    and the sum is never empty: the matrix [[n, 0], [0, 1]] keeps (0, 1).
    """
    return "+".join(f"{'' if c == 1 else c}({u},{v})" for (u, v), c in terms)


def _evidence_line(e: ConditionEvidence) -> str:
    flag = "pass" if e.passed else "FAIL"
    parts = ", ".join(f"{k}={v}" for k, v in e.witnesses)
    tail = f"  [{parts}]" if parts else ""
    return f"  [{flag}] {e.name}: {e.detail}{tail}"


def cmd_verify(args) -> int:
    report = verify_cyclic_exclusion(args.N, args.d, p_max=args.p_max)
    witness = report.witness_prime
    lines = [f"cyclic torsion Z/{report.N}Z over degree-{report.d} fields", *map(_evidence_line, report.evidence)]
    tail = f"  (witness prime p={witness})" if witness else ""
    lines.append(f"outcome: {report.outcome}{tail}  [{report.elapsed_ms} ms]")
    witness_json = None if witness is None else str(witness)
    _emit(args, report.outcome, report.evidence, lines, report.elapsed_ms, witness_prime=witness_json)
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
    lines = [
        f"level N = {args.N}: index psi = {psi} generators, relation rank {rank}",
        f"  dimension of H_1(X_0({args.N}), cusps) = {dim}",
        f"  genus {g}, {cusps} cusps, 2g+c-1 = {2 * g + cusps - 1} ({'consistent' if consistent else 'INCONSISTENT'})",
    ]
    _emit(args, "ok" if consistent else "inconsistent", [ev], lines, elapsed)
    return 0 if consistent else 2


def cmd_hecke(args) -> int:
    if not 1 <= args.n <= 30:
        raise ValueError("--n must be within 1..30")
    t0 = time.monotonic_ns()
    space = build_space(args.N)
    raw = generic_winding_expansion(args.N, args.n)
    vec = hecke_action(space, args.n, winding_symbol(args.N))
    elapsed = (time.monotonic_ns() - t0) // 1_000_000
    raw_str = render_terms(raw)
    can_str = render_terms(sorted((space.symbol(k), c) for k, c in vec.items()))
    ev = ConditionEvidence(
        "hecke-winding-image",
        True,
        (("N", args.N), ("n", args.n), ("terms", len(vec))),
        f"T_{args.n}(0,1) = {can_str}",
    )
    lines = [
        f"T_{args.n}(0,1) at level {args.N}",
        f"  raw translates:  {raw_str}",
        f"  canonical form:  {can_str}",
    ]
    _emit(args, "ok", [ev], lines, elapsed, expansion={"generic": raw_str, "canonical": can_str})
    return 0


def cmd_census(args) -> int:
    _check_census_q(args.q)  # before factoring q, which takes seconds at q ~ 10^16
    fac = factorize(args.q)
    if len(fac) != 1:
        raise ValueError(f"q = {args.q} is not a prime power")
    if args.N is not None and args.N < 1:
        raise ValueError("N must be positive")
    (p, n), = fac
    pp = PrimePower(p, n)
    t0 = time.monotonic_ns()
    observed = brute_force_census(pp)
    predicted = admissible_traces(pp)
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
        hits = sorted(o for o in predicted.orders if o % args.N == 0)
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
    _emit(args, "match" if match else "mismatch", evidence, lines, elapsed)
    return 0 if match else 2


def cmd_reproduce(args) -> int:
    t0 = time.monotonic_ns()
    reports = [verify_cyclic_exclusion(N, args.d, p_max=args.p_max) for N in CASE_LEVELS]
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
    lines = [f"re-verifying {len(CASE_LEVELS)} cyclic torsion exclusions at degree d={args.d}"]
    lines.append(f"  {'N':>4}  {'outcome':<18} {'witness':<8} ms")
    for r in reports:
        witness = f"p={r.witness_prime}" if r.witness_prime else "-"
        lines.append(f"  {r.N:>4}  {r.outcome:<18} {witness:<8} {r.elapsed_ms}")
    lines.append(f"summary: {excluded}/{len(CASE_LEVELS)} excluded")
    _emit(args, "all-excluded" if all_ok else "incomplete", evidence, lines, elapsed)
    return 0 if all_ok else 2


# ---------------------------------------------------------------------------

# The option table: each command's handler, help line and options, flag ->
# (default, help line).  A default of ... makes the option required.  Every
# value but --format's is read with int().
FORMATS = ("text", "json")
_FORMAT = {"--format": ("text", "output format")}
_DEGREE = {"--d": (3, "field degree"), "--p-max": (97, "largest witness prime to try")}
COMMANDS = {
    "verify": (cmd_verify, "decide one (N, d) exclusion", {
        **_FORMAT, "--N": (..., "torsion order to exclude"), **_DEGREE,
    }),
    "homology": (cmd_homology, "symbol-space dimensions at level N", {**_FORMAT, "--N": (..., "level")}),
    "hecke": (cmd_hecke, "T_n applied to the winding symbol (0,1)", {
        **_FORMAT, "--N": (..., "level"), "--n": (..., "Hecke index (1..30)"),
    }),
    "census": (cmd_census, "Waterhouse vs brute-force trace census over F_q", {
        **_FORMAT, "--q": (..., "odd prime power, at most 343"),
        "--N": (None, "also list admissible orders divisible by N"),
    }),
    "reproduce": (cmd_reproduce, "re-run all nine exclusions", {**_FORMAT, **_DEGREE}),
}


class _Parser:
    """Parses argv by :data:`COMMANDS`, and prints usage lines and help from it (see the module docstring)."""

    def parse_args(self, argv=None) -> SimpleNamespace:
        command, *rest = (sys.argv[1:] if argv is None else list(argv)) or [None]
        if command in ("-h", "--help"):
            self.help()
        if command not in COMMANDS:
            choices = ", ".join(map(repr, COMMANDS))
            self.error("the following arguments are required: command" if command is None
                       else f"argument command: invalid choice: {command!r} (choose from {choices})")
        options, values, extras = COMMANDS[command][2], {}, []
        tokens = iter(rest)
        for token in tokens:
            if token in ("-h", "--help"):
                self.help(command)
            flag, eq, value = token.partition("=")
            if flag not in options:
                extras.append(token)
                continue
            if not eq:  # the value is the next token, unless that reads as a flag
                value = next(tokens, None)
                if value is None or value.startswith("-") and not value[1:].isdecimal():
                    self.error(f"argument {flag}: expected one argument", command)
            if flag == "--format" and value not in FORMATS:
                self.error(f"argument --format: invalid choice: {value!r} (choose from 'text', 'json')", command)
            try:
                values[flag] = value if flag == "--format" else int(value)
            except ValueError:
                self.error(f"argument {flag}: invalid int value: {value!r}", command)
        missing = [flag for flag, (default, _) in options.items() if default is ... and flag not in values]
        if missing:
            self.error(f"the following arguments are required: {', '.join(missing)}", command)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        dests = {flag[2:].replace("-", "_"): values.get(flag, default) for flag, (default, _) in options.items()}
        return SimpleNamespace(command=command, **dests)

    def usage(self, command: str | None = None) -> str:
        if command is None:
            return f"usage: {PROG} [-h] {{{','.join(COMMANDS)}}} ..."
        parts = [_spec(f) if d is ... else f"[{_spec(f)}]" for f, (d, _) in COMMANDS[command][2].items()]
        return " ".join([f"usage: {PROG} {command} [-h]", *parts])

    def error(self, message: str, command: str | None = None):
        prog = PROG if command is None else f"{PROG} {command}"
        print(self.usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
        raise SystemExit(1)

    def help(self, command: str | None = None):
        if command is None:
            title, rows = __doc__.splitlines()[0], {name: text for name, (_, text, _) in COMMANDS.items()}
        else:
            _, title, opts = COMMANDS[command]
            rows = {_spec(f): text if d in (..., None) else f"{text} (default {d})" for f, (d, text) in opts.items()}
        width = max(map(len, rows)) + 2
        print(self.usage(command), "", title, "", *(f"  {k:<{width}}{v}" for k, v in rows.items()), sep="\n")
        raise SystemExit(0)


def _spec(flag: str) -> str:
    """The flag and its metavar, as argparse names them: ``--format {text,json}``, ``--p-max P_MAX``."""
    return f"{flag} {{{','.join(FORMATS)}}}" if flag == "--format" else f"{flag} {flag[2:].replace('-', '_').upper()}"


def build_parser() -> _Parser:
    """The argument parser, which reads the option table :data:`COMMANDS`; it holds no state."""
    return _Parser()


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return COMMANDS[args.command][0](args)
    except ValueError as exc:  # usage and domain errors (--n out of range, N < 1, p_max < 3, ...)
        print(f"{PROG} {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit cannot fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
