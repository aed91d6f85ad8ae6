from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torsion_gate import cli, exactmath, gate, hecke, maninspace, redux
from torsion_gate.maninspace import MAX_PSI

from oracles import argparse_parser, canonical_json_by_json, hecke_action_by_normalize


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_verify_excluded(capsys):
    code, out = run_cli(capsys, "verify", "--N", "169", "--d", "3")
    assert code == 0
    assert "excluded-T3" in out
    assert "p=5" in out


def test_verify_method_a(capsys):
    code, out = run_cli(capsys, "verify", "--N", "22", "--d", "3")
    assert code == 0
    assert "excluded-methodA" in out


def test_verify_inconclusive_exit_code(capsys):
    code, out = run_cli(capsys, "verify", "--N", "20", "--d", "3")
    assert code == 2
    assert "inconclusive" in out


def test_verify_usage_error_exit_code(capsys):
    assert cli.main(["verify"]) == 1
    assert cli.main(["nonsense"]) == 1
    assert cli.main(["verify", "--N", "x"]) == 1
    assert cli.main(["verify", "--N", "0"]) == 1
    assert cli.main(["homology", "--N", "0"]) == 1
    assert cli.main(["verify", "--N", "91", "--p-max", "2"]) == 1


@pytest.mark.parametrize(
    "argv", (["verify", "--N", "91", "--d", "4", "--p-max", "2"], ["reproduce", "--d", "4", "--p-max", "0"])
)
def test_p_max_below_three_is_a_usage_error_beyond_the_tables(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torsion-gate {argv[0]}: error: p_max must be >= 3\n"


@pytest.mark.parametrize(
    "argv",
    (
        ["verify", "--N", "10000000", "--d", "1", "--p-max", "3"],
        ["homology", "--N", "10000000"],
        ["hecke", "--N", "10000000", "--n", "2"],
    ),
)
def test_levels_beyond_the_symbol_space_guard_are_usage_errors(capsys, monkeypatch, argv):
    # psi(10^7) >= 10^7 > MAX_PSI: the guard refuses it before P^1 is listed
    monkeypatch.setattr(maninspace, "p1_list", lambda N: pytest.fail(f"p1_list({N}) ran past the guard"))
    assert cli.main([*argv, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"torsion-gate {argv[0]}: error: level guard: psi(10000000) >= 10000000 exceeds {MAX_PSI}\n"


def test_level_under_the_bound_with_psi_over_it_is_a_usage_error(capsys, monkeypatch):
    # 510510 = 2*3*5*7*11*13 <= MAX_PSI, but psi(510510) = 1741824 is not
    monkeypatch.setattr(maninspace, "p1_list", lambda N: pytest.fail(f"p1_list({N}) ran past the guard"))
    assert cli.main(["homology", "--N", "510510"]) == 1
    assert capsys.readouterr() == ("", f"torsion-gate homology: error: level guard: psi(510510) = 1741824 exceeds {MAX_PSI}\n")


@pytest.mark.parametrize("d", ("1", "3", "4"))
def test_verify_refuses_a_level_whose_psi_is_over_the_bound_at_every_degree(capsys, monkeypatch, d):
    # at d = 3 every candidate fails T3/T4 at the even 510510, so no Hecke check
    # would reach build_space, and at d = 4 no search runs: the verdict's own
    # guard answers, with build_space's message
    monkeypatch.setattr(maninspace, "p1_list", lambda N: pytest.fail(f"p1_list({N}) ran past the guard"))
    monkeypatch.setattr(gate, "hasse_gate", lambda *args: pytest.fail(f"hasse_gate{args} ran past the guard"))
    assert cli.main(["verify", "--N", "510510", "--d", d]) == 1
    assert capsys.readouterr() == ("", f"torsion-gate verify: error: level guard: psi(510510) = 1741824 exceeds {MAX_PSI}\n")


@pytest.mark.parametrize(
    "argv, message",
    (
        (["homology", "--N", "10000000000000061"], f"level guard: psi(10000000000000061) >= 10000000000000061 exceeds {MAX_PSI}"),
        (["hecke", "--N", "10000000000000061", "--n", "2"], f"level guard: psi(10000000000000061) >= 10000000000000061 exceeds {MAX_PSI}"),
        (["census", "--q", "10000000000000061"], "q must be an odd prime power <= 343"),
        (["verify", "--N", "10000000000000061", "--d", "3"], f"level guard: psi(10000000000000061) >= 10000000000000061 exceeds {MAX_PSI}"),
        (["verify", "--N", "10000000000000061", "--d", "4"], f"level guard: psi(10000000000000061) >= 10000000000000061 exceeds {MAX_PSI}"),
    ),
    ids=("homology", "hecke", "census", "verify-d3", "verify-d4"),
)
def test_guards_refuse_huge_inputs_before_factoring(capsys, monkeypatch, argv, message):
    # trial division of this 17-digit input takes about ten seconds
    for module in (cli, exactmath, gate, hecke, maninspace, redux):
        if hasattr(module, "factorize"):
            monkeypatch.setattr(module, "factorize", lambda n: pytest.fail(f"factorize({n}) ran before the guard"))
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"torsion-gate {argv[0]}: error: {message}\n")


@pytest.mark.parametrize("argv, levels", ((["verify", "--N", "169"], [169]), (["reproduce"], [169, 143, 91, 77])))
def test_verdicts_build_spaces_through_the_gate_namespace(capsys, monkeypatch, argv, levels):
    # perfbench's tracer wraps build_space in every engine namespace that
    # holds it; the gate must look it up in its own at call time
    built, ranked = [], []
    build, rank = gate.build_space, gate.quotient_rank_mod_p
    monkeypatch.setattr(gate, "build_space", lambda N: built.append(build(N)) or built[-1])
    monkeypatch.setattr(gate, "quotient_rank_mod_p", lambda space, vectors, p: ranked.append(space) or rank(space, vectors, p))
    assert cli.main(argv) == 0
    assert [space.N for space in built] == levels
    assert ranked and all(any(space is b for b in built) for space in ranked)


def test_only_naming_a_column_lists_p1(capsys, monkeypatch):
    # homology never names a class, so it lists no P^1; verify names the winding
    # symbol once per level, in the one canonical check of its Hecke vectors
    listed = []
    p1 = maninspace.p1_list
    monkeypatch.setattr(maninspace, "p1_list", lambda N: listed.append(N) or p1(N))
    for N in ("389", "243", "30"):
        assert cli.main(["homology", "--N", N]) == 0
    assert listed == []
    assert cli.main(["verify", "--N", "169", "--d", "3"]) == 0
    assert listed == [169]


# Run in this order in one process: a usage error, help, census with --N and
# then without it, and each subcommand with its defaults and with every option.
PARSER_SEQUENCE = (
    ("nonsense",),
    ("--help",),
    ("census", "--help"),
    ("census", "--q", "25", "--N", "5"),
    ("census", "--q", "25"),
    ("verify", "--N", "91"),
    ("verify", "--N", "91", "--d", "2", "--p-max", "7", "--format", "json"),
    ("verify", "--N", "x"),
    ("homology", "--N", "11"),
    ("homology", "--N", "11", "--format", "json"),
    ("hecke", "--N", "11", "--n", "2"),
    ("hecke", "--N", "11", "--n", "3", "--format", "json"),
    ("reproduce",),
    ("reproduce", "--d", "2", "--p-max", "5", "--format", "json"),
    ("census", "--q", "27", "--N", "7", "--format", "json"),
    ("verify",),
)


def _parse(parser, argv, capsys):
    try:
        parsed = parser.parse_args(list(argv))
    except SystemExit as exc:
        parsed = exc.code
    return parsed, capsys.readouterr()


def test_shared_parser_parses_like_a_fresh_one(capsys):
    # one parser serves every call: used for the whole sequence, it parses each argv as a fresh one does
    shared = cli.build_parser()
    for argv in PARSER_SEQUENCE:
        assert _parse(shared, argv, capsys) == _parse(cli.build_parser(), argv, capsys), argv
    first = shared.parse_args(["census", "--q", "25", "--N", "5"])
    first.N = 7
    assert shared.parse_args(["census", "--q", "25"]).N is None


def test_main_does_not_depend_on_earlier_calls(capsys, monkeypatch):
    monkeypatch.setattr(time, "monotonic_ns", lambda: 0)  # every elapsed_ms reads 0

    def outputs(order):
        return {argv: (cli.main(list(argv)), capsys.readouterr()) for argv in order}

    expected = outputs(PARSER_SEQUENCE)
    assert outputs(reversed(PARSER_SEQUENCE)) == expected
    assert expected[("--help",)][0] == 0 and expected[("--help",)][1].out.startswith("usage: torsion-gate")
    assert expected[("nonsense",)][0] == 1 and "invalid choice: 'nonsense'" in expected[("nonsense",)][1].err


def test_parser_agrees_with_the_argparse_oracle(capsys):
    # where both parse, the namespaces are equal; otherwise both exit with the same code
    cases = PARSER_SEQUENCE + (
        ("verify", "--N", "--d", "3"),
        ("verify", "--N", "-5"),
        ("verify", "--N=91"),
        ("verify", "--N", "91", "--format=json"),
        ("verify", "--N", "91", "--N", "92"),
        ("verify", "--N", "91", "extra"),
        ("census", "--q", "9", "--workers", "2"),
        (),
    )
    for argv in cases:
        (parsed, _), (want, _) = _parse(cli.build_parser(), argv, capsys), _parse(argparse_parser(), argv, capsys)
        if isinstance(want, argparse.Namespace):
            assert vars(parsed) == vars(want), argv
        else:
            assert parsed == want, argv


VERIFY_USAGE = "usage: torsion-gate verify [-h] [--format {text,json}] --N N [--d D] [--p-max P_MAX]\n"
TOP_USAGE = "usage: torsion-gate [-h] {verify,homology,hecke,census,reproduce} ...\n"


@pytest.mark.parametrize(
    "argv, err",
    (
        ([], TOP_USAGE + "torsion-gate: error: the following arguments are required: command\n"),
        (
            ["nonsense"],
            TOP_USAGE + "torsion-gate: error: argument command: invalid choice: 'nonsense' "
            "(choose from 'verify', 'homology', 'hecke', 'census', 'reproduce')\n",
        ),
        (["verify"], VERIFY_USAGE + "torsion-gate verify: error: the following arguments are required: --N\n"),
        (
            ["hecke"],
            "usage: torsion-gate hecke [-h] [--format {text,json}] --N N --n N\n"
            "torsion-gate hecke: error: the following arguments are required: --N, --n\n",
        ),
        (["verify", "--N", "x"], VERIFY_USAGE + "torsion-gate verify: error: argument --N: invalid int value: 'x'\n"),
        (["verify", "--N", "--d", "3"], VERIFY_USAGE + "torsion-gate verify: error: argument --N: expected one argument\n"),
        (["verify", "--d", "2", "--N"], VERIFY_USAGE + "torsion-gate verify: error: argument --N: expected one argument\n"),
        (
            ["verify", "--N", "91", "--format", "xml"],
            VERIFY_USAGE + "torsion-gate verify: error: argument --format: invalid choice: 'xml' (choose from 'text', 'json')\n",
        ),
        (
            ["census", "--q", "9", "--workers", "2"],
            TOP_USAGE + "torsion-gate: error: unrecognized arguments: --workers 2\n",
        ),
        (["verify", "--N", "91", "extra"], TOP_USAGE + "torsion-gate: error: unrecognized arguments: extra\n"),
        # options are exact names, with no prefix abbreviations
        (["verify", "--p", "7", "--N", "91"], TOP_USAGE + "torsion-gate: error: unrecognized arguments: --p 7\n"),
    ),
)
def test_usage_errors_print_the_usage_line_and_one_error_line(capsys, argv, err):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", err)


def test_a_5000_digit_level_is_a_usage_error(capsys):
    # int() refuses it (3.11+), or verify's level guard does (3.10)
    assert cli.main(["verify", "--N", "9" * 5000]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


COLD_JSON_CALLS = (
    ["verify", "--N", "169"],
    ["reproduce"],
    ["homology", "--N", "169"],
    ["hecke", "--N", "169", "--n", "5"],
    ["census", "--q", "27", "--N", "25"],
)


def test_cold_cli_calls_import_neither_argparse_nor_typing_nor_json():
    # a fresh interpreter without site, which on some installs loads typing, re and enum itself
    child = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "from torsion_gate import cli\n"
        f"codes = [cli.main(['census', '--q', '3'])] + [cli.main(a + ['--format', 'json']) for a in {COLD_JSON_CALLS}]\n"
        "modules = ('argparse', 'gettext', 'locale', 'typing', 'json', 're', 'enum')\n"
        "print(*codes, *[m for m in modules if m in sys.modules])\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", child, src], capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines(keepends=True)
    assert lines[-1] == "0" + " 0" * len(COLD_JSON_CALLS) + "\n"
    reports = lines[-1 - len(COLD_JSON_CALLS):-1]
    assert [json.loads(r)["command"] for r in reports] == [a[0] for a in COLD_JSON_CALLS]
    assert all(canonical_json_by_json(json.loads(r)) == r for r in reports)


def _random_string(rng: random.Random) -> str:
    alphabet = rng.choice((range(128), range(32, 127), range(97, 123)))  # any ASCII, printable, plain
    return "".join(map(chr, rng.choices(alphabet, k=rng.randrange(8))))


def _random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(9 if depth < 3 else 6)
    if kind < 2:
        return rng.randint(-10**20, 10**20)
    if kind == 2:
        return rng.choice((True, False, None))
    if kind < 6:
        return _random_string(rng)
    items = [_random_value(rng, depth + 1) for _ in range(rng.randrange(5))]
    if kind == 6:
        return {_random_string(rng): v for v in items}
    return items if kind == 7 else tuple(items)


def test_canonical_json_writes_what_the_json_oracle_writes():
    rng = random.Random(31)
    for _ in range(20000):
        doc = _random_value(rng)
        assert cli.canonical_json(doc) == canonical_json_by_json(doc), doc


@pytest.mark.parametrize(
    "value, want",
    [
        ("\x7f", r'"\u007f"'),
        ('"', r'"\""'),
        ("\\", r'"\\"'),
        ("\t", r'"\t"'),
        ("\x00", r'"\u0000"'),
        (-123456789012345678901234567890, "-123456789012345678901234567890"),
        ({"b": [1, (True, None)], "a": {}}, '{"a":{},"b":[1,[true,null]]}'),
    ],
)
def test_canonical_json_pins(value, want):
    assert cli.canonical_json(value) == want + "\n"


@pytest.mark.parametrize(
    "value, error",
    [
        (1.5, TypeError),
        ({1}, TypeError),
        ({1: 2}, TypeError),  # json.dumps would write the key as "1"
        (gate.ConditionEvidence("name", True), TypeError),  # json.dumps would write a list
        ({"a": 1, 2: 3}, TypeError),
        ("\u00e9", ValueError),
        ({"\u00e9": 1}, ValueError),
    ],
)
def test_canonical_json_rejects_what_no_report_holds(value, error):
    with pytest.raises(error):
        cli.canonical_json(value)


def test_shared_parser_prints_to_the_streams_of_each_call():
    # the parser outlives any one redirect, so it must look the streams up when it prints
    for _ in range(2):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["--help"]) == 0
            assert cli.main(["nonsense"]) == 1
        assert out.getvalue().startswith("usage: torsion-gate")
        assert "invalid choice: 'nonsense'" in err.getvalue()


def test_verify_json_roundtrip(capsys):
    code, out = run_cli(capsys, "verify", "--N", "91", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical_json_by_json(doc) == out
    assert doc["version"] == "1"
    assert doc["command"] == "verify"
    assert doc["outcome"] == "excluded-T4"
    assert doc["witness_prime"] == "3"
    assert doc["inputs"] == {"N": 91, "d": 3, "p_max": 97}
    assert isinstance(doc["timing"]["elapsed_ms"], int)
    names = [e["name"] for e in doc["evidence"]]
    assert names == ["gonality-x0", "hasse-gate", "t4-coprimality", "hecke-independence"]


def test_homology_dimensions(capsys):
    code, out = run_cli(capsys, "homology", "--N", "22")
    assert code == 0
    assert "dimension of H_1(X_0(22), cusps) = 7" in out
    code, out = run_cli(capsys, "homology", "--N", "11")
    assert code == 0
    assert "= 3" in out


def test_homology_json(capsys):
    code, out = run_cli(capsys, "homology", "--N", "49", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical_json_by_json(doc) == out
    witnesses = doc["evidence"][0]["witnesses"]
    assert witnesses["psi"] == "56"
    assert witnesses["dimension"] == "9"
    assert witnesses["genus"] == "1"
    assert witnesses["cusps"] == "8"


def test_hecke_output(capsys):
    code, out = run_cli(capsys, "hecke", "--N", "169", "--n", "2")
    assert code == 0
    assert "2(0,1)+(0,2)+(1,2)" in out  # raw translates, sorted
    assert "3(0,1)+(1,2)" in out  # canonical accumulation
    code, out = run_cli(capsys, "hecke", "--N", "2", "--n", "2")
    assert code == 0
    assert "2(0,1)+(1,0)" in out


@pytest.mark.parametrize("N", (169, 1001, 2431))
def test_hecke_canonical_form_matches_normalize_oracle(capsys, N):
    # the canonical form is rendered in symbol order, whatever the column
    # order, so it is the oracle's terms sorted; 1001 and 2431 are composite,
    # where the mixed-radix columns are not in symbol order
    for n in range(1, 7):
        code, out = run_cli(capsys, "hecke", "--N", str(N), "--n", str(n), "--format", "json")
        assert code == 0
        want = cli.render_terms(sorted(hecke_action_by_normalize(N, n, (0, 1)).items()))
        assert json.loads(out)["expansion"]["canonical"] == want, (N, n)


def test_render_terms():
    assert cli.render_terms([((0, 1), 2), ((1, 2), 1)]) == "2(0,1)+(1,2)"
    assert cli.render_terms([((0, 1), 1)]) == "(0,1)"
    assert cli.render_terms([((0, 1), 1), ((1, 0), 12)]) == "(0,1)+12(1,0)"


def test_hecke_index_guard(capsys):
    for n in ("0", "31"):
        assert cli.main(["hecke", "--N", "169", "--n", n]) == 1
        assert capsys.readouterr() == ("", "torsion-gate hecke: error: --n must be within 1..30\n")


def test_census_match(capsys):
    code, out = run_cli(capsys, "census", "--q", "27")
    assert code == 0
    assert "MATCH" in out
    code, out = run_cli(capsys, "census", "--q", "27", "--N", "25")
    assert code == 0
    assert "none (no admissible order)" in out
    code, out = run_cli(capsys, "census", "--q", "9", "--N", "22")
    assert code == 0
    assert "none (no admissible order)" in out


def test_census_guards(capsys):
    guard = "torsion-gate census: error: q must be an odd prime power <= 343\n"
    for q in ("4", "729", "-3", "-1", "1"):  # characteristic 2; over the size guard; below 3, never factored
        assert cli.main(["census", "--q", q]) == 1
        assert capsys.readouterr() == ("", guard)
    assert cli.main(["census", "--q", "15"]) == 1  # not a prime power
    assert capsys.readouterr().err == "torsion-gate census: error: q = 15 is not a prime power\n"


def test_census_refuses_nonpositive_N_before_the_scan(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_force_census", lambda pp: pytest.fail(f"census over F_{pp} ran before the N check"))
    assert cli.main(["census", "--q", "27", "--N", "0"]) == 1
    assert capsys.readouterr() == ("", "torsion-gate census: error: N must be positive\n")


def test_census_json(capsys):
    code, out = run_cli(capsys, "census", "--q", "9", "--N", "22", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical_json_by_json(doc) == out
    assert doc["outcome"] == "match"
    assert doc["evidence"][1]["witnesses"]["admissible_hits"] == "0"


def test_reproduce_default_run(capsys):
    code, out = run_cli(capsys, "reproduce")
    assert code == 0
    assert "summary: 9/9 excluded" in out
    for N in cli.CASE_LEVELS:
        assert f"{N}" in out


def test_reproduce_json_and_low_p_max(capsys):
    # with the search capped at p = 3 the level 169 loses its witness
    code, out = run_cli(capsys, "reproduce", "--p-max", "3", "--format", "json")
    assert code == 2
    doc = json.loads(out)
    assert canonical_json_by_json(doc) == out
    assert doc["outcome"] == "incomplete"
    byname = {e["name"]: e for e in doc["evidence"]}
    assert byname["exclude-169"]["passed"] is False
    assert byname["exclude-143"]["passed"] is True


def test_reproduce_json_is_deterministic(capsys):
    code1, out1 = run_cli(capsys, "reproduce", "--format", "json")
    code2, out2 = run_cli(capsys, "reproduce", "--format", "json")
    assert code1 == code2 == 0
    doc1, doc2 = json.loads(out1), json.loads(out2)
    doc1.pop("timing"), doc2.pop("timing")
    assert doc1 == doc2


def test_verify_beyond_gonality_tables(capsys):
    code, out = run_cli(capsys, "verify", "--N", "91", "--d", "4")
    assert code == 2
    assert "inconclusive" in out


def test_hecke_identity_index(capsys):
    code, out = run_cli(capsys, "hecke", "--N", "169", "--n", "1")
    assert code == 0
    assert "canonical form:  (0,1)" in out


def test_reproduce_degree_one_smoke(capsys):
    code, out = run_cli(capsys, "reproduce", "--d", "1")
    assert code in (0, 2)
    assert "summary:" in out


def test_workers_flag_is_a_usage_error(capsys):
    assert cli.main(["census", "--q", "9", "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert "unrecognized arguments: --workers 2" in err
    assert "Traceback" not in err


def test_cache_flag_is_a_usage_error(capsys, tmp_path):
    assert cli.main(["homology", "--N", "40", "--cache", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: --cache {tmp_path}" in err
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_closed_stdout_exits_quietly():
    # like `torsion-gate reproduce | head -c 0`: the reader is gone before any write
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "torsion_gate.cli", "reproduce"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == b""
