from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from torsion_gate import cli


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


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


def test_verify_json_roundtrip(capsys):
    code, out = run_cli(capsys, "verify", "--N", "91", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical(doc) == out
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
    assert canonical(doc) == out
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


def test_hecke_index_guard(capsys):
    assert cli.main(["hecke", "--N", "169", "--n", "31"]) == 1
    assert cli.main(["hecke", "--N", "169", "--n", "0"]) == 1


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
    assert cli.main(["census", "--q", "4"]) == 1  # characteristic 2
    assert cli.main(["census", "--q", "729"]) == 1  # over the size guard
    assert cli.main(["census", "--q", "15"]) == 1  # not a prime power


def test_census_json(capsys):
    code, out = run_cli(capsys, "census", "--q", "9", "--N", "22", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert canonical(doc) == out
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
    assert canonical(doc) == out
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
