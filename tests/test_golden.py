"""Pinned reports: each call's JSON outside ``timing``, its exit code and its stderr.

``tests/golden/reports.json`` maps each call's arguments, joined by spaces,
to its exit code, its stderr and its JSON report without ``timing``.  The
calls reach every evidence branch of the verdict chain: the T3 and T4
routes, method A, a gonality failure off the finite-Jacobian table, an
exhausted and a capped witness search, and d > 3.  The census calls
cover both slices of the characteristic-3 scan (27, 243), fields of
degree 3, 4 and 5 (27, 343, 81, 243), q at the size guard (343) and
``--N`` with and without admissible hits.  The composite levels 30, 1001
and 2431 pin ``hecke``, ``homology`` and ``verify`` where the columns are
numbered over several prime powers; at 30 the factor 2 has a sigma-fixed
point.  The prime powers 625, 1024 (p = 2) and 2187 = 3^7 pin the local
classes (p^j, w) of every depth j < e, and the prime 10007 a local space
far beyond the benchmark's primes.

``tests/golden/text_reports.json`` maps the calls of ``TEXT_CALLS`` to
their ``--format text`` output, with the millisecond fields masked: the
``[N ms]`` tail of ``verify`` and the last column of ``reproduce``.  The
census calls are pinned as text too, since the text report lists every
admissible and observed trace while the JSON keeps only their counts.

Regenerate both files with ``PYTHONPATH=src python tests/test_golden.py``
only when a report is meant to change, and review the diff.
"""

from __future__ import annotations

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from torsion_gate import cli

GOLDEN = Path(__file__).with_name("golden") / "reports.json"
TEXT_GOLDEN = GOLDEN.with_name("text_reports.json")

GOLDEN_CALLS = (
    "verify --N 169 --d 3",
    "verify --N 91 --d 3",
    "verify --N 22 --d 3",
    "verify --N 20 --d 3",
    "verify --N 97 --d 3",
    "verify --N 121 --d 3",
    "verify --N 169 --d 3 --p-max 3",
    "verify --N 91 --d 4",
    "verify --N 2431 --d 3",
    "reproduce --d 1",
    "reproduce --d 2",
    "reproduce --d 3",
    "homology --N 169",
    "homology --N 1001",
    "hecke --N 169 --n 5",
    "hecke --N 2431 --n 6",
    "hecke --N 30 --n 5",
    "homology --N 625",
    "homology --N 2187",
    "hecke --N 1024 --n 30",
    "hecke --N 2187 --n 30",
    "hecke --N 10007 --n 30",
    "census --q 27 --N 25",
    "census --q 243 --N 22",
    "census --q 343 --N 7",
    "census --q 81",
)

TEXT_CALLS = (
    "verify --N 169 --d 3",
    "verify --N 22 --d 3",
    "verify --N 20 --d 3",
    "reproduce --d 3",
    "homology --N 169",
    "hecke --N 169 --n 5",
    "census --q 27 --N 25",
    "census --q 3",
    "census --q 243 --N 22",
    "census --q 343 --N 7",
)

# verify's "[N ms]" tail, and the ms column that ends each row of reproduce's table
MS_FIELDS = re.compile(r"\[\d+ ms\]$|(?<=^  [ \d]{4}  )(\S+ +\S+ +)\d+$", re.M)


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def run(call: str) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(call.split() + ["--format", "json"])
    doc = json.loads(out.getvalue())
    assert out.getvalue() == canonical(doc)
    del doc["timing"]
    return {"exit": code, "stderr": err.getvalue(), "report": doc}


def run_text(call: str) -> str:
    """The call's text report, its millisecond fields masked as ``_``."""
    out = io.StringIO()
    with redirect_stdout(out):
        cli.main(call.split())
    return MS_FIELDS.sub(lambda m: "[_ ms]" if m[1] is None else m[1] + "_", out.getvalue())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def text_golden() -> dict:
    return json.loads(TEXT_GOLDEN.read_text())


def test_golden_covers_exactly_the_pinned_calls(golden):
    assert sorted(golden) == sorted(GOLDEN_CALLS)


@pytest.mark.parametrize("call", GOLDEN_CALLS)
def test_report_matches_golden(call, golden):
    got, want = run(call), golden[call]
    assert (got["exit"], got["stderr"]) == (want["exit"], want["stderr"])
    assert canonical(got["report"]) == canonical(want["report"])


def test_text_golden_covers_exactly_the_pinned_calls(text_golden):
    assert sorted(text_golden) == sorted(TEXT_CALLS)


@pytest.mark.parametrize("call", TEXT_CALLS)
def test_text_report_matches_golden(call, text_golden):
    assert run_text(call) == text_golden[call]


if __name__ == "__main__":
    table = {call: run(call) for call in GOLDEN_CALLS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(table, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(table)} reports to {GOLDEN}")
    texts = {call: run_text(call) for call in TEXT_CALLS}
    TEXT_GOLDEN.write_text(json.dumps(texts, sort_keys=True, indent=1) + "\n")
    print(f"wrote {len(texts)} text reports to {TEXT_GOLDEN}")
