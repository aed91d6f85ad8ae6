"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about ten seconds:

1. every pinned pool entry agrees with independent formulas: a homology
   dimension equals 2g + c - 1 for the genus and cusp count of X_0(N), and
   a census count equals the size of the Waterhouse-admissible trace set;
2. seed 0 gives the reference operation lists described in README.md;
3. a corrupted pinned witness prime is counted as a failed call;
4. a quick run in each mode reports exactly the metrics named in
   BENCHMARK.json, with their units, and records a call in every layer.

Exits 0 when all pass, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import workloads

REFERENCE = {
    "symbol-space": [
        "reproduce --d 3 --p-max 97",
        "verify --N 1001 --d 3",
        "verify --N 2431 --d 3",
        "homology --N 169",
        "homology --N 243",
        "homology --N 389",
    ],
    "census-sweep": ["census --q 25", "census --q 27", "census --q 49", "census --q 81"],
}

# small enough to pass in a fraction of a second, yet reaching every layer
QUICK_OPS = [workloads.reproduce_op(97), workloads.homology_op(169), workloads.census_op(25)]
ALL_LAYERS = tuple(dict.fromkeys(name for layers in workloads.EXPECTED_LAYERS.values() for name in layers))


def check_pins(failures: list[str]) -> None:
    from torsion_gate.exactmath import factorize, PrimePower
    from torsion_gate.maninspace import cusp_count_x0, genus_x0, index_x0
    from torsion_gate.redux import admissible_traces

    for N, (psi, rank, dim, genus, cusps) in workloads.HOMOLOGY.items():
        if dim != 2 * genus + cusps - 1 or dim != psi - rank:
            failures.append(f"homology pin {N}: dimension {dim} != 2g+c-1 or psi - rank")
        if (psi, genus, cusps) != (index_x0(N), genus_x0(N), cusp_count_x0(N)):
            failures.append(f"homology pin {N}: psi, genus or cusps disagree with the X_0(N) formulas")
    for q, count in workloads.CENSUS.items():
        ((p, n),) = factorize(q)
        if count != len(admissible_traces(PrimePower(p, n)).traces):
            failures.append(f"census pin {q}: {count} != number of admissible traces")


def check_reference_seed(failures: list[str]) -> None:
    for name, expected in REFERENCE.items():
        got = [" ".join(op.argv) for op in workloads.operations(name, 0)]
        if got != expected:
            failures.append(f"seed 0 of {name} gives {got}, expected {expected}")


def check_corrupted_witness(cli, failures: list[str]) -> None:
    good = workloads.verify_op(143)
    bad = dataclasses.replace(good, expect=good.expect[:-1] + ("5",))
    result, detail = run.benchmark(cli, [good, bad], (), (), 0.2, trace=False)
    if result["correct"] or detail["fail_ratio"] != 0.5 or result["failed"] * 2 != result["attempted"]:
        failures.append(f"corrupted witness prime not counted: {result['failed']}/{result['attempted']} failed")


def check_metric_names(cli, failures: list[str]) -> None:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result, detail = run.benchmark(cli, QUICK_OPS, (), ALL_LAYERS, 0.5, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            failures.append(f"{key} metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))} {got}")
        if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"]:
            failures.append(f"quick {key} run failed: {detail['errors']}")


def main() -> int:
    cli = run.import_cli()
    failures: list[str] = []
    check_pins(failures)
    check_reference_seed(failures)
    check_corrupted_witness(cli, failures)
    check_metric_names(cli, failures)
    for line in failures:
        print(f"FAIL {line}")
    print("selftest: ok" if not failures else f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
