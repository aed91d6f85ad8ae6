"""Benchmark for torsion-gate: one closed-loop client, one CLI call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The engine is imported from ``src/`` next to this directory and driven
in-process through ``torsion_gate.cli.main([..., "--format", "json"])``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps each layer's public functions and reports
per-layer self times and work counts.  Every CLI call's verdict is checked
against the pinned value of its input.  The last line of standard output
is the result as one JSON object; the line before it records the inputs,
sample counts and machine facts.  See README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_PASSES = 3  # untraced passes per run, even when one pass outlasts --seconds
MAX_MEASURE_S = 120.0  # but never start a pass expected to end later than this, so a run ends within 180 s
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
SETUP_REPEATS = 5  # fresh interpreters timed per run for setup_s
CHILD_TIMEOUT_S = 150

# A fresh interpreter's cost before the first CLI call can run.
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from torsion_gate import cli
cli.build_parser()
print(time.perf_counter() - t0)
"""


def import_cli():
    """Import the engine from this checkout's sources, never from elsewhere."""
    package = SRC / "torsion_gate"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"perfbench: no engine sources at {package}")
    sys.path.insert(0, str(SRC))
    from torsion_gate import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported torsion_gate from {cli.__file__}, not {package}")
    return cli


def run_pass(cli, ops) -> tuple[float, float, list]:
    """Wall and CPU seconds of one pass, and each call's (exit code, stdout)."""
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main([*op.argv, "--format", "json"])
        except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
            code = f"raised {type(exc).__name__}: {exc}"
        outputs.append((code, out.getvalue()))
    return time.perf_counter() - wall0, time.process_time() - cpu0, outputs


def check(ops, outputs) -> list[str]:
    """Verdict errors of one pass, one entry per failed call."""
    errors = []
    for op, (code, text) in zip(ops, outputs):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = None
        errors += op.check(code, doc)
    return errors


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest tail percentile with at least ten samples above it: (value, percentile, samples above).

    Percentiles are nearest-rank, tried from TAIL_PERCENTILES down.  With
    fewer than 100 samples none qualifies and the maximum is reported, with
    zero samples above it, so that the reader can tell the two apart.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        k = math.ceil(pct * n / 100) - 1
        if n - 1 - k >= 10:
            return ordered[k], pct, n - 1 - k
    return ordered[-1], 100.0, 0


def setup_seconds() -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
        )
        times.append(float(proc.stdout))
    return times


class Run:
    """Counts every checked call of one benchmark run, and the run's own check failures."""

    def __init__(self, cli, ops):
        self.cli = cli
        self.ops = ops
        self.attempted = 0
        self.errors: list[str] = []  # one per call with a wrong verdict or exit code
        self.problems: list[str] = []  # failed checks of the traced run itself

    def warm_up(self, ops) -> None:
        self._record(ops, run_pass(self.cli, ops)[2])

    def timed_pass(self) -> tuple[float, float]:
        wall, cpu, outputs = run_pass(self.cli, self.ops)
        self._record(self.ops, outputs)
        return wall, cpu

    def _record(self, ops, outputs) -> None:
        self.attempted += len(ops)
        self.errors += check(ops, outputs)


def _next_pass_fits(expected_end: float, passes: int, seconds: float) -> bool:
    return expected_end <= seconds or (passes < MIN_PASSES and expected_end <= MAX_MEASURE_S)


def measure_untraced(run: Run, warmup, seconds: float) -> tuple[dict, dict]:
    setup = setup_seconds()
    run.warm_up(warmup)
    walls, cpus = [], []
    start = time.perf_counter()
    while not walls or _next_pass_fits(time.perf_counter() - start + statistics.median(walls), len(walls), seconds):
        wall, cpu = run.timed_pass()
        walls.append(wall)
        cpus.append(cpu)
        if len(walls) == 1:  # this interpreter has now run the warm-up and exactly one pass
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct, beyond = tail(walls)
    ok = run.attempted - len(run.errors)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_wall_s": (statistics.median(walls), "s"),
        "pass_wall_tail_s": (tail_s, "s"),
        "pass_cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verdict_ok_ratio": (ok / run.attempted, "ratio"),
    }
    detail = {
        "passes": len(walls),
        "pass_wall_samples": [round(w, 6) for w in walls],
        "setup_samples": len(setup),
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "fail_ratio": len(run.errors) / run.attempted,
    }
    return metrics, detail


def measure_traced(run: Run, warmup, seconds: float, expected) -> tuple[dict, dict]:
    """Alternate untraced and traced passes; per-layer metrics come from the traced ones."""
    run.warm_up(warmup)
    tracer = Tracer()
    plain, traced, unattributed = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start + statistics.median(plain) + statistics.median(traced) <= seconds:
        plain.append(run.timed_pass()[0])
        before = tracer.self_total()
        tracer.install()
        try:
            wall = run.timed_pass()[0]
        finally:
            tracer.uninstall()
        traced.append(wall)
        unattributed.append(wall - (tracer.self_total() - before))
    overhead = statistics.median(traced) - statistics.median(plain)
    gap = statistics.median(unattributed)
    missing = tracer.missing(expected)
    if missing:
        run.problems.append(f"traced run: expected layers recorded no calls: {', '.join(missing)}")
    # the spans must cover the pass: what they miss may not exceed the tracing overhead
    if gap > max(overhead, 0.0) + 0.05 * statistics.median(traced):
        run.problems.append(f"traced run: {gap:.4f} s of a traced pass lies outside every span")
    total = tracer.self_total() or 1.0
    metrics = tracer.layer_metrics(len(traced))
    metrics["trace.overhead_ratio"] = (statistics.median(traced) / statistics.median(plain), "ratio")
    detail = {
        "passes_traced": len(traced),
        "passes_untraced": len(plain),
        "unattributed_s": gap,
        "layer_share": {
            name: round(s / total, 4) for name, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1])
        },
        "missing_layers": missing,
    }
    return metrics, detail


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def benchmark(cli, ops, warmup, expected, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run: the result object and its detail record."""
    os.environ.pop("TORSION_GATE_WORKERS", None)  # read by the CLI and inherited by the fresh interpreters
    run = Run(cli, ops)
    if trace:
        metrics, detail = measure_traced(run, warmup, seconds, expected)
    else:
        metrics, detail = measure_untraced(run, warmup, seconds)
    detail.update(inputs=[" ".join(op.argv) for op in ops], errors=run.problems + run.errors[:20], machine=machine())
    result = {
        "correct": not run.errors and not run.problems,
        "attempted": run.attempted,
        "failed": len(run.errors),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    cli = import_cli()
    result, detail = benchmark(
        cli,
        workloads.operations(args.workload, args.seed),
        workloads.WARMUP[args.workload],
        workloads.EXPECTED_LAYERS[args.workload],
        args.seconds,
        bool(args.trace),
    )
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
