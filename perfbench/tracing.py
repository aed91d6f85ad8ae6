"""Layer spans for the traced run, recorded from outside the library.

The layers are the engine's modules.  Each wrapper records a span around
calls into one public function; a span's self time is its duration minus
the durations of the wrapped calls made inside it, so self times add up
to the time spent in the outermost spans (the CLI calls).

Callers import functions by name (`cli` calls its own `build_space`,
`gate` its own `criterion_vectors`), so a wrapper is installed in every
module namespace that holds the function, not only where it is defined.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

def _count_witness(counts: Counter, report) -> None:
    if report.outcome in ("excluded-T3", "excluded-T4"):
        counts["gate.witnesses"] += 1


def _count_terms(counts: Counter, vectors) -> None:
    counts["hecke.criterion_terms"] += sum(len(v) for v in vectors)


def _count_space(counts: Counter, space) -> None:
    counts["maninspace.psi"] += space.psi
    counts["maninspace.relation_rows"] += len(space.relation_rows)


def _count_curves(counts: Counter, census) -> None:
    counts["redux.census_curves"] += sum(census.trace_counts.values())


# (span name, defining module, function, hook that reads work counts off the result)
FUNCTION_SPANS = (
    ("cli", "torsion_gate.cli", "main", None),
    ("gate.verify", "torsion_gate.gate", "verify_cyclic_exclusion", _count_witness),
    ("hecke.criterion_vectors", "torsion_gate.hecke", "criterion_vectors", _count_terms),
    ("maninspace.p1_list", "torsion_gate.maninspace", "p1_list", None),
    ("maninspace.build_space", "torsion_gate.maninspace", "build_space", _count_space),
    ("maninspace.quotient_rank_mod_p", "torsion_gate.maninspace", "quotient_rank_mod_p", None),
    ("redux.method_a_verdict", "torsion_gate.redux", "method_a_verdict", None),
    ("redux.admissible_traces", "torsion_gate.redux", "admissible_traces", None),
    ("redux.brute_force_census", "torsion_gate.redux", "brute_force_census", _count_curves),
    ("exactmath.field_make", "torsion_gate.exactmath", "field_make", None),
)

# Symbol-space ranks are a property and a method, looked up on the class.
# rank_q is the relation rank over Q; rank_mod_p the base rank of R mod p.
METHOD_SPANS = (
    ("maninspace.rank_q", "rank_q"),
    ("maninspace.rank_mod_p", "rank_mod_p"),
)

# Calls counted without a span: each candidate prime meets the Hasse gate first.
COUNTERS = (("gate.hasse", "torsion_gate.gate", "hasse_gate"),)


class Tracer:
    """In-memory span aggregates: self and inclusive seconds, calls, work counts."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.calls_by_parent: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # open spans: [name, seconds of wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._stack.pop()
                self.self_s[name] += dt - frame[1]
                self.total_s[name] += dt
                self.calls[name] += 1
                self.calls_by_parent[name, parent[0] if parent else None] += 1
                if parent is not None:
                    parent[1] += dt
            if on_result is not None:
                on_result(self.counts, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _replace_everywhere(self, fn, wrapper) -> None:
        engine = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "torsion_gate"]
        for module in engine:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function wherever callers look it up."""
        for name, modname, attr, on_result in FUNCTION_SPANS:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is not None:  # a later engine may delete a function; coverage then reports it
                self._replace_everywhere(fn, self.span(name, fn, on_result))
        for name, modname, attr in COUNTERS:
            fn = getattr(sys.modules[modname], attr, None)
            if fn is not None:
                self._replace_everywhere(fn, self.counter(name, fn))
        space_cls = sys.modules["torsion_gate.maninspace"].SymbolSpace
        for name, attr in METHOD_SPANS:
            member = vars(space_cls).get(attr)
            if isinstance(member, property):
                wrapped = property(self.span(name, member.fget))
            elif callable(member):
                wrapped = self.span(name, member)
            else:
                continue
            self._patches.append((space_cls, attr, member))
            setattr(space_cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_total(self) -> float:
        return sum(self.self_s.values())

    def missing(self, expected) -> list[str]:
        """Expected layers that recorded no call."""
        return [name for name in expected if not self.calls[name]]

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each per traced pass."""
        s, calls, counts = self.self_s, self.calls, self.counts
        hecke_checks = self.calls_by_parent["maninspace.quotient_rank_mod_p", "gate.verify"]
        census_s = self.total_s["redux.brute_force_census"]
        out = {
            "cli.self_s": (s["cli"], "s"),
            "gate.verify.self_s": (s["gate.verify"], "s"),
            "gate.verify.calls": (calls["gate.verify"], "count"),
            "gate.hasse.calls": (calls["gate.hasse"], "count"),
            "gate.hecke_checks": (hecke_checks, "count"),
            "hecke.criterion_vectors.s": (s["hecke.criterion_vectors"], "s"),
            "hecke.criterion_vectors.calls": (calls["hecke.criterion_vectors"], "count"),
            "hecke.criterion_terms": (counts["hecke.criterion_terms"], "count"),
            "maninspace.p1_list.s": (s["maninspace.p1_list"], "s"),
            "maninspace.p1_list.calls": (calls["maninspace.p1_list"], "count"),
            "maninspace.build_space.self_s": (s["maninspace.build_space"], "s"),
            "maninspace.psi": (counts["maninspace.psi"], "count"),
            "maninspace.relation_rows": (counts["maninspace.relation_rows"], "count"),
            "maninspace.rank_q.s": (s["maninspace.rank_q"], "s"),
            "maninspace.rank_mod_p.s": (s["maninspace.rank_mod_p"], "s"),
            "maninspace.rank_mod_p.calls": (calls["maninspace.rank_mod_p"], "count"),
            "maninspace.quotient_rank_mod_p.self_s": (s["maninspace.quotient_rank_mod_p"], "s"),
            "maninspace.quotient_rank_mod_p.calls": (calls["maninspace.quotient_rank_mod_p"], "count"),
            "redux.method_a_verdict.s": (s["redux.method_a_verdict"], "s"),
            "redux.method_a_verdict.calls": (calls["redux.method_a_verdict"], "count"),
            "redux.admissible_traces.s": (s["redux.admissible_traces"], "s"),
            "redux.brute_force_census.s": (s["redux.brute_force_census"], "s"),
            "redux.census_curves": (counts["redux.census_curves"], "count"),
            "exactmath.field_make.s": (s["exactmath.field_make"], "s"),
        }
        out = {k: (v / passes, unit) for k, (v, unit) in out.items()}
        out["gate.witness_yield"] = (counts["gate.witnesses"] / hecke_checks if hecke_checks else 0.0, "ratio")
        out["redux.census_curves_per_s"] = (counts["redux.census_curves"] / census_s if census_s else 0.0, "1/s")
        return out
