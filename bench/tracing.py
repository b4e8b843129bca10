"""Spans around the public names of the cpmas layers, and per-layer metrics.

The program is not edited.  For one traced operation each name below is
replaced, at the module where the caller looks it up, by a wrapper that
records a span (name, start, end, parent); afterwards the original is put
back.  `cpmas` modules import names directly, so e.g. the fit's powder
average is patched as `fitting.averaged_efficiency`, not in `powder`.

Per-orientation calls are never timed: while a powder average runs, the
single-orientation kernel names are restored to the originals, and their
call counts are derived from the operation's inputs instead.  A name that
the program no longer has is recorded as missing, and the metrics built on
it are reported absent.

Spans stay in memory; `write_spans` writes them once, at the end.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import time
from dataclasses import dataclass, field

# (lookup path from the package, span name).  The path names the module
# whose namespace the caller reads the name from.
TARGETS = [
    ("cli.powder.zcw_orientation_set", "powder.oset_build"),
    ("cli.powder.grid_orientation_set", "powder.oset_build"),
    ("cli.powder.powder_average", "powder.average"),
    ("fitting.averaged_efficiency", "powder.average"),
    ("cli.analytic.efficiency_curve", "analytic.kernel"),
    ("analytic.dipolar_phase", "core.phase"),
    ("cli.analytic.magnetization", "analytic.envelope"),
    ("fitting.damped_magnetization", "analytic.envelope"),
    ("cli.fitting.load_buildup", "fitting.load"),
    ("cli.fitting.fit_buildup", "fitting.solve"),
    ("cli.fitting.model_curve", "fitting.model"),
    ("fitting.model_curve", "fitting.model"),
    ("cli.oracle.propagate_expectations", "oracle.propagate"),
    ("cli.write_curve_csv", "cli.csv_write"),
]
ROOT = "cli.main"

# span names whose calls inside a powder average are per orientation
PER_ORIENTATION = ("analytic.kernel", "core.phase")

# per-layer metric -> (unit, better, span names it is built from)
METRICS = {
    "powder.oset_build_ms": ("ms", "lower", ["powder.oset_build"]),
    "powder.oset_size": ("count", "lower", ["powder.oset_build"]),
    "powder.average_ms": ("ms", "lower", ["powder.average"]),
    "powder.orient_points": ("count", "lower", ["powder.average"]),
    "powder.ns_per_orient_point": ("ns", "lower", ["powder.average"]),
    "analytic.kernel_ms": ("ms", "lower", ["analytic.kernel"]),
    "analytic.kernel_calls": ("count", "lower", ["analytic.kernel", "powder.average"]),
    "core.phase_ms": ("ms", "lower", ["core.phase"]),
    "core.phase_calls": ("count", "lower", ["core.phase", "powder.average"]),
    "analytic.envelope_ms": ("ms", "lower", ["analytic.envelope"]),
    "fitting.powder_evals": ("count", "lower", ["powder.average"]),
    "fitting.distinct_d_ratio": ("ratio", "higher", ["powder.average"]),
    "fitting.model_evals": ("count", "lower", ["fitting.model"]),
    "fitting.iterations": ("count", "lower", ["fitting.solve"]),
    "fitting.solve_self_ms": ("ms", "lower", ["fitting.solve"]),
    "fitting.load_ms": ("ms", "lower", ["fitting.load"]),
    "oracle.propagate_ms": ("ms", "lower", ["oracle.propagate"]),
    "oracle.substeps": ("count", "lower", ["oracle.propagate"]),
    "oracle.ns_per_substep": ("ns", "lower", ["oracle.propagate"]),
    "oracle.propagate_calls": ("count", "lower", ["oracle.propagate"]),
    "cli.self_ms": ("ms", "lower", []),
    "cli.csv_write_ms": ("ms", "lower", ["cli.csv_write"]),
    "cli.csv_bytes": ("B", "lower", ["cli.csv_write"]),
    "bench.trace_overhead_frac": ("ratio", "lower", []),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _info(span_name: str, arguments: dict, result) -> dict:
    """What a span records beyond its times, read from its call."""
    if span_name == "powder.oset_build":
        return {"size": len(result)}
    if span_name == "powder.average" and "coupling" in arguments:
        return {"d": arguments["coupling"].d}
    if span_name == "fitting.solve":
        return {"iterations": getattr(result, "iterations", 0)}
    if span_name == "cli.csv_write":
        return {"bytes": os.path.getsize(arguments["path"])}
    return {}


class _Patch:
    """One name in one namespace, swappable between original and wrapper."""

    def __init__(self, owner, attr: str, span_name: str, original):
        self.owner, self.attr, self.span_name = owner, attr, span_name
        self.original = original
        self.signature = inspect.signature(original)
        self.wrapper = None

    def apply(self):
        setattr(self.owner, self.attr, self.wrapper)

    def restore(self):
        setattr(self.owner, self.attr, self.original)


class Tracer:
    """Installs the wrappers around one operation at a time and keeps the
    spans of every traced operation, one list per operation."""

    def __init__(self, package_modules: dict):
        self.ops: list[list[Span]] = []
        self.missing: list[str] = []
        self._spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[_Patch] = []
        seen = set()
        for path, span_name in TARGETS:
            *chain, attr = path.split(".")
            owner = package_modules.get(chain[0])
            for part in chain[1:]:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.missing.append(path)
                continue
            if (id(owner), attr) in seen:
                continue
            seen.add((id(owner), attr))
            patch = _Patch(owner, attr, span_name, original)
            patch.wrapper = self._wrap(patch)
            self._patches.append(patch)
        self._quiet = [p for p in self._patches if p.span_name in PER_ORIENTATION]

    def absent_spans(self) -> set[str]:
        """Span names none of whose target paths exist in the program."""
        return {name for _, name in TARGETS} - {p.span_name for p in self._patches}

    def _wrap(self, patch: _Patch):
        tracer = self
        quiet = patch.span_name == "powder.average"

        def wrapper(*args, **kwargs):
            index = len(tracer._spans)
            tracer._spans.append(None)
            parent = tracer._stack[-1]
            tracer._stack.append(index)
            if quiet:
                for p in tracer._quiet:
                    p.restore()
            done = False
            start = time.perf_counter()
            try:
                result = patch.original(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                if quiet:
                    for p in tracer._quiet:
                        p.apply()
                tracer._stack.pop()
                info = {}
                if done:
                    bound = patch.signature.bind_partial(*args, **kwargs).arguments
                    info = _info(patch.span_name, bound, result)
                tracer._spans[index] = Span(patch.span_name, start, end, parent, info)

        return wrapper

    def call(self, fn, *args):
        """Run fn(*args) as one operation under a root span, wrappers installed."""
        self._spans = [None]
        self._stack = [0]
        for patch in self._patches:
            patch.apply()
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            for patch in self._patches:
                patch.restore()
            self._spans[0] = Span(ROOT, start, end, -1)
            self.ops.append(self._spans)


def op_layer_values(spans: list[Span], work: dict) -> dict[str, float]:
    """Per-layer values of one traced operation; a layer it never entered
    has no entry.

    `work` gives the operation's sizes taken from its inputs: n_orient and
    n_t of its powder averages, and substeps per propagation.
    """
    by_name: dict[str, list[Span]] = {}
    child_seconds = [0.0] * len(spans)
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        if span.parent >= 0:
            child_seconds[span.parent] += span.seconds

    def total(name):
        return sum(s.seconds for s in by_name.get(name, ()))

    def count(name):
        return len(by_name.get(name, ()))

    def self_seconds(name):
        return sum(s.seconds - child_seconds[i]
                   for i, s in enumerate(spans) if s.name == name)

    out = {"cli.self_ms": self_seconds(ROOT) * 1e3}
    n_avg = count("powder.average")
    per_orient = n_avg * work.get("n_orient", 0)
    if count("powder.oset_build"):
        out["powder.oset_build_ms"] = total("powder.oset_build") * 1e3
        out["powder.oset_size"] = sum(s.info["size"] for s in by_name["powder.oset_build"])
    if n_avg:
        points = per_orient * work["n_t"]
        out["powder.average_ms"] = total("powder.average") * 1e3
        out["powder.orient_points"] = points
        out["powder.ns_per_orient_point"] = total("powder.average") * 1e9 / points
    if count("analytic.kernel") or per_orient:
        out["analytic.kernel_calls"] = count("analytic.kernel") + per_orient
    if count("analytic.kernel"):
        out["analytic.kernel_ms"] = total("analytic.kernel") * 1e3
    if count("core.phase") or per_orient:
        out["core.phase_calls"] = count("core.phase") + per_orient
    if count("core.phase"):
        out["core.phase_ms"] = total("core.phase") * 1e3
    if count("analytic.envelope"):
        out["analytic.envelope_ms"] = total("analytic.envelope") * 1e3
    d_values = [s.info["d"] for s in by_name.get("powder.average", ()) if "d" in s.info]
    if d_values:
        out["fitting.powder_evals"] = len(d_values)
        out["fitting.distinct_d_ratio"] = len(set(d_values)) / len(d_values)
    if count("fitting.model"):
        out["fitting.model_evals"] = count("fitting.model")
    if count("fitting.solve"):
        out["fitting.iterations"] = sum(s.info.get("iterations", 0)
                                        for s in by_name["fitting.solve"])
        out["fitting.solve_self_ms"] = self_seconds("fitting.solve") * 1e3
    if count("fitting.load"):
        out["fitting.load_ms"] = total("fitting.load") * 1e3
    if count("oracle.propagate"):
        substeps = count("oracle.propagate") * work["substeps"]
        out["oracle.propagate_ms"] = total("oracle.propagate") * 1e3
        out["oracle.propagate_calls"] = count("oracle.propagate")
        out["oracle.substeps"] = substeps
        out["oracle.ns_per_substep"] = total("oracle.propagate") * 1e9 / substeps
    if count("cli.csv_write"):
        out["cli.csv_write_ms"] = total("cli.csv_write") * 1e3
        out["cli.csv_bytes"] = sum(s.info.get("bytes", 0) for s in by_name["cli.csv_write"])
    return out


def layer_metrics(per_op: list[dict], absent_spans: set[str],
                  overhead_frac: float) -> tuple[dict, dict, list[str]]:
    """Median over operations of each per-layer metric.

    Returns (metrics, sample counts, absent names).  A metric whose layer
    no operation of the workload entered is 0 with 0 samples; one built on
    a name the program no longer has is absent.
    """
    metrics, samples, absent = {}, {}, []
    for name, (unit, _, needs) in METRICS.items():
        if name == "bench.trace_overhead_frac":
            metrics[name] = {"value": overhead_frac, "unit": unit}
            samples[name] = len(per_op)
            continue
        if any(n in absent_spans for n in needs):
            absent.append(name)
            continue
        values = [v[name] for v in per_op if name in v]
        metrics[name] = {"value": float(statistics.median(values)) if values else 0.0,
                         "unit": unit}
        samples[name] = len(values)
    return metrics, samples, absent


def write_spans(path, ops: list[list[Span]]) -> None:
    """One JSON line per span; `parent` indexes the spans of the same op."""
    with open(path, "w", encoding="utf-8") as fh:
        for op, spans in enumerate(ops):
            for s in spans:
                fh.write(json.dumps({"op": op, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     **({"info": s.info} if s.info else {})}) + "\n")
