"""Spans and counters around calls into torusflow, recorded from outside.

A `Tracer` keeps finished spans in memory (name, start, end, parent span,
run id, counts).  Counts are inclusive: `Tracer.count` adds to every
open span and to the run totals, so "FFTs inside run_flow" is the count
carried by the run_flow spans.  `install` replaces functions and methods
of the already-imported package with wrappers that open spans and add
counts; the package itself is not modified on disk.

`layer_metrics` turns one traced repetition (spans, totals, manifest)
into the per-layer metrics listed in `metrics.PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from pathlib import Path


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "counts")

    def __init__(self, id, name, start, parent, run):
        self.id = id
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run = run
        self.counts = {}

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, "counts": self.counts,
        }


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self, run_id: str = "run", clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list = []
        self.totals: dict = {}
        self._stack: list = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {popped.name})")

    def count(self, key: str, amount=1) -> None:
        self.totals[key] = self.totals.get(key, 0) + amount
        for span in self._stack:
            span.counts[key] = span.counts.get(key, 0) + amount

    def dump(self) -> dict:
        return {"run": self.run_id, "spans": [s.as_dict() for s in self.spans],
                "totals": self.totals}


# ---------------------------------------------------------------------------
# self time


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the time its direct children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children.get(s["id"], ()), s["start"], s["end"])
        for s in spans
    }


def summarize(spans) -> dict:
    """name -> {calls, s (outermost spans only), self_s, counts}."""
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)
    out: dict = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}})
        row["calls"] += 1
        row["self_s"] += selfs[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["name"] != s["name"]:
            parent = by_id.get(parent["parent"])
        if parent is None:  # not nested in a span of the same name
            row["s"] += s["end"] - s["start"]
            for key, v in s["counts"].items():
                row["counts"][key] = row["counts"].get(key, 0) + v
    return out


# ---------------------------------------------------------------------------
# wrappers


def _wrap(tracer: Tracer, fn, name, before=None, after=None):
    """Span `name` (or no span when None) around fn, with count hooks."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(tracer, args, kwargs)
        span = tracer.open(name) if name is not None else None
        try:
            out = fn(*args, **kwargs)
            if after is not None:
                after(tracer, args, kwargs, out)
            return out
        finally:
            if span is not None:
                tracer.close(span)

    return wrapper


def _fft_count(tracer, args, kwargs):
    tracer.count("fft_calls")
    tracer.count("fft_points", int(getattr(args[0], "size", 0)))


def _dijkstra_sources(tracer, args, kwargs):
    idx = kwargs.get("indices")
    if idx is None:  # every node is a source
        tracer.count("dijkstra_sources", args[0].shape[0])
    else:
        tracer.count("dijkstra_sources", len(idx) if hasattr(idx, "__len__") else 1)


def _graph_built(tracer, args, kwargs, out):
    tracer.count("graphs")
    tracer.count("graph_edges", int(args[0]._graph.nnz))


def _trace_bytes_read(tracer, args, kwargs, out):
    directory = Path(args[0] if args else kwargs["directory"])
    tracer.count("bytes_read", sum(p.stat().st_size for p in directory.iterdir() if p.is_file()))


# (module, attribute, span name or None, before hook, after hook).  An
# attribute "Class.method" patches the class; a plain attribute is
# replaced in its module and wherever a torusflow module imported it.
RUN_TARGET = ("torusflow.cli", "run_experiment", "runner.run_experiment", None, None)

LAYER_TARGETS = (
    ("numpy.fft", "fftn", None, _fft_count, None),
    ("numpy.fft", "ifftn", None, _fft_count, None),
    ("torusflow.fields", "complex_hessian", "fields.complex_hessian", None, None),
    ("torusflow.fields", "HermitianField.__post_init__", "fields.hermitian_validate", None, None),
    ("torusflow.geometry", "scalar_curvature_of", "geometry.scalar_curvature", None,
     lambda t, a, k, o: t.count("scalar_curvature")),
    ("torusflow.geometry", "riemann_norm", "geometry.riemann_norm", None, None),
    ("torusflow.geometry", "harmonic_projection", "geometry.harmonic_projection", None, None),
    ("torusflow.flow", "run_flow", "flow.run_flow", None,
     lambda t, a, k, o: t.count("steps", len(o.diagnostics) - 1)),
    ("torusflow.scenarios", "make_sequence", "scenarios.make_sequence", None, None),
    ("torusflow.scenarios", "calibrate_amplitude", "scenarios.calibrate_amplitude", None, None),
    ("torusflow.harness", "build_reports", "harness.build_reports", None, None),
    ("torusflow.harness", "family_summary", "harness.family_summary", None, None),
    ("torusflow.distances", "MetricGraph.__init__", "distances.graph_build", None, _graph_built),
    ("torusflow.distances", "dijkstra", "distances.dijkstra", _dijkstra_sources, None),
    ("torusflow.distances", "MetricGraph.distance_batch", None,
     lambda t, a, k: t.count("queries", len(a[1] if len(a) > 1 else k["queries"])), None),
    ("torusflow.distances", "MetricGraph.distance", None,
     lambda t, a, k: t.count("queries"), None),
    ("torusflow.distances", "flat_accuracy_battery", "distances.flat_battery", None, None),
    ("torusflow.distances", "check_distance_estimate", "distances.estimate", None, None),
    ("torusflow.io", "save_trace", "io.save_trace", None, None),
    ("torusflow.io", "write_bytes_atomic", None,
     lambda t, a, k: t.count("bytes_written", len(a[1] if len(a) > 1 else k["data"])), None),
    ("torusflow.io", "load_trace", "io.load_trace", None, _trace_bytes_read),
    ("torusflow.runner", "emit_outputs", "runner.emit_outputs", None, None),
)


def install(tracer: Tracer, targets) -> list:
    """Patch every target; returns an undo list for `uninstall`."""
    undo = []
    for module_name, attr, name, before, after in targets:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, _wrap(tracer, original, name, before, after))
            undo.append((cls, meth, original))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(tracer, original, name, before, after)
        holders = [module] + [
            m for key, m in sorted(sys.modules.items())
            if (key == "torusflow" or key.startswith("torusflow.")) and m is not module
        ]
        for holder in holders:
            if getattr(holder, attr, None) is original:
                setattr(holder, attr, wrapper)
                undo.append((holder, attr, original))
    return undo


def uninstall(undo) -> None:
    for holder, attr, original in reversed(undo):
        setattr(holder, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced repetition


def layer_metrics(dump: dict, manifest: dict) -> dict:
    """Per-layer metric name -> value, from a traced repetition."""
    rows = summarize(dump["spans"])
    totals = dump["totals"]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "counts": {}}

    def row(name):
        return rows.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    flow = row("flow.run_flow")
    steps = flow["counts"].get("steps", 0)
    calib = row("scenarios.calibrate_amplitude")
    indices = len(manifest.get("scenarios", ()))
    timings = manifest.get("timings", {})
    m = {
        "fields.fft_calls": totals.get("fft_calls", 0),
        "fields.fft_points": totals.get("fft_points", 0),
        "fields.complex_hessian.calls": row("fields.complex_hessian")["calls"],
        "fields.complex_hessian.self_s": row("fields.complex_hessian")["self_s"],
        "fields.hermitian_validate.calls": row("fields.hermitian_validate")["calls"],
        "fields.hermitian_validate.self_s": row("fields.hermitian_validate")["self_s"],
        "geometry.scalar_curvature.calls": row("geometry.scalar_curvature")["calls"],
        "geometry.scalar_curvature.self_s": row("geometry.scalar_curvature")["self_s"],
        "geometry.riemann_norm.self_s": row("geometry.riemann_norm")["self_s"],
        "geometry.harmonic_projection.self_s": row("geometry.harmonic_projection")["self_s"],
        "flow.run_flow.s": flow["s"],
        "flow.run_flow.self_s": flow["self_s"],
        "flow.steps": steps,
        "flow.step_ms": 1000.0 * ratio(flow["s"], steps),
        "flow.fft_per_step": ratio(flow["counts"].get("fft_calls", 0), steps),
        "scenarios.make_sequence.s": row("scenarios.make_sequence")["s"],
        "scenarios.calibrate_amplitude.calls": calib["calls"],
        "scenarios.curvature_probes": calib["counts"].get("scalar_curvature", 0),
        "scenarios.probes_per_index": ratio(calib["counts"].get("scalar_curvature", 0), indices),
        "harness.build_reports.s": row("harness.build_reports")["s"],
        "harness.build_reports.self_s": row("harness.build_reports")["self_s"],
        "harness.family_summary.s": row("harness.family_summary")["s"],
        "distances.graph_build.s": row("distances.graph_build")["s"],
        "distances.graphs": totals.get("graphs", 0),
        "distances.graph_edges": totals.get("graph_edges", 0),
        "distances.dijkstra.s": row("distances.dijkstra")["s"],
        "distances.dijkstra_sources": totals.get("dijkstra_sources", 0),
        "distances.queries_per_source": ratio(totals.get("queries", 0),
                                              totals.get("dijkstra_sources", 0)),
        "distances.flat_battery.s": row("distances.flat_battery")["s"],
        "distances.estimate.s": row("distances.estimate")["s"],
        "io.save_trace.s": row("io.save_trace")["s"],
        "io.bytes_written": row("io.save_trace")["counts"].get("bytes_written", 0),
        "io.load_trace.s": row("io.load_trace")["s"],
        "io.load_trace.self_s": row("io.load_trace")["self_s"],
        "io.bytes_read": totals.get("bytes_read", 0),
        "runner.emit_outputs.s": row("runner.emit_outputs")["s"],
        "runner.self_s": row("runner.run_experiment")["self_s"],
    }
    for stage in ("scenario_generation", "flows", "harness", "distance", "total"):
        m[f"runner.stage.{stage}_s"] = float(timings.get(stage, 0.0))
    return m

