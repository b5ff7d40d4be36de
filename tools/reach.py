#!/usr/bin/env python3
"""List the functions of src/torusflow that no command reaches.

    python3 tools/reach.py

It runs every torusflow command in this process with a sys.setprofile
hook that records each code object called.  The commands are `run` on
each of the benchmark's configs (perfbench/run.py's CONFIGS at seed 90,
read as tools/gate_refs.py reads them; nothing under perfbench/ is
written), on smaller grids with three indices each, which reach the same
functions as the full-size configs in about half the time; `check` on
the n2-N16 run's output, `flow`, `project` and `distance` on
dist-n1-N64, a flat family, and commands that end in exit codes 1, 2
and 3, so that the error paths are reached rather than listed.
Every command must end in its expected exit code.

It then prints each function defined in src/torusflow (each `def`,
methods and nested functions included) that no command called, with its
line count and its reason from KEEP.  The exit code is 1 when a command
ended in another exit code than expected, when an unreached function has
no KEEP entry, or when a KEEP entry was reached or names no function;
it is 0 otherwise.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "torusflow"

# module.qualname -> why the function stays although no command calls it
KEEP = {
    "fields._gradient": "used by perfbench: called only by riemann_norm",
    "fields.TorusGeometry.coordinate": "shown in demos: grid coordinates of a shape",
    "fields.TorusGeometry.coordinates": "shown in demos: grid coordinates of a shape",
    "fields.flat_laplacian": "shown in demos: demo 01's spectral calculus",
    "fields.truncate_modes": "shown in demos: demo 01's dealiasing",
    "geometry.inverse_field": "used by perfbench: called only by riemann_norm",
    "geometry.riemann_norm": "used by perfbench: a tracer.LAYER_TARGETS entry",
    "distances.MetricGraph.distance": "used by perfbench: a tracer.LAYER_TARGETS entry",
    "flow.FlowFailure.__init__": "error path: a flow step rejected more than MAX_REJECTS times in a row",
    "flow.FlowTrace.times": "error path: snapshot_at's message for a time no snapshot holds",
    "geometry.min_eigenvalue": "error path: a calibration probe past the positivity wall",
}

SEED = 90


def benchmark_configs() -> dict:
    """perfbench/run.py's CONFIGS at SEED, each shrunk; importing run
    writes no bytecode under perfbench/."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import run
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(ROOT / "perfbench"))
    return {name: shrink(make(SEED)) for name, make in run.CONFIGS.items()}


def shrink(config: dict) -> dict:
    """The same config on a smaller grid with a shorter family."""
    small = json.loads(json.dumps(config))
    small["geometry"]["N"] = 16 if small["geometry"]["n"] == 1 else 8
    small["scenario"]["indices"] = small["scenario"]["indices"][:3]  # three fit a rate
    return small


def cases(configs: dict, work: Path) -> list:
    """(label, argv, expected exit code[, step to run first]) of every
    command, in order; writes each config and the files the error cases
    need under work."""
    n1_small = {"geometry": {"n": 1, "N": 16}, "scenario": {"indices": [1, 4], "seed": SEED}}
    extra = {
        # a flat family (no shape, no probes), with keys whose parsers the
        # benchmark configs leave unread
        "flat": {**n1_small,
                 "scenario": {**n1_small["scenario"], "flat": True, "background": [[[1.5, 0.0]]],
                              "lambda_gate": 10.0, "p": 2, "max_mode": 2},
                 "flow": {"snapshot_times": [0.5, 1.0], "t_end": 1.0},
                 "harness": {"q_list": [1.0, 2.0], "test_forms": 2},
                 "distance": {"enabled": True, "radius": 3, "queries": 3, "flat_queries": 5,
                              "times": [0.5, 1.0]}},
        # a radius-1 stencil misses the flat battery's tolerance: a check fails
        "coarse": {**n1_small, "scenario": {**n1_small["scenario"], "p": "inf"},
                   "distance": {"enabled": True, "radius": 1}},
        # the trace gate admits no member: a scenario error
        "gated": {**n1_small, "scenario": {**n1_small["scenario"], "lambda_gate": 0.5}},
        "unknown": {**n1_small, "colour": "blue"},
    }
    files = {}
    for name, config in {**configs, **extra}.items():
        files[name] = work / f"{name}.json"
        files[name].write_text(json.dumps(config))
    out = {name: str(work / f"out-{name}") for name in files}
    not_a_dir = work / "a-file"
    not_a_dir.write_text("")

    def cmd(command, name, dest=None):
        return [command, "--config", str(files[name]), "--out", dest or out[name]]

    def damage_trace():
        """The flat run's first trace gets a meta.json nested too deep to parse."""
        meta = sorted(Path(out["flat"]).glob("scenario_i*/trace/meta.json"))[0]
        meta.write_text("[" * 200_000)

    return [("run " + name, cmd("run", name), 0) for name in configs] + [
        ("check n2-N16", cmd("check", "n2-N16"), 0),
        ("flow dist-n1-N64", cmd("flow", "dist-n1-N64"), 0),
        ("project dist-n1-N64", cmd("project", "dist-n1-N64", str(work / "projected")), 0),
        ("distance dist-n1-N64", cmd("distance", "dist-n1-N64"), 0),
        ("run flat", cmd("run", "flat"), 0),
        ("run coarse", cmd("run", "coarse"), 1),
        ("distance coarse", cmd("distance", "coarse"), 1),
        ("check on an empty directory", cmd("check", "flat", str(work / "empty")), 2),
        ("run gated", cmd("run", "gated"), 2),
        ("flow gated", cmd("flow", "gated"), 2),
        ("check on a nested meta.json", cmd("check", "flat"), 2, damage_trace),
        ("run unknown key", cmd("run", "unknown"), 3),
        ("run with no worker", cmd("run", "flat") + ["--jobs", "0"], 3),
        ("run into a file", cmd("run", "flat", str(not_a_dir)), 3),
        ("run with no config", ["run", "--config", str(work / "missing.json")], 3),
    ]


def defined_functions() -> dict:
    """(file, first line) -> (module.qualname, line count) of every def in
    the package; a decorated def starts at its first decorator, as its code
    object does."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                out[(str(path), first)] = (prefix + child.name, child.end_lineno - first + 1)
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path, f"{path.stem}.")
    return out


def sweep(case_list) -> tuple:
    """(reached, problems) over every case, reached holding the (file,
    first line) of each code object called; each case runs
    torusflow.cli.main with its output captured."""
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    problems = []
    sys.setprofile(profile)
    try:
        from torusflow import cli  # import-time calls count as reached

        for label, argv, expected, *before in case_list:
            for step in before:
                step()
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = cli.main(argv)
                except Exception as exc:  # a crash is a problem of its case, not of the sweep
                    code = f"none ({type(exc).__name__} raised)"
                    traceback.print_exc()
            if code != expected:
                problems.append(f"{label}: exit code {code}, expected {expected}\n"
                                + sink.getvalue())
    finally:
        sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}, problems


def report(functions: dict, reached: set, keep: dict = KEEP) -> tuple:
    """(printed lines, problems) of the functions not in reached, against keep."""
    unreached = sorted((name, lines) for key, (name, lines) in functions.items()
                       if key not in reached)
    names = {name for name, _ in functions.values()}
    width = max((len(name) for name, _ in unreached), default=0)
    lines = [f"{len(unreached)} of {len(functions)} src functions unreached, "
             f"{sum(n for _, n in unreached)} lines:"]
    problems = []
    for name, count in unreached:
        reason = keep.get(name)
        lines.append(f"  {name:<{width}}  {count:3d} lines  {reason or 'NOT IN KEEP'}")
        if reason is None:
            problems.append(f"{name} is unreached and not in KEEP")
    unreached_names = {name for name, _ in unreached}
    for name in sorted(keep):
        if name not in names:
            problems.append(f"KEEP names {name}, which is not a src function")
        elif name not in unreached_names:
            problems.append(f"KEEP names {name}, which a command reached")
    return lines, problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory(prefix="reach.") as tmp:
        reached, problems = sweep(cases(benchmark_configs(), Path(tmp)))
    lines, more = report(defined_functions(), reached)
    print("\n".join(lines))
    for problem in problems + more:
        print(f"problem: {problem}")
    return 1 if problems or more else 0


if __name__ == "__main__":
    sys.exit(main())
