"""Command-line entry point.

Subcommands: run (full pipeline), flow (integrate the first scenario),
project (harmonic projection of the first scenario), distance (query
battery on the first scenario's trace), check (harness on persisted
traces only).  Exit codes: 0 all pass, 1 check failures, 2 scenario
errors, 3 config errors.  A run or check that does not pass prints each
failing row of every measured scenario's checks.csv.

Importing the package loads no scipy and changes no process setting.
Each command checks its config, its output path (made there) and, for
`distance`, the battery's preconditions before it loads anything.  Then
its set-up (`_set_up`) loads the back ends the config runs, so their load
cost falls in set-up and not in the pipeline: scipy's FFT kernel, loaded
alone with no scipy module (fields), and scipy's sparse graph stack only
where graphs are searched.  Set-up also sets the C library's malloc
thresholds so that freed memory stays in the process
(`_keep_freed_memory`).  glibc otherwise serves each grid array of a
megabyte or more from a mapping of its own and unmaps it when the array is
freed, and trims the heap top it frees, so every measured snapshot and flow
step faults its temporaries in again.  A C library without `mallopt` is
left as it is.
"""

from __future__ import annotations

import argparse
import ctypes
import sys
from pathlib import Path

import numpy as np

from . import io as tfio
from .distances import _graph_stack, battery_config_errors, distance_fragment
from .fields import FieldError, _fft_module
from .geometry import PositivityError, ProjectionError, assemble, harmonic_projection, volume
from .runner import (
    EXIT_CHECK_FAIL,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SCENARIO_ERROR,
    ConfigError,
    ensure_trace,
    exit_code_of,
    failed_checks,
    first_scenario,
    output_dir,
    parse_config,
    run_experiment,
    scenario_dir,
    write_distance_csv,
)
from .scenarios import ScenarioError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusflow",
        description="Geometric-flow laboratory on the torus: scenario families, "
        "flows, estimate checks, distances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "full pipeline: scenarios, flows, checks, reports"),
        ("flow", "integrate the flow for the first configured scenario"),
        ("project", "harmonic projection of the first configured scenario"),
        ("distance", "distance battery on the first scenario's trace"),
        ("check", "re-run harness checks on persisted traces (no flows)"),
    ):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the global seed")
        if name in ("run", "check"):  # the commands that flow a family
            p.add_argument("--jobs", type=int, default=1, help="scenario-level workers")
    return parser


def _resolve_out(args, config) -> Path:
    out = args.out or config.output
    if out is None:
        raise ConfigError(["output: no directory given (set `output` in the config or pass --out)"])
    return output_dir(out)


# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# Blocks below this size come from the heap, not from a mapping of their
# own that free() unmaps.  32 MiB is the largest value glibc accepts on
# 64-bit; at n = 2 it covers an N = 16 assembly (2 MiB) and an N = 32
# scalar field (8 MiB).
_MMAP_THRESHOLD = 32 << 20
# glibc gives a freed heap top back to the system once it exceeds this, so
# the next allocation faults the same pages in again; a command's live set
# stays far below 1 GiB, so its freed memory is kept for reuse.
_TRIM_THRESHOLD = 1 << 30


def _keep_freed_memory() -> None:
    """Set the two malloc thresholds above.  A C library without mallopt is
    left as it is, and a value it refuses (mallopt returns 0) leaves that
    threshold as it was."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _set_up(graphs: bool) -> None:
    """Everything a command does after its config checks and before its
    pipeline.  Load what it runs: scipy's FFT kernel without the scipy
    package (fields), and scipy's sparse graph stack when graphs will be
    searched (distances); so where the kernel loads, a command that searches
    no graph imports no scipy module.  Then keep freed memory in the process."""
    _fft_module()
    if graphs:
        _graph_stack()
    _keep_freed_memory()


class _Failed(Exception):
    """Ends a command with EXIT_SCENARIO_ERROR; the message goes to stderr."""


def _first_scenario(config):
    try:
        return first_scenario(config)
    except ScenarioError as exc:
        raise _Failed(f"scenario error: {exc}") from exc


def _first_trace(config, out: Path) -> tuple:
    """(scenario, trace) of the first scenario, flowed first if no trace is stored."""
    scenario = _first_scenario(config)
    trace, why = ensure_trace(config, out, scenario)
    if trace is None:
        raise _Failed(why)
    return scenario, trace


def _row_text(row: dict, resume_only: bool) -> str:
    if row["status"] != "ok":
        return f"{row['status']} ({row['error']})" if resume_only else f"ERROR {row['error']}"
    if resume_only:
        return "checked"
    return f"ok (amplitude {row['amplitude']:.6g}, floor {row['curvature_floor']:.6g})"


def _cmd_run(args, resume_only: bool = False) -> int:
    """`run`, or with resume_only `check`: the pipeline on persisted traces only."""
    if args.jobs < 1:
        raise ConfigError([f"--jobs: must be an integer >= 1, got {args.jobs}"])
    config = parse_config(args.config, args.seed)
    out = _resolve_out(args, config)
    _set_up(graphs=config.distance.enabled)
    manifest = run_experiment(config, out, jobs=args.jobs, resume_only=resume_only)
    for row in manifest.scenarios:
        print(f"scenario i={row.get('index', '?')}: {_row_text(row, resume_only)}")
        if row["status"] == "ok" and not manifest.all_checks_pass:
            for name, slack, tolerance in failed_checks(scenario_dir(out, row["index"])):
                print(f"  check {name} failed: slack {slack}, tolerance {tolerance}")
    verdict = "PASS" if manifest.all_checks_pass else "FAIL"
    print(f"checks: {verdict}; manifest: {out / 'manifest.json'}")
    return exit_code_of(manifest)


def _cmd_flow(args) -> int:
    config = parse_config(args.config, args.seed)
    out = _resolve_out(args, config)
    _set_up(graphs=False)
    scenario, trace = _first_trace(config, out)
    last = trace.diagnostics[-1]
    print(f"flow complete: i={scenario.index}, t={last.t:.6g}, steps={len(trace.diagnostics) - 1}")
    print(f"  final min scalar curvature {last.min_scalar_curvature:.6g}, "
          f"volume {last.volume:.12g}, min eigenvalue {last.min_eigenvalue:.6g}")
    print(f"  trace: {scenario_dir(out, scenario.index) / 'trace'}")
    return EXIT_OK


def _cmd_project(args) -> int:
    config = parse_config(args.config, args.seed)
    out = output_dir(args.out) if args.out else None
    _set_up(graphs=False)
    scenario = _first_scenario(config)
    g = assemble(scenario.metric)  # the projection and the volume share one assembly
    try:
        flat, u = harmonic_projection(g)
    except ProjectionError as exc:
        raise _Failed(f"projection failed: {exc}") from exc
    sup_u = float(np.abs(u.values).max())
    print(f"flat representative of scenario i={scenario.index}:")
    print(f"  H_flat = {np.array2string(flat.H, precision=12)}")
    print(f"  sup|u| = {sup_u:.12g}   min R = {scenario.curvature_floor:.6g}")
    print(f"  volume: input {volume(g):.12g}, flat {volume(flat):.12g}")
    if out is not None:
        tfio.save_field(u, out / "flat_potential.tkrf")
        tfio.write_json_atomic(out / "flat_metric.json", {"H": tfio._matrix_json(flat.H)})
        print(f"  wrote {out / 'flat_potential.tkrf'} and {out / 'flat_metric.json'}")
    return EXIT_OK


def _cmd_distance(args) -> int:
    config = parse_config(args.config, args.seed)
    if errors := battery_config_errors(config):  # whether or not `run` measures distances
        raise ConfigError(errors)
    out = _resolve_out(args, config)
    _set_up(graphs=True)
    scenario, trace = _first_trace(config, out)
    try:
        result = distance_fragment(config, trace)
    except (PositivityError, FieldError) as exc:  # a trace that holds no valid metric
        raise _Failed(f"measurement failed: {type(exc).__name__}: {exc}") from exc
    report, battery = result.report, result.report["flat_battery"]
    table = write_distance_csv(scenario_dir(out, scenario.index), result)
    print(f"distance battery on scenario i={scenario.index}:")
    print(f"  fitted C = {report['fitted_C']:.6g}, min slack = {report['min_slack']:.3g}")
    print(f"  flat battery ({battery['count']} queries): max relative error "
          f"{battery['max_rel_error']:.4%}")
    print(f"  table: {table}")
    return EXIT_OK if result.passed else EXIT_CHECK_FAIL


_COMMANDS = {
    "run": _cmd_run,
    "flow": _cmd_flow,
    "project": _cmd_project,
    "distance": _cmd_distance,
    "check": lambda args: _cmd_run(args, resume_only=True),
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        for msg in exc.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except _Failed as exc:
        print(exc, file=sys.stderr)
        return EXIT_SCENARIO_ERROR


if __name__ == "__main__":
    sys.exit(main())
