"""Command-line entry point.

Subcommands: run (full pipeline), flow (integrate the first scenario),
project (harmonic projection of the first scenario), distance (query
battery on the first scenario's trace), check (harness on persisted
traces only).  Exit codes: 0 all pass, 1 check failures, 2 scenario
errors, 3 config errors.

Importing the package loads no scipy.  Each command, once its config is
parsed, imports the scipy stacks that config runs (`_load_back_ends`), so
their import cost falls in set-up and not in the pipeline.
"""

from __future__ import annotations

import argparse
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
    first_scenario,
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
        p.add_argument("--jobs", type=int, default=1, help="scenario-level workers")
    return parser


def _resolve_out(args, config) -> Path:
    out = args.out or config.output
    if out is None:
        raise ConfigError(["output: no directory given (set `output` in the config or pass --out)"])
    return Path(out)


def _load_back_ends(config, graphs: bool) -> None:
    """Import what the config runs: scipy.fft for n = 2 transforms
    (fields), and scipy's sparse graph stack when graphs will be searched
    (distances).  A command that runs neither loads no scipy."""
    _fft_module(config.geometry)
    if graphs:
        _graph_stack()


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
    config = parse_config(args.config, args.seed)
    _load_back_ends(config, graphs=config.distance.enabled)
    out = _resolve_out(args, config)
    manifest = run_experiment(config, out, jobs=max(1, args.jobs), resume_only=resume_only)
    for row in manifest.scenarios:
        print(f"scenario i={row.get('index', '?')}: {_row_text(row, resume_only)}")
    verdict = "PASS" if manifest.all_checks_pass else "FAIL"
    print(f"checks: {verdict}; manifest: {out / 'manifest.json'}")
    return exit_code_of(manifest)


def _cmd_flow(args) -> int:
    config = parse_config(args.config, args.seed)
    _load_back_ends(config, graphs=False)
    out = _resolve_out(args, config)
    scenario, trace = _first_trace(config, out)
    last = trace.diagnostics[-1]
    print(f"flow complete: i={scenario.index}, t={last.t:.6g}, steps={len(trace.diagnostics) - 1}")
    print(f"  final min scalar curvature {last.min_scalar_curvature:.6g}, "
          f"volume {last.volume:.12g}, min eigenvalue {last.min_eigenvalue:.6g}")
    print(f"  trace: {scenario_dir(out, scenario.index) / 'trace'}")
    return EXIT_OK


def _cmd_project(args) -> int:
    config = parse_config(args.config, args.seed)
    _load_back_ends(config, graphs=False)
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
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        tfio.save_field(u, out / "flat_potential.tkrf")
        tfio.write_json_atomic(out / "flat_metric.json", {"H": tfio._matrix_json(flat.H)})
        print(f"  wrote {out / 'flat_potential.tkrf'} and {out / 'flat_metric.json'}")
    return EXIT_OK


def _cmd_distance(args) -> int:
    config = parse_config(args.config, args.seed)
    _load_back_ends(config, graphs=True)
    if errors := battery_config_errors(config):  # whether or not `run` measures distances
        raise ConfigError(errors)
    out = _resolve_out(args, config)
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
