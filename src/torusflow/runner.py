"""Experiment orchestration: config parsing, pipeline runs, artifact layout.

A run directory looks like

    out/
      scenario_i001/
        trace/            meta.json + snapshots + diagnostics.csv
        trace_key.txt     hash of the trace-determining config slice
        report.json       harness checks for this index
        checks.csv        check, slack, tolerance, pass (+ distance rows)
        distance.csv      query id, t, d, method, slack   (p = inf runs)
      family.csv          one row per index
      family_summary.json fitted constants, rate fits, monotonicity
      plots/              two-column csv files, sorted by abscissa
      manifest.json       removed first, written last, atomically: its presence
                          marks a run that completed

Re-running with the same config resumes from persisted traces (matching
trace_key) and regenerates everything downstream, byte-identically apart
from the manifest's timings, minor faults and peak RSS.  It also resumes
the family: when the manifest it replaces recorded a completed run under
the same trace_key (one well-formed row per index), `check` and
`run` take each scenario from its row (`scenarios.rebuild_sequence`)
instead of calibrating again; otherwise `make_sequence` calibrates as on a
fresh directory.

Scenarios are measured one at a time: each trace is loaded, measured,
given its distance result and released before the next is loaded.  A
scenario whose flow fails or whose worker dies, or whose trace cannot be
loaded or measured, is that scenario's error row; the family is fitted
over the others.  A run first removes every report file above that an
earlier run wrote, so none outlives the run that replaced it.

The runner builds no scenario and makes no measurement decision:
`scenarios.make_sequence` builds every family, `distances` decides when
its battery may run and hands back a finished `DistanceResult`, and
`harness` decides each scenario's verdict (`EstimateReport.all_passed`,
the battery included) and the family's (`family_passed`).  The runner
writes their rows and reads their verdicts into the manifest.

Config defaults live in the records the sections build (FlowConfig,
ScenarioSpec, HarnessConfig, DistanceConfig; ExperimentConfig for the
top-level keys): a key the config omits takes its record's default.
config_from_dict resolves the three that depend on other sections: the
scenario seed, q_list and distance.enabled.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import json
import math
import platform
import re
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io as tfio
from . import fields
from .fields import FieldError, TorusGeometry, constant_field
from .flow import FlowConfig, run_flow
from .geometry import PositivityError, pairing_density
from .harness import (HarnessConfig, build_reports, default_test_forms, family_columns,
                      family_passed, family_summary, measure)
from .distances import DISTANCE_COLUMNS, DistanceConfig, battery_config_errors, distance_fragment
from .scenarios import (SCENARIO_FIELDS, Scenario, ScenarioError, ScenarioSpec, make_sequence,
                        rebuild_sequence)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "config_from_dict",
    "first_scenario",
    "output_dir",
    "scenario_dir",
    "ensure_trace",
    "write_distance_csv",
    "run_experiment",
    "emit_outputs",
    "exit_code_of",
    "failed_checks",
]


# process exit codes of a command: all checks pass, a check fails, a
# scenario or trace error, a config error
EXIT_OK = 0
EXIT_CHECK_FAIL = 1
EXIT_SCENARIO_ERROR = 2
EXIT_CONFIG_ERROR = 3


class ConfigError(ValueError):
    """Invalid experiment config; .errors lists field-level messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: the record each section builds, plus the top-level
    output and seed."""

    geometry: TorusGeometry
    scenario: ScenarioSpec
    flow: FlowConfig
    harness: HarnessConfig
    distance: DistanceConfig
    output: str | None = None
    seed: int = 7

    @property
    def normalized(self) -> dict:
        """Canonical JSON form of the parsed config, used for hashing."""
        spec = self.scenario
        return {
            "geometry": {"n": self.geometry.n, "N": self.geometry.N},
            "scenario": {
                "seed": spec.seed,
                "indices": list(spec.indices),
                "max_mode": spec.max_mode,
                "background": tfio._matrix_json(spec.background),
                "lambda_gate": spec.lambda_gate,
                "p": "inf" if spec.p is not None and math.isinf(spec.p) else spec.p,
                "flat": spec.flat,
            },
            "flow": tfio._config_json(self.flow),
            "harness": asdict(self.harness),
            "distance": asdict(self.distance),
            "seed": self.seed,
        }

    @property
    def config_hash(self) -> str:
        return _hash_dict(self.normalized)

    @property
    def trace_key(self) -> str:
        normalized = self.normalized
        return _hash_dict({k: normalized[k] for k in ("geometry", "scenario", "flow", "seed")})


def _hash_dict(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# config parsing: one table per section, each row (key, check, "must be ..."
# text, coercion or None); unknown keys are errors


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_seed(v) -> bool:
    return _is_int(v) and v >= 0


def _is_positive_int(v) -> bool:
    return _is_int(v) and v > 0


def _is_positive(v) -> bool:
    return _is_num(v) and 0 < v < math.inf


def _is_list(v, check) -> bool:
    return isinstance(v, list) and all(check(x) for x in v)


def _floats(v) -> tuple:
    return tuple(float(x) for x in v)


def _parse_p(raw):
    if raw is None:
        return None
    if _is_num(raw):
        return float(raw)
    if isinstance(raw, str) and raw.lower().lstrip("+") in ("inf", "infinity"):
        return math.inf
    shown = repr(raw) if isinstance(raw, str) else type(raw).__name__
    raise ValueError(f"expected a number or 'inf', got {shown}")


def _parse_background(raw):
    if raw is None:
        return None
    try:
        return tfio._matrix_from_json(raw)
    except (TypeError, ValueError):
        raise ValueError("must be nested [re, im] pairs") from None


_TOP = (
    # the sections, each read with its own table below
    ("geometry", None, None, None),
    ("scenario", None, None, None),
    ("flow", None, None, None),
    ("harness", None, None, None),
    ("distance", None, None, None),
    ("seed", _is_seed, "must be an integer >= 0", None),
    ("output", lambda v: v is None or isinstance(v, str), "must be a path string", None),
)
_GEOMETRY = (
    ("n", lambda v: _is_int(v) and v in (1, 2), "must be 1 or 2", None),
    ("N", lambda v: _is_int(v) and v >= 4 and v % 2 == 0, "must be an even integer >= 4", None),
)
_SCENARIO = (
    ("indices",
     lambda v: _is_list(v, _is_positive_int) and len(v) > 0 and all(a < b for a, b in zip(v, v[1:])),
     "must be a strictly increasing list of positive integers", tuple),
    ("max_mode", _is_positive_int, "must be a positive integer", None),
    ("background", None, None, _parse_background),
    ("lambda_gate", _is_positive, "must be positive and finite", float),
    ("p", None, None, _parse_p),
    ("flat", lambda v: isinstance(v, bool), "must be true or false", None),
    ("seed", _is_seed, "must be an integer >= 0", None),
)
_FLOW = (  # types only: FlowConfig checks the values
    ("sigma", _is_num, "must be a number", None),
    ("t_end", _is_num, "must be a number", None),
    ("snapshot_times", lambda v: _is_list(v, _is_num), "must be a list of numbers", _floats),
    ("t_ramp", _is_num, "must be a number", None),
)
_HARNESS = (
    ("test_forms", lambda v: _is_int(v) and v >= 0, "must be a non-negative integer", None),
    ("form_seed", _is_seed, "must be an integer >= 0", None),
    ("q_list", lambda v: v is None or _is_list(v, _is_positive),
     "must be a list of positive finite numbers", lambda v: _floats(v or ())),
)
_DISTANCE = (
    ("enabled", lambda v: v is None or isinstance(v, bool), "must be true, false or omitted", None),
    ("radius", _is_positive_int, "must be a positive integer", None),
    ("queries", _is_positive_int, "must be a positive integer", None),
    ("flat_queries", _is_positive_int, "must be a positive integer", None),
    ("times", lambda v: _is_list(v, _is_positive), "must be a list of positive finite numbers",
     _floats),
    ("seed", _is_seed, "must be an integer >= 0", None),
)


def _read(section: str, given, rows, errors: list) -> dict:
    """The keys given in one section ("" for the top level), each checked
    and coerced by its row; unknown keys and failed rows go to errors and
    leave their key out.  A check of None leaves the value to the
    coercion, which raises ValueError with the message, or to the record."""
    if not isinstance(given, dict):
        errors.append(f"{section}: must be an object")
        return {}
    prefix = f"{section}." if section else ""
    allowed = sorted(row[0] for row in rows)
    for key in sorted(set(given) - set(allowed)):
        errors.append(f"{prefix or 'top level.'}{key}: unknown key (allowed: {', '.join(allowed)})")
    values = {}
    for key, check, must, coerce in rows:
        if key not in given:
            continue
        value = given[key]
        if check is not None and not check(value):
            errors.append(f"{prefix}{key}: {must}, got {value!r}")
            continue
        try:
            values[key] = value if coerce is None else coerce(value)
        except ValueError as exc:
            errors.append(f"{prefix}{key}: {exc}")
    return values


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    errors: list = []
    top = _read("", raw, _TOP, errors)
    if not isinstance(top.get("geometry"), dict):
        raise ConfigError(errors + ["geometry: required object with keys n, N"])
    if not isinstance(top.get("scenario"), dict):
        raise ConfigError(errors + ["scenario: required object (needs at least indices)"])
    # a required key that is absent reads as null, so that its row reports it
    geo = _read("geometry", {"n": None, "N": None, **top["geometry"]}, _GEOMETRY, errors)
    scen = _read("scenario", {"indices": None, **top["scenario"]}, _SCENARIO, errors)
    flow = _read("flow", top.get("flow", {}), _FLOW, errors)
    harness = _read("harness", top.get("harness", {}), _HARNESS, errors)
    distance = _read("distance", top.get("distance", {}), _DISTANCE, errors)
    if errors:
        raise ConfigError(errors)

    # rules across keys, on values that passed their rows
    geometry = TorusGeometry(**geo)
    n, N = geometry.n, geometry.N
    max_mode = scen.get("max_mode", ScenarioSpec.max_mode)
    if 3 * max_mode > N:
        errors.append(
            f"scenario.max_mode: {max_mode} leaves no dealiasing headroom at N={N}; "
            f"products of modes up to {max_mode} alias unless 3*max_mode <= N (2/3 rule)"
        )
    if scen.get("background") is not None and scen["background"].shape != (n, n):
        errors.append(f"scenario.background: must be {n}x{n} [re, im] pairs")
    if errors:
        raise ConfigError(errors)
    try:
        flow = FlowConfig(**flow)
    except ValueError as exc:
        raise ConfigError([f"flow: {exc}"]) from exc
    seed = top.get("seed", ExperimentConfig.seed)
    scen.setdefault("seed", seed)
    try:
        spec = ScenarioSpec(geometry=geometry, **scen)
    except ScenarioError as exc:
        raise ConfigError([f"scenario: {exc}"]) from exc
    harness = HarnessConfig(**harness)
    if not harness.q_list:
        harness = replace(harness, q_list=(float(n), 1.5 * n))
    distance = DistanceConfig(**distance)
    if distance.enabled is None:  # on in the uniform-equivalence regime unless forced
        distance = replace(distance, enabled=math.isinf(spec.trace_exponent))
    config = ExperimentConfig(geometry=geometry, scenario=spec, flow=flow, harness=harness,
                              distance=distance, output=top.get("output"), seed=seed)
    if distance.enabled and (errors := battery_config_errors(config)):
        raise ConfigError(errors)
    return config


def parse_config(path, seed: int | None = None) -> ExperimentConfig:
    """Load a JSON config file; a given seed replaces the file's global
    seed, and the scenario seed is then derived from it."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"]) from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, say, or not UTF-8
        raise ConfigError([f"config file cannot be read: {path}: {exc}"]) from exc
    if seed is not None:
        if not isinstance(raw, dict):
            raise ConfigError(["top level: expected a JSON object"])
        raw["seed"] = seed
        if isinstance(raw.get("scenario"), dict):
            raw["scenario"].pop("seed", None)
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class RunManifest:
    config_hash: str
    trace_key: str  # the family and its traces depend on this slice of the config alone
    version: str
    scenarios: list
    family: dict
    all_checks_pass: bool
    any_errors: bool
    outputs: list
    timings: dict
    minor_faults: dict  # the process's minor page faults in each timed stage
    peak_rss_mb: dict  # the process's peak RSS at the end of each timed stage
    libraries: dict  # what the timings depend on: versions, and the FFT that ran

    def as_dict(self) -> dict:
        return asdict(self)


def output_dir(out) -> Path:
    """out as a directory, made with its parents if missing; a path that
    cannot be one (a file there, say) is a ConfigError naming it."""
    out = Path(out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError([f"output: cannot make the directory {out}: {exc.strerror}"]) from exc
    return out


def scenario_dir(out: Path, index: int) -> Path:
    return Path(out) / f"scenario_i{index:03d}"


def first_scenario(config: ExperimentConfig) -> Scenario:
    """The smallest-index scenario, built as run_experiment builds it."""
    spec = replace(config.scenario, indices=config.scenario.indices[:1])
    return make_sequence(spec)[0]


def _flow_one(config: ExperimentConfig, scenario: Scenario, out: Path) -> str | None:
    """Worker: run one flow and persist it; returns None, or why it failed.
    The old key goes first, so a key path that cannot be written fails
    before the flow, and an interrupted save leaves no key beside it."""
    sdir = scenario_dir(out, scenario.index)
    try:
        (sdir / "trace_key.txt").unlink(missing_ok=True)
        tfio.save_trace(run_flow(scenario.metric, config.flow), sdir / "trace")
        (sdir / "trace_key.txt").write_text(config.trace_key + "\n")
    except Exception as exc:  # any failure becomes this scenario's error row
        return f"flow failed: {type(exc).__name__}: {exc}"
    return None


def _has_persisted_trace(sdir: Path, trace_key: str) -> bool:
    """Whether sdir holds a trace under trace_key.  A key file that cannot
    be read, or holds other bytes, marks no trace."""
    try:
        key = (sdir / "trace_key.txt").read_bytes()
    except OSError:
        return False
    return key.strip() == trace_key.encode() and (sdir / "trace" / "meta.json").exists()


def ensure_trace(config: ExperimentConfig, out, scenario: Scenario,
                 resume_only: bool = False) -> tuple:
    """(trace, None) for the trace persisted under the config's trace key,
    or (None, reason).  Unless resume_only, a missing or unloadable trace
    is first flowed again and persisted in its place."""
    sdir = scenario_dir(out, scenario.index)
    why = "no persisted trace for this config; run the full pipeline first"
    if _has_persisted_trace(sdir, config.trace_key):
        try:
            return tfio.load_trace(sdir / "trace"), None
        except (OSError, ValueError) as exc:
            why = f"trace reload failed: {exc}"
    if resume_only or (why := _flow_one(config, scenario, out)) is not None:
        return None, why
    return ensure_trace(config, out, scenario, resume_only=True)


class _Stages:
    """The manifest's per-stage records, each keyed by stage with "total"
    for the whole run: wall time and this process's minor page faults, both
    summed over a stage's blocks, and the process's peak RSS in MB when its
    last block ended."""

    def __init__(self):
        self.timings: dict = {}
        self.minor_faults: dict = {}
        self.peak_rss_mb: dict = {}
        self._start = (time.perf_counter(), _usage().ru_minflt)

    @contextmanager
    def timed(self, stage: str):
        t0, faults0 = time.perf_counter(), _usage().ru_minflt
        try:
            yield
        finally:
            self._record(stage, t0, faults0)

    def close(self) -> None:
        """Record the run's total, from when the stages were made."""
        self._record("total", *self._start)

    def _record(self, stage: str, t0: float, faults0: int) -> None:
        elapsed, usage = time.perf_counter() - t0, _usage()
        self.timings[stage] = self.timings.get(stage, 0.0) + elapsed
        self.minor_faults[stage] = self.minor_faults.get(stage, 0) + usage.ru_minflt - faults0
        self.peak_rss_mb[stage] = usage.ru_maxrss / 1024.0  # Linux reports ru_maxrss in KiB


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def _library_versions() -> dict:
    """The interpreter, numpy, scipy, the C library and the module that ran
    the real transforms (fields.FFT_LIBRARY), scipy code at every grid rank.
    scipy's version is read from its version.py, which imports nothing; the
    C library is None when platform cannot name it."""
    version_py = Path(importlib.util.find_spec("scipy").origin).with_name("version.py")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": re.search(r"^version = ['\"](.+)['\"]$", version_py.read_text(), re.M)[1],
        "libc": " ".join(filter(None, platform.libc_ver())) or None,
        "fft": fields.FFT_LIBRARY,
    }


def write_distance_csv(sdir: Path, result) -> Path:
    """A scenario's distance.csv: the rows of its DistanceResult."""
    path = sdir / "distance.csv"
    tfio.write_csv_atomic(path, DISTANCE_COLUMNS, result.rows)
    return path


def _measure_scenario(config: ExperimentConfig, out: Path, scenario: Scenario, forms,
                      densities, resume_only: bool, stages: _Stages) -> tuple:
    """(measurement with its distance result, None), or (None, reason).
    The trace lives only in this call, so the caller holds one at a time."""
    trace, why = ensure_trace(config, out, scenario, resume_only)
    if trace is None:
        return None, why
    try:
        with stages.timed("harness"):
            m = measure(trace, scenario.index, scenario.amplitude, forms, densities,
                        list(config.harness.q_list))
        if config.distance.enabled:
            with stages.timed("distance"):
                m.distance = distance_fragment(config, trace)
    except (PositivityError, FieldError) as exc:  # a trace that holds no valid metric
        return None, f"measurement failed: {type(exc).__name__}: {exc}"
    return m, None


def _flow_pending(config: ExperimentConfig, pending: list, out: Path, jobs: int) -> dict:
    """Index -> _flow_one's result per pending scenario.  The pool forks all
    its workers at once, so it gets no more than there are flows, and each
    result is read on its own: a dead worker fails each unfinished flow.
    The pool's modules are imported only when there is a pool."""
    workers = min(jobs, len(pending))
    if workers <= 1:
        return {sc.index: _flow_one(config, sc, out) for sc in pending}
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    errors = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for sc, future in [(sc, pool.submit(_flow_one, config, sc, out)) for sc in pending]:
            try:
                errors[sc.index] = future.result()
            except BrokenProcessPool as exc:
                errors[sc.index] = f"flow worker died: {exc}"
    return errors


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1,
                   resume_only: bool = False) -> RunManifest:
    """Full pipeline; with resume_only no flow is computed, only reloaded.
    The family is the one the replaced manifest recorded for this config,
    or calibrated when there is none."""
    out = output_dir(out_dir)
    recorded = _recorded_scenarios(out, config)
    _remove_reports(out)
    output_dir(out / "plots")  # emit_outputs writes there; made before any flow, so a file there fails
    stages = _Stages()

    scenario_rows = []
    try:
        with stages.timed("scenario_generation"):
            scenarios = (rebuild_sequence(config.scenario, recorded)
                         or make_sequence(config.scenario))
    except ScenarioError as exc:
        scenarios = []
        scenario_rows.append({"status": "error", "error": f"scenario generation failed: {exc}"})

    # flows for scenarios with no persisted trace, optionally parallel
    pending = [] if resume_only else [
        sc for sc in scenarios
        if not _has_persisted_trace(scenario_dir(out, sc.index), config.trace_key)
    ]
    with stages.timed("flows"):
        flow_errors = _flow_pending(config, pending, out, jobs)

    forms = densities = ()  # test forms only for scenarios: a grid too large for one is for both
    if scenarios:
        with stages.timed("harness"):
            forms = default_test_forms(
                config.geometry, count=config.harness.test_forms,
                max_mode=config.scenario.max_mode, seed=config.harness.form_seed,
            )
            zero = constant_field(config.geometry, 0.0)  # the density of every constant form
            densities = [zero if form.constant else pairing_density(form) for _, form in forms]

    ms = []
    for sc in scenarios:
        sdir = scenario_dir(out, sc.index)
        err = flow_errors.get(sc.index)
        if err is None:
            m, err = _measure_scenario(config, out, sc, forms, densities, resume_only, stages)
            if m is not None:
                ms.append(m)
        scenario_rows.append(
            {
                "index": sc.index,
                "status": "ok" if err is None else "error",
                "error": err,
                **{name: getattr(sc, name) for name in SCENARIO_FIELDS},
                "trace_dir": str(sdir / "trace"),
                "report": str(sdir / "report.json"),
            }
        )

    family: dict = {}
    outputs: list = []
    any_errors = any(row["status"] != "ok" for row in scenario_rows)
    all_pass = bool(ms) and not any_errors  # an error row is a scenario not checked
    if ms:
        with stages.timed("harness"):
            reports, fam = build_reports(ms)
            family = family_summary(ms, fam)
        outputs.extend(emit_outputs(out, reports, family, ms))
        all_pass = all_pass and all(r.all_passed for r in reports) and family_passed(family)

    stages.close()
    manifest = RunManifest(
        config_hash=config.config_hash,
        trace_key=config.trace_key,
        version=__version__,
        scenarios=scenario_rows,
        family=family,
        all_checks_pass=all_pass,
        any_errors=any_errors,
        outputs=sorted(str(p) for p in outputs),
        timings=stages.timings,
        minor_faults=stages.minor_faults,
        peak_rss_mb=stages.peak_rss_mb,
        libraries=_library_versions(),
    )
    tfio.write_json_atomic(out / "manifest.json", manifest.as_dict())
    return manifest


def _recorded_scenarios(out: Path, config: ExperimentConfig):
    """The scenario rows of the manifest in out if it records a run under
    this config's trace key, else None; a manifest that is missing or
    unreadable is None too.  The family depends only on that key's slice,
    so a config that differs in its harness or distance section reuses it."""
    try:
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # ValueError: not JSON, or not UTF-8
        return None
    if not isinstance(manifest, dict) or manifest.get("trace_key") != config.trace_key:
        return None
    return manifest.get("scenarios")


def exit_code_of(manifest: RunManifest) -> int:
    if manifest.any_errors:
        return EXIT_SCENARIO_ERROR
    if not manifest.all_checks_pass:
        return EXIT_CHECK_FAIL
    return EXIT_OK


# ---------------------------------------------------------------------------
# artifact emission: tables take raw values, and csv writes each float by
# its repr, so every cell reads back exactly


def _remove_reports(out: Path) -> None:
    """Drop every report file an earlier run wrote, so that none reads as
    this run's; traces and trace keys stay as they are.  The manifest goes
    first: an earlier one would mark this run a success if it crashed.  A
    path that cannot be removed (a directory, say) is a ConfigError."""
    paths = [out / "manifest.json", out / "family.csv", out / "family_summary.json"]
    paths += out.glob("plots/*_vs_*.csv")  # every plot emit_outputs writes is <y>_vs_<x>
    for name in ("report.json", "checks.csv", "distance.csv"):
        paths += out.glob(f"scenario_i*/{name}")
    for path in paths:
        try:
            path.unlink(missing_ok=True)
        except OSError as exc:
            raise ConfigError([f"output: cannot remove {path}: {exc.strerror}"]) from exc


def failed_checks(sdir: Path) -> list:
    """(check, slack, tolerance) of each failing row of a scenario's
    checks.csv, as emit_outputs writes them."""
    with open(Path(sdir) / "checks.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [(name, slack, tolerance) for name, slack, tolerance, passed in rows
            if passed != "true"]


def emit_outputs(out: Path, reports, summary, ms) -> list:
    """Write every report file of a measured family; returns their paths."""
    written = []

    for r in reports:
        sdir = scenario_dir(out, r.index)
        if r.distance is not None:
            written.append(write_distance_csv(sdir, r.distance))
        tfio.write_json_atomic(sdir / "report.json", r.as_dict())
        rows = [(chk.name, chk.slack, chk.tolerance, str(chk.passed).lower())
                for chk in r.check_rows]
        tfio.write_csv_atomic(sdir / "checks.csv", ("check", "slack", "tolerance", "pass"), rows)
        written.extend([sdir / "report.json", sdir / "checks.csv"])

    fam_rows = [family_columns(m) for m in ms]
    tfio.write_csv_atomic(out / "family.csv", list(fam_rows[0]),
                          [list(cells.values()) for cells in fam_rows])
    written.append(out / "family.csv")

    tfio.write_json_atomic(out / "family_summary.json", summary)
    written.append(out / "family_summary.json")

    plots = out / "plots"
    for m in ms:
        path = plots / f"min_scalar_vs_t_i{m.index:03d}.csv"
        tfio.write_csv_atomic(path, ("t", "min_scalar_curvature"), m.min_scalar_vs_t)
        written.append(path)
    series = [
        ("inf_dot_phi_vs_i.csv", ("i", "inf_dot_phi"), [(m.index, m.inf_dot_phi) for m in ms]),
        ("pairing_gap_vs_i.csv", ("i", "max_abs_pairing_gap"),
         [(m.index, max((abs(p.gap) for p in m.forms), default=0.0)) for m in ms]),
        ("density_l1_vs_i.csv", ("i", "v_minus_one_l1"), [(m.index, m.v_minus_one_l1) for m in ms]),
    ]
    for name, hdr, rows in series:
        path = plots / name
        tfio.write_csv_atomic(path, hdr, sorted(rows))
        written.append(path)
    return written
