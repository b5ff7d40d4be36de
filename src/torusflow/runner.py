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
      manifest.json       written last, atomically: its presence marks success

Re-running with the same config resumes from persisted traces (matching
trace_key) and regenerates everything downstream, byte-identically apart
from manifest timings.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from . import io as tfio
from .fields import TorusGeometry, constant_field
from .flow import FlowConfig, FlowTrace, run_flow
from .geometry import KahlerMetric
from .geometry import volume as volume_of
from .harness import build_reports, default_test_forms, family_summary
from .distances import (
    MAX_GRAPH_EDGES,
    StencilConfig,
    check_distance_estimate,
    flat_accuracy_battery,
    random_queries,
    stencil_edges,
)
from .scenarios import Scenario, ScenarioError, ScenarioSpec, make_sequence

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "RunManifest",
    "parse_config",
    "config_from_dict",
    "first_scenario",
    "scenario_dir",
    "ensure_trace",
    "distance_fragment",
    "distance_passed",
    "write_distance_csv",
    "run_experiment",
    "emit_outputs",
    "exit_code_of",
]


class ConfigError(ValueError):
    """Invalid experiment config; .errors lists field-level messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    geometry: TorusGeometry
    scenario: ScenarioSpec
    flow: FlowConfig
    flat_mode: bool
    form_count: int
    form_seed: int
    q_list: tuple
    distance_enabled: bool
    stencil: StencilConfig
    distance_queries: int
    distance_flat_queries: int
    distance_times: tuple
    distance_seed: int
    output: str | None
    seed: int
    normalized: dict  # canonical parsed form, used for hashing

    @property
    def config_hash(self) -> str:
        return _hash_dict(self.normalized)

    @property
    def trace_key(self) -> str:
        keys = ("geometry", "scenario", "flow", "seed")
        return _hash_dict({k: self.normalized[k] for k in keys if k in self.normalized})


def _hash_dict(d: dict) -> str:
    return hashlib.sha256(
        json.dumps(d, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# ---------------------------------------------------------------------------
# config parsing (strict: unknown keys are errors)

_TOP_KEYS = {"geometry", "scenario", "flow", "harness", "distance", "output", "seed"}
_GEO_KEYS = {"n", "N"}
_SCEN_KEYS = {"seed", "indices", "max_mode", "background", "lambda_gate", "p", "flat"}
_FLOW_KEYS = set(tfio._CONFIG_FIELDS)
_HARNESS_KEYS = {"test_forms", "form_seed", "q_list"}
_DIST_KEYS = {"enabled", "radius", "queries", "flat_queries", "times", "seed"}


def _reject_unknown(section: str, given: dict, allowed: set, errors: list) -> None:
    for key in sorted(set(given) - allowed):
        errors.append(f"{section}.{key}: unknown key (allowed: {', '.join(sorted(allowed))})")


def _parse_p(raw, errors: list):
    if raw is None:
        return None
    if isinstance(raw, str):
        if raw.lower().lstrip("+") in ("inf", "infinity"):
            return math.inf
        errors.append(f"scenario.p: expected a number or 'inf', got {raw!r}")
        return None
    if isinstance(raw, (int, float)):
        return float(raw)
    errors.append(f"scenario.p: expected a number or 'inf', got {type(raw).__name__}")
    return None


def config_from_dict(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError(["top level: expected a JSON object"])
    errors: list = []
    _reject_unknown("top level", raw, _TOP_KEYS, errors)

    geo_raw = raw.get("geometry")
    if not isinstance(geo_raw, dict):
        errors.append("geometry: required object with keys n, N")
        raise ConfigError(errors)
    _reject_unknown("geometry", geo_raw, _GEO_KEYS, errors)
    n = geo_raw.get("n")
    N = geo_raw.get("N")
    if n not in (1, 2):
        errors.append(f"geometry.n: must be 1 or 2, got {n!r}")
    if not isinstance(N, int) or N < 4 or N % 2 != 0:
        errors.append(f"geometry.N: must be an even integer >= 4, got {N!r}")
    if errors:
        raise ConfigError(errors)
    geometry = TorusGeometry(n=n, N=N)

    scen_raw = raw.get("scenario")
    if not isinstance(scen_raw, dict):
        errors.append("scenario: required object (needs at least indices)")
        raise ConfigError(errors)
    _reject_unknown("scenario", scen_raw, _SCEN_KEYS, errors)
    seed = raw.get("seed", 7)
    if not isinstance(seed, int):
        errors.append(f"seed: must be an integer, got {seed!r}")
        seed = 7
    indices = scen_raw.get("indices")
    if (
        not isinstance(indices, list)
        or not indices
        or not all(isinstance(i, int) and i > 0 for i in indices)
        or any(b <= a for a, b in zip(indices, indices[1:]))
    ):
        errors.append(
            f"scenario.indices: must be a strictly increasing list of positive integers, got {indices!r}"
        )
    max_mode = scen_raw.get("max_mode", 3)
    if not isinstance(max_mode, int) or max_mode < 1:
        errors.append(f"scenario.max_mode: must be a positive integer, got {max_mode!r}")
    elif 3 * max_mode > N:
        errors.append(
            f"scenario.max_mode: {max_mode} leaves no dealiasing headroom at N={N}; "
            f"products of modes up to {max_mode} alias unless 3*max_mode <= N (2/3 rule)"
        )
    background = scen_raw.get("background")
    H0 = None
    if background is not None:
        try:
            H0 = np.array(
                [[complex(re, im) for re, im in row] for row in background]
            )
            if H0.shape != (geometry.n, geometry.n):
                errors.append(
                    f"scenario.background: must be {geometry.n}x{geometry.n} [re, im] pairs"
                )
        except (TypeError, ValueError):
            errors.append("scenario.background: must be nested [re, im] pairs")
            H0 = None
    lambda_gate = scen_raw.get("lambda_gate", 10.0)
    if not isinstance(lambda_gate, (int, float)) or lambda_gate <= 0:
        errors.append(f"scenario.lambda_gate: must be positive, got {lambda_gate!r}")
    p = _parse_p(scen_raw.get("p"), errors)
    flat_mode = scen_raw.get("flat", False)
    if not isinstance(flat_mode, bool):
        errors.append(f"scenario.flat: must be true or false, got {flat_mode!r}")
        flat_mode = False
    scen_seed = scen_raw.get("seed", seed)
    if not isinstance(scen_seed, int):
        errors.append(f"scenario.seed: must be an integer, got {scen_seed!r}")

    flow_raw = raw.get("flow", {})
    if not isinstance(flow_raw, dict):
        errors.append("flow: must be an object")
        flow_raw = {}
    _reject_unknown("flow", flow_raw, _FLOW_KEYS, errors)
    flow_kwargs = {}
    for key in _FLOW_KEYS & set(flow_raw):
        flow_kwargs[key] = flow_raw[key]
    if "snapshot_times" in flow_kwargs:
        st = flow_kwargs["snapshot_times"]
        if not isinstance(st, list) or not all(isinstance(x, (int, float)) for x in st):
            errors.append(f"flow.snapshot_times: must be a list of numbers, got {st!r}")
            del flow_kwargs["snapshot_times"]
        else:
            flow_kwargs["snapshot_times"] = tuple(float(x) for x in st)

    harness_raw = raw.get("harness", {})
    if not isinstance(harness_raw, dict):
        errors.append("harness: must be an object")
        harness_raw = {}
    _reject_unknown("harness", harness_raw, _HARNESS_KEYS, errors)
    form_count = harness_raw.get("test_forms", 5)
    if not isinstance(form_count, int) or form_count < 0:
        errors.append(f"harness.test_forms: must be a non-negative integer, got {form_count!r}")
    form_seed = harness_raw.get("form_seed", 101)
    if not isinstance(form_seed, int):
        errors.append(f"harness.form_seed: must be an integer, got {form_seed!r}")
    q_list = harness_raw.get("q_list")
    if q_list is not None and (
        not isinstance(q_list, list) or not all(isinstance(x, (int, float)) and x > 0 for x in q_list)
    ):
        errors.append(f"harness.q_list: must be a list of positive numbers, got {q_list!r}")
        q_list = None

    dist_raw = raw.get("distance", {})
    if not isinstance(dist_raw, dict):
        errors.append("distance: must be an object")
        dist_raw = {}
    _reject_unknown("distance", dist_raw, _DIST_KEYS, errors)
    dist_enabled = dist_raw.get("enabled")
    if dist_enabled is not None and not isinstance(dist_enabled, bool):
        errors.append(f"distance.enabled: must be true, false or omitted, got {dist_enabled!r}")
        dist_enabled = None
    radius = dist_raw.get("radius", 3)
    if not isinstance(radius, int) or radius < 1:
        errors.append(f"distance.radius: must be a positive integer, got {radius!r}")
        radius = 3
    d_queries = dist_raw.get("queries", 10)
    d_flat_queries = dist_raw.get("flat_queries", 100)
    for label, value in (("queries", d_queries), ("flat_queries", d_flat_queries)):
        if not isinstance(value, int) or value < 1:
            errors.append(f"distance.{label}: must be a positive integer, got {value!r}")
    d_times = dist_raw.get("times", [0.05, 0.25, 1.0])
    if not isinstance(d_times, list) or not all(isinstance(x, (int, float)) and x > 0 for x in d_times):
        errors.append(f"distance.times: must be a list of positive numbers, got {d_times!r}")
        d_times = [0.05, 0.25, 1.0]
    d_seed = dist_raw.get("seed", 2024)
    if not isinstance(d_seed, int):
        errors.append(f"distance.seed: must be an integer, got {d_seed!r}")
        d_seed = 2024

    output = raw.get("output")
    if output is not None and not isinstance(output, str):
        errors.append(f"output: must be a path string, got {output!r}")
        output = None

    if errors:
        raise ConfigError(errors)

    try:
        flow = FlowConfig(**flow_kwargs)
    except ValueError as exc:
        raise ConfigError([f"flow: {exc}"]) from exc
    try:
        spec = ScenarioSpec(
            geometry=geometry,
            seed=scen_seed,
            indices=tuple(indices),
            max_mode=max_mode,
            background=H0,
            lambda_gate=float(lambda_gate),
            p=p,
        )
    except ScenarioError as exc:
        raise ConfigError([f"scenario: {exc}"]) from exc
    # distance battery runs in the uniform-equivalence regime unless forced
    if dist_enabled is None:
        dist_enabled = math.isinf(spec.trace_exponent)
    if dist_enabled:
        try:
            edges = stencil_edges(geometry, radius)
        except ValueError as exc:
            raise ConfigError([f"distance.radius: {exc}"]) from exc
        if edges > MAX_GRAPH_EDGES:
            raise ConfigError([
                f"distance.radius: radius {radius} at n={n}, N={N} gives {edges:,} graph edges, "
                f"over the budget of {MAX_GRAPH_EDGES:,}"
            ])

    qs = tuple(float(x) for x in q_list) if q_list else (float(geometry.n), 1.5 * geometry.n)
    normalized = {
        "geometry": {"n": geometry.n, "N": geometry.N},
        "scenario": {
            "seed": scen_seed,
            "indices": list(spec.indices),
            "max_mode": max_mode,
            "background": [[[float(z.real), float(z.imag)] for z in row] for row in spec.background],
            "lambda_gate": float(lambda_gate),
            "p": ("inf" if p is not None and math.isinf(p) else p),
            "flat": flat_mode,
        },
        "flow": tfio._config_json(flow),
        "harness": {"test_forms": form_count, "form_seed": form_seed, "q_list": list(qs)},
        "distance": {
            "enabled": dist_enabled,
            "radius": radius,
            "queries": d_queries,
            "flat_queries": d_flat_queries,
            "times": [float(t) for t in d_times],
            "seed": d_seed,
        },
        "seed": seed,
    }
    return ExperimentConfig(
        geometry=geometry,
        scenario=spec,
        flow=flow,
        flat_mode=flat_mode,
        form_count=form_count,
        form_seed=form_seed,
        q_list=qs,
        distance_enabled=dist_enabled,
        stencil=StencilConfig(radius=radius),
        distance_queries=d_queries,
        distance_flat_queries=d_flat_queries,
        distance_times=tuple(float(t) for t in d_times),
        distance_seed=d_seed,
        output=output,
        seed=seed,
        normalized=normalized,
    )


def parse_config(path, seed: int | None = None) -> ExperimentConfig:
    """Load a JSON config file; a given seed replaces the file's global
    seed, and the scenario seed is then derived from it."""
    path = Path(path)
    if not path.exists():
        raise ConfigError([f"config file not found: {path}"])
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
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
    version: str
    scenarios: list
    family: dict
    all_checks_pass: bool
    any_errors: bool
    outputs: list
    timings: dict

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "version": self.version,
            "scenarios": self.scenarios,
            "family": self.family,
            "all_checks_pass": self.all_checks_pass,
            "any_errors": self.any_errors,
            "outputs": self.outputs,
            "timings": self.timings,
        }


def scenario_dir(out: Path, index: int) -> Path:
    return Path(out) / f"scenario_i{index:03d}"


def _flat_scenarios(spec: ScenarioSpec) -> list:
    """The background itself, as flat initial data for every index."""
    metric = KahlerMetric(spec.background, constant_field(spec.geometry, 0.0))
    vol, trace_norm = volume_of(metric), spec.trace_norm(metric)
    return [
        Scenario(index=i, amplitude=0.0, metric=metric, curvature_floor=0.0, volume=vol,
                 trace_norm=trace_norm, positive_part_budget=0.0)
        for i in spec.indices
    ]


def _scenarios(spec: ScenarioSpec, flat: bool) -> list:
    return _flat_scenarios(spec) if flat else make_sequence(spec)


def first_scenario(config: ExperimentConfig) -> Scenario:
    """The smallest-index scenario, built as run_experiment builds it."""
    spec = replace(config.scenario, indices=config.scenario.indices[:1])
    return _scenarios(spec, config.flat_mode)[0]


def _flow_and_save(metric, flow_config, sdir: Path, trace_key: str) -> FlowTrace:
    trace = run_flow(metric, flow_config)
    tfio.save_trace(trace, sdir / "trace")
    (sdir / "trace_key.txt").write_text(trace_key + "\n")
    return trace


def _flow_one(args):
    """Worker: run one flow and persist it; returns a status tuple."""
    metric, flow_config, sdir, trace_key = args
    try:
        _flow_and_save(metric, flow_config, sdir, trace_key)
        return ("ok", None)
    except Exception as exc:  # any failure becomes this scenario's error row
        return ("error", f"flow failed: {type(exc).__name__}: {exc}")


def _load_trace(sdir: Path) -> tuple:
    """(trace, None), or (None, reason) when the persisted trace does not load."""
    try:
        return tfio.load_trace(sdir / "trace"), None
    except (OSError, tfio.FormatError, ValueError) as exc:
        return None, f"trace reload failed: {exc}"


def _persisted_trace(sdir: Path, trace_key: str) -> tuple:
    """(trace, None) for a loadable trace persisted under trace_key, else (None, reason)."""
    key_file = sdir / "trace_key.txt"
    if not (
        key_file.exists()
        and (sdir / "trace" / "meta.json").exists()
        and key_file.read_text().strip() == trace_key
    ):
        return None, "no persisted trace for this config; run the full pipeline first"
    return _load_trace(sdir)


def ensure_trace(config: ExperimentConfig, out, scenario: Scenario) -> FlowTrace:
    """The scenario's persisted trace when it matches the config and loads;
    otherwise a fresh flow, persisted in its place."""
    sdir = scenario_dir(out, scenario.index)
    trace, _ = _persisted_trace(sdir, config.trace_key)
    if trace is None:
        sdir.mkdir(parents=True, exist_ok=True)
        trace = _flow_and_save(scenario.metric, config.flow, sdir, config.trace_key)
    return trace


def distance_fragment(config: ExperimentConfig, trace: FlowTrace) -> dict:
    """Distance estimate on one trace, plus the flat battery's summary."""
    queries = random_queries(config.geometry, config.distance_queries, config.distance_seed)
    frag = check_distance_estimate(
        trace, queries, times=config.distance_times, stencil=config.stencil,
    )
    battery = flat_accuracy_battery(
        trace.alpha,
        config.geometry,
        count=config.distance_flat_queries,
        seed=config.distance_seed + 1,
        stencil=config.stencil,
    )
    frag["flat_battery"] = {k: v for k, v in battery.items() if k != "rows"}
    return frag


def distance_passed(frag: dict) -> bool:
    return frag["pass"] and frag["flat_battery"]["max_rel_error"] <= 0.02


def write_distance_csv(sdir: Path, frag: dict) -> Path:
    """Graph rows (slack against the fitted bound), then flat-exact rows."""
    rows = [
        (drow["query"], _fmt(drow["t"]), _fmt(drow["dt"]), "graph", _fmt(drow["slack"]))
        for drow in frag["rows"]
    ]
    rows.extend(
        (frow["query"], "0.0", _fmt(frow["d0"]), "flat_exact", _fmt(frow["rel_gap"]))
        for frow in frag["flat_rows"]
    )
    path = sdir / "distance.csv"
    tfio.write_csv_atomic(path, ("query", "t", "d", "method", "slack"), rows)
    return path


def run_experiment(config: ExperimentConfig, out_dir, jobs: int = 1,
                   resume_only: bool = False) -> RunManifest:
    """Full pipeline; with resume_only no flow is computed, only reloaded."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    timings: dict = {}
    t_start = time.perf_counter()

    try:
        t0 = time.perf_counter()
        scenarios = _scenarios(config.scenario, config.flat_mode)
        timings["scenario_generation"] = time.perf_counter() - t0
    except ScenarioError as exc:
        manifest = RunManifest(
            config_hash=config.config_hash,
            version=__version__,
            scenarios=[{"status": "error", "error": f"scenario generation failed: {exc}"}],
            family={},
            all_checks_pass=False,
            any_errors=True,
            outputs=[],
            timings={"total": time.perf_counter() - t_start},
        )
        tfio.write_json_atomic(out / "manifest.json", manifest.as_dict())
        return manifest

    # flows, resumable and optionally parallel; a persisted trace that
    # fails to load is recomputed, or reported when only resuming
    traces = {}
    statuses = {}
    pending = []
    for sc in scenarios:
        sdir = scenario_dir(out, sc.index)
        sdir.mkdir(parents=True, exist_ok=True)
        trace, why = _persisted_trace(sdir, config.trace_key)
        if trace is not None:
            traces[sc.index] = trace
        elif resume_only:
            statuses[sc.index] = ("error", why)
        else:
            pending.append(sc)
    t0 = time.perf_counter()
    if pending:
        work = [
            (sc.metric, config.flow, scenario_dir(out, sc.index), config.trace_key)
            for sc in pending
        ]
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                for sc, res in zip(pending, pool.map(_flow_one, work)):
                    statuses[sc.index] = res
        else:
            for sc, w in zip(pending, work):
                statuses[sc.index] = _flow_one(w)
    timings["flows"] = time.perf_counter() - t0

    scenario_rows = []
    ok_scenarios = []
    for sc in scenarios:
        sdir = scenario_dir(out, sc.index)
        status, err = statuses.get(sc.index, ("ok", None))
        if status == "ok" and sc.index not in traces:
            trace, err = _load_trace(sdir)
            if trace is None:
                status = "error"
            else:
                traces[sc.index] = trace
        if status == "ok":
            ok_scenarios.append(sc)
        scenario_rows.append(
            {
                "index": sc.index,
                "status": status,
                "error": err,
                "amplitude": sc.amplitude,
                "curvature_floor": sc.curvature_floor,
                "volume": sc.volume,
                "trace_norm": sc.trace_norm,
                "positive_part_budget": sc.positive_part_budget,
                "trace_dir": str(sdir / "trace"),
                "report": str(sdir / "report.json"),
            }
        )

    family: dict = {}
    all_pass = True
    outputs: list = []
    if ok_scenarios:
        t0 = time.perf_counter()
        forms = default_test_forms(
            config.geometry, count=config.form_count,
            max_mode=config.scenario.max_mode, seed=config.form_seed,
        )
        results, fam, ms = build_reports(
            ok_scenarios, [traces[sc.index] for sc in ok_scenarios],
            forms=forms, q_list=list(config.q_list),
        )
        summary = family_summary(ms, fam)
        timings["harness"] = time.perf_counter() - t0

        distance_frags = {}
        if config.distance_enabled:
            t0 = time.perf_counter()
            for sc in ok_scenarios:
                distance_frags[sc.index] = distance_fragment(config, traces[sc.index])
            timings["distance"] = time.perf_counter() - t0

        outputs.extend(
            emit_outputs(out, config, results, fam, summary, ms, distance_frags)
        )
        for r in results:
            if not r.report.all_passed:
                all_pass = False
        for section in summary.get("rates", {}).values():
            if section.get("applicable", True) and not section.get("pass", True):
                all_pass = False
        mono = summary.get("monotonic", {}).get("v_minus_one_l1", {})
        if mono.get("applicable", True) and not mono.get("strictly_decreasing", True):
            all_pass = False
        if not all(distance_passed(frag) for frag in distance_frags.values()):
            all_pass = False
        family = {"constants": fam, "summary": summary}
    else:
        all_pass = False

    any_errors = any(row["status"] != "ok" for row in scenario_rows)
    timings["total"] = time.perf_counter() - t_start
    manifest = RunManifest(
        config_hash=config.config_hash,
        version=__version__,
        scenarios=scenario_rows,
        family=family,
        all_checks_pass=all_pass,
        any_errors=any_errors,
        outputs=sorted(str(p) for p in outputs),
        timings=timings,
    )
    tfio.write_json_atomic(out / "manifest.json", manifest.as_dict())
    return manifest


def exit_code_of(manifest: RunManifest) -> int:
    if manifest.any_errors:
        return 2
    if not manifest.all_checks_pass:
        return 1
    return 0


# ---------------------------------------------------------------------------
# artifact emission


def _fmt(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def emit_outputs(out: Path, config: ExperimentConfig, results, fam, summary, ms,
                 distance_frags) -> list:
    written = []
    by_index = {m.index: m for m in ms}

    for r in results:
        sdir = scenario_dir(out, r.index)
        report = r.report.as_dict()
        if r.index in distance_frags:
            frag = dict(distance_frags[r.index])
            frag.pop("flat_rows", None)
            report["distance"] = frag
        tfio.write_json_atomic(sdir / "report.json", report)
        written.append(sdir / "report.json")

        rows = [
            (name, _fmt(chk.slack), _fmt(chk.tolerance), str(chk.passed).lower())
            for name, chk in sorted(r.report.checks.items())
        ]
        if r.index in distance_frags:
            for drow in distance_frags[r.index]["rows"]:
                rows.append(
                    (
                        f"distance[q{drow['query']},t={drow['t']:g}]",
                        _fmt(drow["slack"]),
                        "0.0",
                        str(drow["slack"] >= -1e-9).lower(),
                    )
                )
        tfio.write_csv_atomic(sdir / "checks.csv", ("check", "slack", "tolerance", "pass"), rows)
        written.append(sdir / "checks.csv")

        if r.index in distance_frags:
            written.append(write_distance_csv(sdir, distance_frags[r.index]))

    # family table: one row per index
    form_labels = [row[0] for row in ms[0].forms]
    header = (
        ["index", "amplitude", "volume_log_floor", "sup_u", "sup_abs_phi",
         "inf_dot_phi", "t_excess_sup", "trace_bound", "equivalence"]
        + [f"E_{lab}" for lab in form_labels]
        + ["v_minus_one_L1"]
        + [f"Lq_{q}" for q in sorted(ms[0].lq_norms)]
    )
    if distance_frags:
        header = header + ["distance_min_slack", "distance_flat_max_rel"]
    fam_rows = []
    for m in ms:
        row = [
            m.index, _fmt(m.amplitude), _fmt(m.volume_log_floor), _fmt(m.sup_u),
            _fmt(m.sup_abs_phi), _fmt(m.inf_dot_phi), _fmt(m.dot_phi_upper),
            _fmt(m.trace_bound), _fmt(m.equivalence),
        ]
        row.extend(_fmt(r[3]) for r in m.forms)
        row.append(_fmt(m.v_minus_one_l1))
        row.extend(_fmt(m.lq_norms[q]) for q in sorted(m.lq_norms))
        if distance_frags:
            frag = distance_frags.get(m.index)
            row.extend(
                [_fmt(frag["min_slack"]), _fmt(frag["max_flat_relative_gap"])]
                if frag
                else ["", ""]
            )
        fam_rows.append(row)
    tfio.write_csv_atomic(out / "family.csv", header, fam_rows)
    written.append(out / "family.csv")

    tfio.write_json_atomic(out / "family_summary.json", {"constants": fam, **summary})
    written.append(out / "family_summary.json")

    plots = out / "plots"
    plots.mkdir(exist_ok=True)
    for r in results:
        rows = sorted((d.t, d.min_scalar_curvature) for d in r.trace.diagnostics)
        path = plots / f"min_scalar_vs_t_i{r.index:03d}.csv"
        tfio.write_csv_atomic(path, ("t", "min_scalar_curvature"), [(_fmt(a), _fmt(b)) for a, b in rows])
        written.append(path)
    series = [
        ("inf_dot_phi_vs_i.csv", ("i", "inf_dot_phi"), [(m.index, m.inf_dot_phi) for m in ms]),
        (
            "pairing_gap_vs_i.csv",
            ("i", "max_abs_pairing_gap"),
            [
                (m.index, max((abs(r[3]) for r in m.forms if r[0] != "const"), default=0.0))
                for m in ms
            ],
        ),
        ("density_l1_vs_i.csv", ("i", "v_minus_one_l1"), [(m.index, m.v_minus_one_l1) for m in ms]),
    ]
    for name, hdr, rows in series:
        path = plots / name
        tfio.write_csv_atomic(path, hdr, [(_fmt(a), _fmt(b)) for a, b in sorted(rows)])
        written.append(path)
    return written
