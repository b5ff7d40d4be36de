"""Experiment runner: config strictness, pipeline artifacts, resume, CLI."""

import concurrent.futures
import gc
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import weakref
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest

from conftest import share_first_snapshot_file

from torusflow.cli import (
    EXIT_CHECK_FAIL,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SCENARIO_ERROR,
    main,
)
from torusflow import (FlowConfig, ProjectionError, ScalarField, cli, distances, harness, runner,
                       scenarios)
from torusflow.distances import FLAT_TOL, DistanceConfig
from torusflow import io as tfio
from torusflow.io import load_field, save_field
from torusflow.runner import (
    ConfigError,
    config_from_dict,
    exit_code_of,
    parse_config,
    run_experiment,
)


def base_dict(**over):
    d = {"geometry": {"n": 1, "N": 64}, "scenario": {"indices": [1, 4, 16, 64]}}
    d.update(over)
    return d


# ---------------------------------------------------------------------------
# config parsing


def test_minimal_defaults():
    cfg = config_from_dict(base_dict())
    assert cfg.geometry.n == 1 and cfg.geometry.N == 64
    assert cfg.scenario.indices == (1, 4, 16, 64)
    assert cfg.scenario.max_mode == 3
    assert cfg.scenario.seed == 7
    assert cfg.seed == 7
    assert cfg.scenario.flat is False
    assert cfg.harness.test_forms == 5 and cfg.harness.form_seed == 101
    assert cfg.harness.q_list == (1.0, 1.5)
    # default trace exponent is finite (2n), so the distance battery stays off
    assert cfg.distance.enabled is False
    assert cfg.distance.radius == 3
    assert cfg.distance.queries == 10 and cfg.distance.flat_queries == 100
    assert cfg.distance.times == (0.05, 0.25, 1.0)
    assert cfg.distance.seed == 2024
    assert cfg.output is None
    assert cfg.flow.sigma == 0.2 and cfg.flow.t_end == 1.0


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as err:
        config_from_dict(base_dict(geom={"n": 1}))
    assert (
        "top level.geom: unknown key "
        "(allowed: distance, flow, geometry, harness, output, scenario, seed)"
        in err.value.errors
    )


def test_unknown_section_keys_all_reported():
    d = base_dict(flow={"dt": 0.1, "eps_pos": 1e-8, "scheme": "explicit", "dealias": False,
                        "max_rejects": 20}, distance={"stencil": 3})
    d["scenario"]["amplitude"] = 0.5
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    msgs = err.value.errors
    assert any(m.startswith("scenario.amplitude: unknown key") for m in msgs)
    assert any(m.startswith("flow.dt: unknown key") for m in msgs)
    # the one positivity floor is EPS_POS; the flow has no knob of its own
    assert any(m.startswith("flow.eps_pos: unknown key") for m in msgs)
    # one stepper, a dealiased rhs and a fixed rejection limit
    for key in ("scheme", "dealias", "max_rejects"):
        assert f"flow.{key}: unknown key (allowed: sigma, snapshot_times, t_end, t_ramp)" in msgs
    assert any(m.startswith("distance.stencil: unknown key") for m in msgs)


@pytest.mark.parametrize("bad_N", [63, 2, 0, "64", None, 16.0, True])
def test_grid_size_validation(bad_N):
    with pytest.raises(ConfigError) as err:
        config_from_dict({"geometry": {"n": 1, "N": bad_N}, "scenario": {"indices": [1]}})
    assert f"geometry.N: must be an even integer >= 4, got {bad_N!r}" in err.value.errors


def test_dimension_validation():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"geometry": {"n": 3, "N": 16}, "scenario": {"indices": [1]}})
    assert "geometry.n: must be 1 or 2, got 3" in err.value.errors


def test_geometry_required():
    with pytest.raises(ConfigError) as err:
        config_from_dict({"scenario": {"indices": [1]}})
    assert "geometry: required object with keys n, N" in err.value.errors


def test_max_mode_dealiasing_headroom():
    d = base_dict()
    d["scenario"]["max_mode"] = 22
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    (msg,) = [m for m in err.value.errors if m.startswith("scenario.max_mode")]
    assert "3*max_mode <= N" in msg and "2/3 rule" in msg


@pytest.mark.parametrize("bad", [[], [0], [4, 4], [4, 2], [1, "2"], "1,2", None, [True]])
def test_indices_validation(bad):
    d = base_dict()
    d["scenario"]["indices"] = bad
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(
        m.startswith("scenario.indices: must be a strictly increasing list")
        for m in err.value.errors
    )


def test_trace_exponent_parsing():
    d = base_dict()
    d["scenario"]["p"] = "inf"
    cfg = config_from_dict(d)
    assert math.isinf(cfg.scenario.trace_exponent)
    assert cfg.distance.enabled is True

    d["scenario"]["p"] = 4
    cfg = config_from_dict(d)
    assert cfg.scenario.trace_exponent == 4.0
    assert cfg.distance.enabled is False


@pytest.mark.parametrize("bad,shown", [("four", "'four'"), ([2], "list"), (True, "bool")])
def test_trace_exponent_rejections(bad, shown):
    d = base_dict()
    d["scenario"]["p"] = bad
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert f"scenario.p: expected a number or 'inf', got {shown}" in err.value.errors


def _cli_exit(tmp_path, d, command="run", *args):
    """The CLI's exit code for config d, written as JSON."""
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))  # non-finite floats as NaN, Infinity, -Infinity
    return main([command, "--config", str(p), "--out", str(tmp_path / "out"), *args])


@pytest.mark.parametrize("p", [math.nan, -math.inf, 0.5, 0])
def test_trace_exponent_outside_one_to_inf_is_a_config_error(p, tmp_path, capsys):
    d = base_dict()
    d["scenario"]["p"] = p
    message = f"scenario: trace exponent must be in [1, inf], got {float(p)}"
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(json.dumps(d)))
    assert err.value.errors == [message]
    assert _cli_exit(tmp_path, d) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("p, want", [(1, 1.0), ("inf", math.inf), (math.inf, math.inf)])
def test_trace_exponent_accepts_one_to_inf(p, want):
    d = base_dict()
    d["scenario"]["p"] = p
    assert config_from_dict(json.loads(json.dumps(d))).scenario.trace_exponent == want


@pytest.mark.parametrize("section, key", [
    (None, "seed"), ("scenario", "seed"), ("harness", "form_seed"), ("distance", "seed"),
])
def test_negative_seed_is_a_config_error(section, key, tmp_path, capsys):
    d = base_dict()
    (d if section is None else d.setdefault(section, {}))[key] = -1
    message = f"{key if section is None else f'{section}.{key}'}: must be an integer >= 0, got -1"
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == [message]
    assert _cli_exit(tmp_path, d) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    assert _cli_exit(tmp_path, base_dict(), "run", "--seed", "-1") == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == "config error: seed: must be an integer >= 0, got -1\n"


@pytest.mark.parametrize("command", ["run", "check"])
def test_flow_over_the_step_budget_is_a_config_error(command, tmp_path, capsys):
    """sigma = 1e-300 is in (0, 1] but would take about 1e300 steps; the
    count stops past the budget, so the refusal itself is quick."""
    message = ("flow: sigma=1e-300, t_ramp=0.001 and t_end=1 take about 7.91e+300 steps, "
               "more than the budget of 10,000 for one flow")
    d = base_dict(flow={"sigma": 1e-300})
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == [message]
    assert _cli_exit(tmp_path, d, command) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()
    assert config_from_dict(base_dict(flow={"sigma": 0.002})).flow.sigma == 0.002


@pytest.mark.parametrize("t_ramp", [math.nan, math.inf])
def test_nonfinite_t_ramp_is_a_config_error(t_ramp, tmp_path, capsys):
    """check never flows, so a t_ramp that slips through fails here
    instead of hanging a flow."""
    message = f"flow: t_ramp must be positive and finite, got {t_ramp}"
    assert _cli_exit(tmp_path, base_dict(flow={"t_ramp": t_ramp}), "check") \
        == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_distance_enabled_override():
    d = base_dict()
    d["scenario"]["p"] = "inf"
    d["distance"] = {"enabled": False}
    assert config_from_dict(d).distance.enabled is False
    d["distance"] = {"enabled": 1}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(m.startswith("distance.enabled") for m in err.value.errors)


@pytest.mark.parametrize("N, ok", [(4, False), (6, False), (8, True)])
def test_distance_radius_must_fit_grid(N, ok):
    d = {"geometry": {"n": 1, "N": N}, "scenario": {"indices": [1], "max_mode": 1, "p": "inf"},
         "distance": {"radius": 3}}
    if ok:
        assert config_from_dict(d).distance.enabled is True
    else:
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.errors == [
            f"distance.radius: stencil radius 3 needs N > 6: at N={N} two offsets reach the same neighbour"
        ]
        d["distance"]["enabled"] = False  # the rule binds only a stage that runs
        assert config_from_dict(d).distance.enabled is False


def test_distance_times_must_be_snapshot_times():
    d = {"geometry": {"n": 1, "N": 16}, "scenario": {"indices": [1], "max_mode": 1, "p": "inf"},
         "flow": {"snapshot_times": [0.05, 0.25]}, "distance": {"times": [0.05, 0.1, 0.25 + 1e-12]}}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors == [
        "distance.times: [0.1] are not flow snapshot times [0.05, 0.25, 1.0]; "
        "distances are read off stored snapshots"
    ]
    d["distance"]["enabled"] = False  # the rule binds only a stage that runs
    assert config_from_dict(d).distance.enabled is False


def test_background_parsing():
    d = base_dict()
    d["scenario"]["background"] = [[[2.0, 0.0]]]
    cfg = config_from_dict(d)
    assert cfg.scenario.background[0, 0] == 2.0 + 0.0j

    d["scenario"]["background"] = [[[1.0, 0.0, 5.0]]]
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert "scenario.background: must be nested [re, im] pairs" in err.value.errors

    d["scenario"]["background"] = [[[1.0, 0.0]], [[0.0, 0.0]]]
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert "scenario.background: must be 1x1 [re, im] pairs" in err.value.errors


def test_background_must_be_positive():
    d = base_dict()
    d["scenario"]["background"] = [[[-1.0, 0.0]]]
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(m.startswith("scenario: ") for m in err.value.errors)


@pytest.mark.parametrize("entry", [math.inf, math.nan])
def test_nonfinite_background_is_a_config_error(entry, tmp_path, capsys):
    d = {"geometry": {"n": 1, "N": 8},
         "scenario": {"indices": [1], "max_mode": 1, "background": [[[entry, 0]]]}}
    message = "scenario: background matrix has non-finite entries"
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(json.dumps(d)))
    assert err.value.errors == [message]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))  # as Infinity or NaN
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_infinite_lambda_gate_is_a_config_error(tmp_path, capsys):
    """An infinite gate would admit any family: volume >= 0, trace norm <= inf."""
    d = {"geometry": {"n": 1, "N": 16},
         "scenario": {"indices": [1], "max_mode": 1, "lambda_gate": math.inf}}
    message = "scenario.lambda_gate: must be positive and finite, got inf"
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(json.dumps(d)))
    assert err.value.errors == [message]
    assert _cli_exit(tmp_path, d) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_error_accumulation():
    d = base_dict()
    d["scenario"]["lambda_gate"] = -2
    d["scenario"]["p"] = "huge"
    d["harness"] = {"test_forms": -1}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    msgs = err.value.errors
    assert len(msgs) >= 3
    assert any(m.startswith("scenario.lambda_gate") for m in msgs)
    assert any(m.startswith("scenario.p") for m in msgs)
    assert any(m.startswith("harness.test_forms") for m in msgs)


def test_flow_values_validated(tmp_path, capsys):
    for key, value in [("sigma", 1.5)]:
        d = base_dict(flow={key: value})
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.errors[0].startswith(f"flow: {key} must ")
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(d))
        assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert f"config error: flow: {key} must " in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("key, value", [("scheme", "explicit"), ("dealias", False),
                                        ("max_rejects", 20)])
def test_removed_flow_key_is_a_config_error(key, value, command, tmp_path, capsys):
    """The flow has one stepper, a dealiased rhs and a fixed rejection limit;
    a config that still sets one of their old keys is refused, not ignored."""
    assert _cli_exit(tmp_path, base_dict(flow={key: value}), command) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == (f"config error: flow.{key}: unknown key "
                                       "(allowed: sigma, snapshot_times, t_end, t_ramp)\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section,key,value", [
    ("flow", "sigma", "0.2"),
    ("flow", "t_end", "1"),
    ("flow", "t_ramp", None),
    ("geometry", "n", True),
    ("scenario", "flat", "no"),
    # a bool is not a number
    ("distance", "radius", True),
    ("harness", "test_forms", True),
    ("scenario", "lambda_gate", True),
])
def test_wrong_typed_values_are_config_errors(tmp_path, capsys, section, key, value):
    d = base_dict()
    d.setdefault(section, {})[key] = value
    with pytest.raises(ConfigError) as err:
        config_from_dict(json.loads(json.dumps(d)))
    assert any(m.startswith(f"{section}.{key}: ") for m in err.value.errors)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(d))
    assert main(["run", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert f"config error: {section}.{key}: " in capsys.readouterr().err


def test_readme_config_block_lists_every_key():
    """The README's config block parses, names every key of the schema,
    and shows the flow and distance defaults."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    text = text[text.index("## Command line"):]
    text = text[text.index("```json") + len("```json"):]
    raw = json.loads(text[:text.index("```")])
    cfg = config_from_dict(json.loads(json.dumps(raw)))
    assert set(raw) == {row[0] for row in runner._TOP}
    tables = {"geometry": runner._GEOMETRY, "scenario": runner._SCENARIO, "flow": runner._FLOW,
              "harness": runner._HARNESS, "distance": runner._DISTANCE}
    for section, rows in tables.items():
        assert set(raw[section]) == {row[0] for row in rows}, section
    assert cfg.flow == FlowConfig()
    assert cfg.distance == DistanceConfig(enabled=True)


def test_snapshot_times_coercion():
    d = base_dict(flow={"t_end": 0.5, "snapshot_times": [0.25, 0.1]})
    cfg = config_from_dict(d)
    assert cfg.flow.snapshot_times == (0.1, 0.25, 0.5)  # t_end is always kept

    cfg = config_from_dict(base_dict(flow={"t_end": 1, "snapshot_times": [0.5]}))
    assert cfg.flow.snapshot_times == (0.5, 1.0)
    assert all(type(t) is float for t in cfg.flow.snapshot_times)

    d = base_dict(flow={"snapshot_times": [0.1, "x"]})
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(m.startswith("flow.snapshot_times") for m in err.value.errors)


def test_q_list_custom_and_invalid():
    d = base_dict(harness={"q_list": [2, 3]})
    assert config_from_dict(d).harness.q_list == (2.0, 3.0)
    for bad in (0, math.inf):  # x ** inf would read 1.0 at every index
        with pytest.raises(ConfigError) as err:
            config_from_dict(base_dict(harness={"q_list": [2, bad]}))
        assert any(m.startswith("harness.q_list") for m in err.value.errors)


def test_seed_fallback_and_type():
    cfg = config_from_dict(base_dict(seed=11))
    assert cfg.seed == 11 and cfg.scenario.seed == 11
    d = base_dict(seed=11)
    d["scenario"]["seed"] = 3
    cfg = config_from_dict(d)
    assert cfg.seed == 11 and cfg.scenario.seed == 3
    with pytest.raises(ConfigError) as err:
        config_from_dict(base_dict(seed="7"))
    assert any(m.startswith("seed: must be an integer") for m in err.value.errors)


def test_flat_switch_is_part_of_the_scenario_spec():
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    assert cfg.scenario.flat is True
    assert cfg.normalized["scenario"]["flat"] is True
    # pinned: the hashes move only when the normalized config does
    assert cfg.config_hash == "c9b21b2cc1e7cd17d0880f969b0f912b80c55df362e113ab011625d91855eaa4"
    assert cfg.trace_key == "e78c30164aba01627957ac97bfa4524dd939e4c8ff0ec4e27e8619185815dc48"
    assert config_from_dict(base_dict()).scenario.flat is False


def test_collapsing_flat_family_is_a_scenario_error(tmp_path, capsys):
    """A flat family passes the same admission gates as a calibrated one."""
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["background"] = [[[0.04, 0]]]
    assert _cli_exit(tmp_path, d) == EXIT_SCENARIO_ERROR
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["scenarios"] == [{
        "status": "error",
        "error": "scenario generation failed: index 1: volume 0.08 below the "
                 "non-collapsing gate 1/10",
    }]


def test_output_field():
    assert config_from_dict(base_dict(output="runs/a")).output == "runs/a"
    with pytest.raises(ConfigError) as err:
        config_from_dict(base_dict(output=3))
    assert any(m.startswith("output: must be a path string") for m in err.value.errors)


def test_hash_semantics():
    a = config_from_dict(base_dict())
    b = config_from_dict(base_dict())
    assert a.config_hash == b.config_hash
    assert a.trace_key == b.trace_key

    # harness knobs change the run identity but not the flow identity
    c = config_from_dict(base_dict(harness={"form_seed": 999}))
    assert c.config_hash != a.config_hash
    assert c.trace_key == a.trace_key

    d = config_from_dict(base_dict(seed=8))
    assert d.trace_key != a.trace_key

    e = config_from_dict(base_dict(flow={"sigma": 0.1}))
    assert e.trace_key != a.trace_key


def test_parse_config_file(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(base_dict()))
    cfg = parse_config(p)
    assert cfg.geometry.N == 64

    with pytest.raises(ConfigError) as err:
        parse_config(tmp_path / "missing.json")
    assert "config file not found" in err.value.errors[0]

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError) as err:
        parse_config(bad)
    assert "config is not valid JSON" in err.value.errors[0]


def test_deeply_nested_config_is_a_config_error(tmp_path, capsys):
    """JSON nested past the decoder's recursion limit is reported as a
    config that does not parse, not as a traceback."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 200_000)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: config is not valid JSON: ")


# ---------------------------------------------------------------------------
# pipeline

FLAT_DICT = {
    "geometry": {"n": 1, "N": 16},
    "scenario": {"indices": [1, 4], "flat": True},
    "flow": {"t_end": 0.25, "snapshot_times": [0.05, 0.25]},
    "harness": {"test_forms": 2},
    "seed": 5,
}

CALIB_DICT = {
    "geometry": {"n": 1, "N": 32},
    "scenario": {"indices": [1, 4, 16], "seed": 90, "p": "inf"},
    "distance": {"queries": 3, "flat_queries": 20, "times": [0.25, 1.0]},
    "seed": 5,
}


@pytest.fixture(scope="module")
def flat_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("flat_run")
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    manifest = run_experiment(cfg, out)
    return cfg, out, manifest


@pytest.fixture(scope="module")
def calib_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("calib_run")
    cfg = config_from_dict(json.loads(json.dumps(CALIB_DICT)))
    manifest = run_experiment(cfg, out)
    return cfg, out, manifest


def test_flat_pipeline_passes(flat_run):
    cfg, out, manifest = flat_run
    assert manifest.any_errors is False
    assert manifest.all_checks_pass is True
    assert exit_code_of(manifest) == 0
    assert manifest.config_hash == cfg.config_hash
    assert [row["index"] for row in manifest.scenarios] == [1, 4]
    assert all(row["status"] == "ok" for row in manifest.scenarios)
    assert all(row["amplitude"] == 0.0 for row in manifest.scenarios)


def test_every_listed_output_exists(flat_run):
    _, out, manifest = flat_run
    assert manifest.outputs, "run should record its artifacts"
    for p in manifest.outputs:
        assert Path(p).exists(), p
    assert (out / "manifest.json").exists()
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest.as_dict()


def test_flat_run_artifact_set(flat_run):
    _, out, _ = flat_run
    for i in (1, 4):
        sdir = out / f"scenario_i{i:03d}"
        assert (sdir / "report.json").exists()
        assert (sdir / "checks.csv").exists()
        assert (sdir / "trace" / "meta.json").exists()
        assert (sdir / "trace_key.txt").exists()
        # distance battery is off for a finite trace exponent
        assert not (sdir / "distance.csv").exists()
    assert (out / "family.csv").exists()
    assert (out / "family_summary.json").exists()
    for name in ("inf_dot_phi_vs_i.csv", "pairing_gap_vs_i.csv", "density_l1_vs_i.csv"):
        assert (out / "plots" / name).exists()


def test_family_table_one_row_per_index(flat_run):
    _, out, _ = flat_run
    lines = (out / "family.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:3] == ["index", "amplitude", "volume_log_floor"]
    assert "distance_min_slack" not in header
    rows = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in rows] == ["1", "4"]
    assert all(len(r) == len(header) for r in rows)


def test_checks_csv_format(flat_run):
    _, out, _ = flat_run
    lines = (out / "scenario_i001" / "checks.csv").read_text().splitlines()
    assert lines[0] == "check,slack,tolerance,pass"
    names = [ln.split(",")[0] for ln in lines[1:]]
    assert names == sorted(names)
    assert set(ln.split(",")[-1] for ln in lines[1:]) == {"true"}


def test_plot_tables_sorted(flat_run):
    _, out, _ = flat_run
    lines = (out / "plots" / "min_scalar_vs_t_i001.csv").read_text().splitlines()
    assert lines[0] == "t,min_scalar_curvature"
    ts = [float(ln.split(",")[0]) for ln in lines[1:]]
    assert ts == sorted(ts) and len(ts) > 2
    lines = (out / "plots" / "inf_dot_phi_vs_i.csv").read_text().splitlines()
    assert [int(ln.split(",")[0]) for ln in lines[1:]] == [1, 4]


def test_resume_reuses_traces(flat_run):
    cfg, out, _ = flat_run
    meta = out / "scenario_i001" / "trace" / "meta.json"
    before = meta.stat().st_mtime_ns
    fam_before = (out / "family.csv").read_bytes()
    manifest = run_experiment(cfg, out)
    assert meta.stat().st_mtime_ns == before, "trace should be reused, not recomputed"
    assert manifest.any_errors is False and manifest.all_checks_pass is True
    assert (out / "family.csv").read_bytes() == fam_before


def test_resume_only_without_traces(tmp_path):
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    manifest = run_experiment(cfg, tmp_path, resume_only=True)
    assert manifest.any_errors is True
    assert exit_code_of(manifest) == 2
    for row in manifest.scenarios:
        assert row["status"] == "error"
        assert "no persisted trace" in row["error"]


def test_stale_trace_key_triggers_recompute(flat_run, tmp_path):
    cfg, out, _ = flat_run
    sdir = tmp_path / "scenario_i001"
    sdir.mkdir()
    import shutil

    shutil.copytree(out / "scenario_i001" / "trace", sdir / "trace")
    (sdir / "trace_key.txt").write_text("0" * 64 + "\n")
    manifest = run_experiment(cfg, tmp_path)
    assert manifest.any_errors is False
    assert (sdir / "trace_key.txt").read_text().strip() == cfg.trace_key


def test_pipeline_determinism_across_dirs(flat_run, tmp_path):
    cfg, out, manifest = flat_run
    m2 = run_experiment(cfg, tmp_path)
    assert (tmp_path / "family.csv").read_bytes() == (out / "family.csv").read_bytes()
    assert (
        (tmp_path / "family_summary.json").read_bytes()
        == (out / "family_summary.json").read_bytes()
    )
    for i in (1, 4):
        a = (out / f"scenario_i{i:03d}" / "checks.csv").read_bytes()
        b = (tmp_path / f"scenario_i{i:03d}" / "checks.csv").read_bytes()
        assert a == b
    assert m2.family == manifest.family


def test_parallel_jobs_match_serial(flat_run, tmp_path):
    cfg, out, _ = flat_run
    manifest = run_experiment(cfg, tmp_path, jobs=2)
    assert manifest.any_errors is False
    assert (tmp_path / "family.csv").read_bytes() == (out / "family.csv").read_bytes()


def test_calibrated_pipeline_with_distance(calib_run):
    cfg, out, manifest = calib_run
    assert manifest.any_errors is False
    assert manifest.all_checks_pass is True
    assert exit_code_of(manifest) == 0
    assert "distance" in manifest.timings
    consts = manifest.family["constants"]
    assert consts["rate_lower_constant"] > 0
    assert consts["flat_floor_constant"] > 0


def test_manifest_records_peak_rss_per_stage(calib_run):
    """peak_rss_mb sits beside timings, keyed like it, total included, and a
    stage's peak never exceeds the run's."""
    _, out, manifest = calib_run
    peaks = json.loads((out / "manifest.json").read_text())["peak_rss_mb"]
    assert peaks == manifest.peak_rss_mb
    assert set(peaks) == set(manifest.timings) >= {"flows", "harness", "distance", "total"}
    assert all(0.0 < mb <= peaks["total"] for mb in peaks.values())


def test_manifest_records_minor_faults_per_stage(calib_run):
    """minor_faults sits beside timings, keyed like it, total included: each
    a count of this process's minor page faults, and the stages' sum no more
    than the total."""
    _, out, manifest = calib_run
    faults = json.loads((out / "manifest.json").read_text())["minor_faults"]
    assert faults == manifest.minor_faults
    assert set(faults) == set(manifest.timings)
    assert all(isinstance(count, int) and count >= 0 for count in faults.values())
    assert sum(count for stage, count in faults.items() if stage != "total") <= faults["total"]


def test_manifest_records_library_versions(calib_run):
    """The interpreter, numpy, scipy (whose FFT kernel every run runs), the
    C library and the FFT that ran."""
    import platform

    import scipy

    _, out, manifest = calib_run
    libraries = json.loads((out / "manifest.json").read_text())["libraries"]
    assert libraries == manifest.libraries == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "libc": " ".join(filter(None, platform.libc_ver())) or None,
        "fft": "pypocketfft",
    }


# runs a command in a fresh interpreter, then prints the manifest's scipy
# and fft entries and every scipy module loaded
_LIBRARIES_OF = (
    "import json, sys\n"
    "from torusflow.cli import main\n"
    "for command in sys.argv[3:]:\n"
    "    assert main([command, '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
    "libraries = json.load(open(sys.argv[2] + '/manifest.json'))['libraries']\n"
    "print(libraries['scipy'], libraries['fft'],"
    " [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
)


def test_n1_run_runs_the_fft_kernel_and_loads_no_scipy_module(flat_cfg_file, tmp_path):
    """An n = 1 run with distances off runs the same kernel as an n = 2 one,
    and loads no scipy module either."""
    import scipy

    proc = _python(_LIBRARIES_OF, str(flat_cfg_file), str(tmp_path / "out"), "run")
    assert proc.stdout.splitlines()[-1] == f"{scipy.__version__} pypocketfft []"


def test_n2_check_runs_the_fft_kernel_and_loads_no_scipy_module(tmp_path):
    """An n = 2 run and check with distances off run scipy's FFT kernel:
    the manifest names it and scipy's installed version, and no scipy module
    is loaded at exit."""
    import scipy

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"geometry": {"n": 2, "N": 16}, "scenario": {"indices": [1]}}))
    proc = _python(_LIBRARIES_OF, str(cfg), str(tmp_path / "out"), "run", "check")
    assert proc.stdout.splitlines()[-1] == f"{scipy.__version__} pypocketfft []"


def test_distance_artifacts(calib_run):
    cfg, out, _ = calib_run
    for i in (1, 4, 16):
        lines = (out / f"scenario_i{i:03d}" / "distance.csv").read_text().splitlines()
        assert lines[0] == "query,t,d,method,slack"
        methods = [ln.split(",")[3] for ln in lines[1:]]
        # 3 queries at 2 flow times, then the 3 flat baselines
        assert methods == ["graph"] * 6 + ["flat_exact"] * 3
    report = json.loads((out / "scenario_i001" / "report.json").read_text())
    assert report["distance"]["pass"] is True
    assert "flat_rows" not in report["distance"]
    assert report["distance"]["flat_battery"]["max_rel_error"] <= FLAT_TOL


def test_checks_csv_includes_distance_rows(calib_run):
    import csv

    _, out, _ = calib_run
    with open(out / "scenario_i001" / "checks.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drows = [r for r in rows[1:] if r[0].startswith("distance[")]
    assert len(drows) == 6
    assert any(r[0] == "distance[q0,t=0.25]" for r in drows)
    assert all(r[2] == "1e-09" and r[3] == "true" for r in drows)


def _v_minus_one_l1_not_decreasing(monkeypatch):
    summarize = runner.family_summary

    def summary(ms, fam):
        out = summarize(ms, fam)
        out["monotonic"]["v_minus_one_l1"]["strictly_decreasing"] = False
        return out

    monkeypatch.setattr(runner, "family_summary", summary)


VERDICT_SOURCES = {
    "none": None,
    "rate_fit": lambda mp: mp.setattr(harness, "RATE_TOL_PRIMARY", -10),
    "v_minus_one_l1": _v_minus_one_l1_not_decreasing,
    "identity_residual": lambda mp: mp.setattr(harness, "IDENTITY_TOL", -1),
    "distance_estimate": lambda mp: mp.setattr(distances, "FIT_TOL", -1),
    "flat_battery": lambda mp: mp.setattr(distances, "FLAT_TOL", 0),
}


@pytest.mark.parametrize("source", list(VERDICT_SOURCES))
def test_every_verdict_source_can_fail_the_run(calib_run, tmp_path, monkeypatch, source):
    """Each verdict the run reads, made to fail on its own, fails the run;
    the checks reread the calibrated run's traces, so no flow runs.  Each
    report.json's "pass" is its scenario's verdict: every row of its
    checks.csv, and its flat battery."""
    import csv
    import shutil

    cfg, out, _ = calib_run
    shutil.copytree(out, tmp_path / "run")
    fail = VERDICT_SOURCES[source]
    if fail is not None:
        fail(monkeypatch)
    manifest = run_experiment(cfg, tmp_path / "run", resume_only=True)
    assert manifest.any_errors is False
    assert manifest.all_checks_pass is (fail is None)
    assert exit_code_of(manifest) == (EXIT_OK if fail is None else EXIT_CHECK_FAIL)
    for row in manifest.scenarios:
        report = json.loads(Path(row["report"]).read_text())
        with open(Path(row["report"]).with_name("checks.csv"), newline="") as fh:
            checks_pass = all(chk["pass"] == "true" for chk in csv.DictReader(fh))
        battery = report["distance"]["flat_battery"]["max_rel_error"]
        assert report["pass"] is (checks_pass and battery <= distances.FLAT_TOL)


def test_family_table_distance_columns(calib_run):
    _, out, _ = calib_run
    lines = (out / "family.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[-2:] == ["distance_min_slack", "distance_flat_max_rel"]
    for ln in lines[1:]:
        rel = float(ln.split(",")[-1])
        assert 0.0 <= rel <= 0.02


def test_scenario_error_manifest(tmp_path):
    d = json.loads(json.dumps(CALIB_DICT))
    d["scenario"]["lambda_gate"] = 1.0  # below the flat trace norm, calibration must fail
    cfg = config_from_dict(d)
    manifest = run_experiment(cfg, tmp_path)
    assert manifest.any_errors is True
    assert manifest.all_checks_pass is False
    assert exit_code_of(manifest) == 2
    assert manifest.family == {}
    assert manifest.scenarios[0]["status"] == "error"
    assert (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("command", ["run", "check", "flow", "project"])
def test_grid_too_large_to_allocate_is_a_scenario_error(command, tmp_path, capsys):
    """At n=2, N=16384 one field takes 2^59 bytes, more than any 64-bit
    address space holds, so the first allocation fails at once.  run and
    check record it as the family's error row, flow and project report it."""
    d = {"geometry": {"n": 2, "N": 16384}, "scenario": {"indices": [1]}}
    assert _cli_exit(tmp_path, d, command) == EXIT_SCENARIO_ERROR
    if command in ("run", "check"):
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        [row] = manifest["scenarios"]
        assert row["status"] == "error"
        message = row["error"]
    else:
        message = capsys.readouterr().err
    assert "n=2, N=16384: the grid is too large to allocate" in message


HUGE_GRIDS = {
    "n2-N100000": {"geometry": {"n": 2, "N": 100000}, "scenario": {"indices": [1]}},
    "n2-N100000-flat": {"geometry": {"n": 2, "N": 100000},
                        "scenario": {"indices": [1], "flat": True}},
    "n1-N4294967296": {"geometry": {"n": 1, "N": 2 ** 32}, "scenario": {"indices": [1]}},
}


@pytest.mark.parametrize("command", ["run", "check", "flow", "project"])
@pytest.mark.parametrize("grid", list(HUGE_GRIDS))
def test_grid_numpy_cannot_size_is_a_scenario_error(grid, command, tmp_path, capsys):
    """A field of 10^20 (or 2^64) points has more bytes than numpy can
    count, so numpy refuses it with a ValueError before allocating; the
    family path ends it as it ends a MemoryError, before any field."""
    d = HUGE_GRIDS[grid]
    geo = d["geometry"]
    assert _cli_exit(tmp_path, d, command) == EXIT_SCENARIO_ERROR
    err = capsys.readouterr().err
    message = f"n={geo['n']}, N={geo['N']}: the grid is too large to allocate"
    if command in ("run", "check"):
        [row] = json.loads((tmp_path / "out" / "manifest.json").read_text())["scenarios"]
        assert row["status"] == "error" and message in row["error"]
        assert err == ""
    else:
        assert err.startswith(f"scenario error: {message}") and err.count("\n") == 1


def test_worker_exception_becomes_error_row(tmp_path, monkeypatch):
    def broken(metric, config):
        raise ProjectionError("injected")

    monkeypatch.setattr(runner, "run_flow", broken)
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    manifest = run_experiment(cfg, tmp_path, jobs=1)
    assert exit_code_of(manifest) == 2
    assert [row["status"] for row in manifest.scenarios] == ["error", "error"]
    assert "ProjectionError: injected" in manifest.scenarios[0]["error"]
    assert (tmp_path / "manifest.json").exists()


def test_crashed_run_leaves_no_manifest(tmp_path, monkeypatch):
    """A manifest marks a completed run, so a crash removes an earlier one."""
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = config_from_dict(d)
    run_experiment(cfg, tmp_path)
    assert (tmp_path / "manifest.json").exists()

    def broken(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(runner, "measure", broken)
    with pytest.raises(RuntimeError, match="injected"):
        run_experiment(cfg, tmp_path)
    assert not (tmp_path / "manifest.json").exists()


def test_unloadable_trace_is_recomputed(tmp_path):
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = config_from_dict(d)
    run_experiment(cfg, tmp_path)
    trace_dir = tmp_path / "scenario_i001" / "trace"
    last = trace_dir / json.loads((trace_dir / "meta.json").read_text())["snapshots"][-1]["file"]
    last.write_bytes(last.read_bytes()[:100])

    checked = run_experiment(cfg, tmp_path, resume_only=True)
    assert checked.scenarios[0]["status"] == "error"
    assert "trace reload failed" in checked.scenarios[0]["error"]
    assert len(last.read_bytes()) == 100, "check must not rewrite the trace"

    rerun = run_experiment(cfg, tmp_path)
    assert rerun.scenarios[0]["status"] == "ok"
    assert exit_code_of(rerun) == 0
    assert len(last.read_bytes()) > 100


def test_flow_pool_has_no_more_workers_than_flows(tmp_path, monkeypatch):
    """The pool forks all its workers at once: --jobs 64 with two pending
    flows gets two workers, and one pending flow runs in this process."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    assert exit_code_of(run_experiment(cfg, tmp_path, jobs=64)) == EXIT_OK
    assert pools == [2]
    (tmp_path / "scenario_i004" / "trace_key.txt").unlink()
    assert exit_code_of(run_experiment(cfg, tmp_path, jobs=64)) == EXIT_OK
    assert pools == [2]
    assert (tmp_path / "scenario_i004" / "trace_key.txt").exists()


def _dying_flow_one(config, scenario, out):
    """A flow worker killed mid-flow, as by the OOM killer."""
    os._exit(9)


def test_dead_flow_worker_becomes_error_rows(tmp_path, monkeypatch):
    """A worker that dies breaks the pool: every unfinished scenario is an
    error row, and the run still ends in a manifest and exit code 2."""
    monkeypatch.setattr(runner, "_flow_one", _dying_flow_one)
    cfg = config_from_dict(json.loads(json.dumps(FLAT_DICT)))
    manifest = run_experiment(cfg, tmp_path, jobs=2)
    assert exit_code_of(manifest) == EXIT_SCENARIO_ERROR
    assert [row["status"] for row in manifest.scenarios] == ["error", "error"]
    assert all(row["error"].startswith("flow worker died: ") for row in manifest.scenarios)
    assert json.loads((tmp_path / "manifest.json").read_text())["any_errors"] is True


N2_FLAT_DICT = {
    "geometry": {"n": 2, "N": 8},
    "scenario": {"indices": [1, 4, 16], "max_mode": 2, "flat": True},
    "flow": {"t_end": 0.25, "snapshot_times": [0.05, 0.25]},
    "harness": {"test_forms": 2},
}


def test_one_loaded_trace_at_a_time(tmp_path, monkeypatch):
    """run and check release each trace before loading the next."""
    load = tfio.load_trace
    loaded = []

    def tracked_load(directory):
        gc.collect()
        live = sum(ref() is not None for ref in loaded)
        assert live == 0, f"{live} earlier traces alive at load {len(loaded) + 1}"
        trace = load(directory)
        loaded.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(runner.tfio, "load_trace", tracked_load)
    cfg = config_from_dict(json.loads(json.dumps(N2_FLAT_DICT)))
    for resume_only in (False, True):
        loaded.clear()
        manifest = run_experiment(cfg, tmp_path, resume_only=resume_only)
        assert exit_code_of(manifest) == EXIT_OK
        assert len(loaded) == 3


def test_constant_forms_share_one_factor_and_one_density(tmp_path, monkeypatch):
    """At n = 2 the five constant test forms share one all-ones factor, and
    their densities one zero field; each random form has its own."""
    seen = []
    original = runner.measure

    def capture(trace, index, amplitude, forms, densities, q_list):
        seen.append((forms, densities))
        return original(trace, index, amplitude, forms, densities, q_list)

    monkeypatch.setattr(runner, "measure", capture)
    cfg = config_from_dict(json.loads(json.dumps(N2_FLAT_DICT)))
    assert exit_code_of(run_experiment(cfg, tmp_path)) == EXIT_OK
    forms, densities = seen[0]
    assert all(f is forms and d is densities for f, d in seen)
    constant = [(form.f.values, dens) for (label, form), dens in zip(forms, densities)
                if label.startswith("const")]
    assert len(constant) == 5
    assert all(f is constant[0][0] and np.all(f == 1.0) for f, _ in constant)
    assert all(d is constant[0][1] and not np.any(d.values) for _, d in constant)
    random = [dens for (label, _), dens in zip(forms, densities) if label.startswith("rand")]
    assert len(random) == 2 and all(np.any(d.values) for d in random)


def _write_nonpositive_snapshot(trace_dir):
    """Rewrite the t = 0.05 snapshot of a flat scenario's trace (initial
    potential 0) with a flow potential that makes no metric."""
    records = json.loads((trace_dir / "meta.json").read_text())["snapshots"]
    snap = trace_dir / next(r["file"] for r in records if math.isclose(r["t"], 0.05))
    geo = load_field(snap).geometry
    save_field(ScalarField(geo, 0.2 * np.cos(2 * np.pi * geo.coordinate(0))), snap)


def test_cli_check_reports_a_nonpositive_snapshot(tmp_path, capsys):
    """A well-formed trace whose stored potential is no metric: check ends
    in error rows and a manifest, and leaves the trace as it found it."""
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    trace_dir = out / "scenario_i001" / "trace"
    _write_nonpositive_snapshot(trace_dir)
    stored = {p.name: p.read_bytes() for p in trace_dir.iterdir()}
    (out / "manifest.json").unlink()

    assert main(["check", *args]) == EXIT_SCENARIO_ERROR
    assert "eigenvalue below" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert [row["status"] for row in manifest["scenarios"]] == ["error"]
    assert manifest["any_errors"] and not manifest["all_checks_pass"]
    assert {p.name: p.read_bytes() for p in trace_dir.iterdir()} == stored


FLAT_DISTANCE_DICT = {
    **FLAT_DICT,
    "distance": {"enabled": True, "queries": 3, "flat_queries": 10, "times": [0.05, 0.25]},
}
REPORTS = ("report.json", "checks.csv", "distance.csv")


def test_cli_check_names_the_scenario_it_cannot_measure(tmp_path, capsys):
    """One unmeasurable trace is that scenario's error row; the other
    scenario is still measured and reported.  The error row keeps its
    trace and trace key but none of the reports of the earlier run."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FLAT_DISTANCE_DICT))
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    sdir = out / "scenario_i001"
    assert all((sdir / name).exists() for name in REPORTS)
    _write_nonpositive_snapshot(sdir / "trace")
    kept = [sdir / "trace_key.txt", *(sdir / "trace").iterdir()]
    stored = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept}
    (out / "manifest.json").unlink()

    assert main(["check", *args]) == EXIT_SCENARIO_ERROR
    printed = capsys.readouterr().out
    assert "scenario i=1: error (measurement failed: PositivityError" in printed
    assert "scenario i=4: checked" in printed
    assert "checks: FAIL" in printed  # the verdict counts the scenario it could not check
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["all_checks_pass"] is False
    assert [(row["index"], row["status"]) for row in manifest["scenarios"]] == [
        (1, "error"), (4, "ok")]
    assert manifest["scenarios"][1]["error"] is None
    assert all((out / "scenario_i004" / name).exists() for name in REPORTS)
    assert not any((sdir / name).exists() for name in REPORTS)
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept} == stored


def _delete_every_trace(out, d):
    for trace_dir in out.glob("scenario_i*/trace"):
        shutil.rmtree(trace_dir)
    return "check", d


def _distance_off(out, d):
    return "run", {**d, "distance": {**d["distance"], "enabled": False}}


def _unloadable_i004(out, d):
    _drop_last_snapshot(out / "scenario_i004" / "trace")
    return "check", d


def _drop_index_16(out, d):
    return "run", {**d, "scenario": {**d["scenario"], "indices": [1, 4]}}


def _report_files(out):
    patterns = ("manifest.json", "family.csv", "family_summary.json", "plots/*.csv",
                *(f"scenario_i*/{name}" for name in REPORTS))
    return {str(p) for pattern in patterns for p in out.glob(pattern)}


@pytest.mark.parametrize("second, code, stale, reflowed", [
    (_delete_every_trace, EXIT_SCENARIO_ERROR,
     ["family.csv", "family_summary.json", "plots/min_scalar_vs_t_i001.csv",
      "plots/inf_dot_phi_vs_i.csv"], ()),
    (_distance_off, EXIT_OK, ["scenario_i001/distance.csv"], ()),
    (_unloadable_i004, EXIT_SCENARIO_ERROR,
     ["plots/min_scalar_vs_t_i004.csv", "scenario_i004/report.json"], ()),
    (_drop_index_16, EXIT_OK,
     ["scenario_i016/report.json", "plots/min_scalar_vs_t_i016.csv"], (1, 4)),
])
def test_no_report_outlives_the_run_that_replaced_it(second, code, stale, reflowed, tmp_path):
    """Every report file on disk after a run or check is one that it
    listed; traces and trace keys it did not flow again keep their bytes
    and mtimes."""
    d = json.loads(json.dumps(FLAT_DISTANCE_DICT))
    d["scenario"]["indices"] = [1, 4, 16]
    out = tmp_path / "out"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    command, d = second(out, d)
    cfg.write_text(json.dumps(d))
    assert all((out / name).exists() for name in stale)
    kept = [p for i in (1, 4, 16) if i not in reflowed
            for p in (out / f"scenario_i{i:03d}").rglob("*")
            if p.name == "trace_key.txt" or p.parent.name == "trace"]
    stored = {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept}

    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    manifest = json.loads((out / "manifest.json").read_text())
    assert _report_files(out) == {*manifest["outputs"], str(out / "manifest.json")}
    assert not any((out / name).exists() for name in stale)
    assert {p: (p.read_bytes(), p.stat().st_mtime_ns) for p in kept} == stored


# ---------------------------------------------------------------------------
# a completed run's manifest holds the family: check and a resumed run
# rebuild it from there instead of calibrating again


@pytest.fixture
def calibrations(monkeypatch):
    """Every calibrate_amplitude call make_sequence makes."""
    calls = []
    calibrate = scenarios.calibrate_amplitude

    def spy(*args, **kwargs):
        calls.append(args)
        return calibrate(*args, **kwargs)

    monkeypatch.setattr(scenarios, "calibrate_amplitude", spy)
    return calls


def _files(out):
    """Relative path -> bytes of every file of a run directory but its manifest."""
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def _scenario_rows(out):
    """The manifest's scenario rows without their paths."""
    rows = json.loads((out / "manifest.json").read_text())["scenarios"]
    return [{k: v for k, v in row.items() if k not in ("trace_dir", "report")} for row in rows]


def _copy_run(run, tmp_path):
    """(the fixture run's directory, a copy of it to run in)."""
    first = run[1]
    shutil.copytree(first, tmp_path / "run")
    return first, tmp_path / "run"


@pytest.mark.parametrize("command", ["check", "run"])
def test_completed_run_resumes_its_family_without_calibrating(
        command, calib_run, calib_cfg_file, calibrations, tmp_path, capsys):
    """check and a resumed run take each scenario from the manifest they
    replace: no curvature probe, and every file they write is the first
    run's, byte for byte, as are the manifest's scenario rows."""
    first, out = _copy_run(calib_run, tmp_path)
    assert main([command, "--config", str(calib_cfg_file), "--out", str(out)]) == EXIT_OK
    assert calibrations == []
    assert _files(out) == _files(first)
    assert _scenario_rows(out) == _scenario_rows(first)


def test_resumed_run_flows_a_deleted_trace_again_from_the_recorded_family(
        calib_run, calib_cfg_file, calibrations, tmp_path, capsys):
    first, out = _copy_run(calib_run, tmp_path)
    shutil.rmtree(out / "scenario_i004" / "trace")
    assert main(["run", "--config", str(calib_cfg_file), "--out", str(out)]) == EXIT_OK
    assert calibrations == []
    assert (out / "scenario_i004" / "trace" / "meta.json").exists()
    assert _files(out) == _files(first)


def _edit_manifest(edit):
    def apply(out):
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
    return apply


def _set_row(key, value):
    return _edit_manifest(lambda m: m["scenarios"][1].update({key: value}))


MANIFEST_FALLBACKS = {
    "no manifest": lambda out: (out / "manifest.json").unlink(),
    "invalid JSON": lambda out: (out / "manifest.json").write_text('{"config_hash": '),
    "not UTF-8": lambda out: (out / "manifest.json").write_bytes(b"\xff\xfe{}"),
    "not an object": lambda out: (out / "manifest.json").write_text("[]"),
    "another trace key": _edit_manifest(lambda m: m.update(trace_key="0" * 64)),
    "no trace key": _edit_manifest(lambda m: m.pop("trace_key")),
    "generation failure row": _edit_manifest(lambda m: m.update(
        scenarios=[{"status": "error", "error": "scenario generation failed: x"}])),
    "missing row": _edit_manifest(lambda m: m["scenarios"].pop()),
    "rows out of order": _edit_manifest(lambda m: m["scenarios"].reverse()),
    "float index": _set_row("index", 4.0),
    "missing value": _edit_manifest(lambda m: m["scenarios"][1].pop("volume")),
    "string amplitude": _set_row("amplitude", "0.01"),
    "null budget": _set_row("positive_part_budget", None),
    "boolean floor": _set_row("curvature_floor", True),
    "infinite trace norm": _set_row("trace_norm", math.inf),
    "NaN amplitude": _set_row("amplitude", math.nan),
}


@pytest.mark.parametrize("command", ["check", "run"])
@pytest.mark.parametrize("case", list(MANIFEST_FALLBACKS))
def test_manifest_that_records_no_family_of_this_config_is_recalibrated(
        case, command, calib_run, calib_cfg_file, calibrations, tmp_path, capsys):
    """Without a manifest of the same config holding one well-formed row
    per index, the family is calibrated as on a fresh directory: no error
    row, the same exit code and the same files."""
    first, out = _copy_run(calib_run, tmp_path)
    MANIFEST_FALLBACKS[case](out)
    assert main([command, "--config", str(calib_cfg_file), "--out", str(out)]) == EXIT_OK
    assert len(calibrations) == 3
    assert _files(out) == _files(first)
    assert _scenario_rows(out) == _scenario_rows(first)


def test_manifest_records_the_trace_key(calib_run):
    cfg, out, manifest = calib_run
    assert json.loads((out / "manifest.json").read_text())["trace_key"] \
        == manifest.trace_key == cfg.trace_key


def test_check_with_other_test_forms_resumes_the_family_without_calibrating(
        calib_run, calibrations, tmp_path, capsys):
    """The family depends only on the trace key's slice of the config, so a
    check whose config changes only harness.test_forms (another config hash)
    takes every scenario from the manifest, as an unchanged config does."""
    first, out = _copy_run(calib_run, tmp_path)
    d = json.loads(json.dumps(CALIB_DICT))
    d["harness"] = {"test_forms": 3}
    cfg = tmp_path / "forms.json"
    cfg.write_text(json.dumps(d))
    changed = config_from_dict(json.loads(cfg.read_text()))
    assert changed.config_hash != calib_run[0].config_hash
    assert changed.trace_key == calib_run[0].trace_key
    assert main(["check", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert calibrations == []
    assert _scenario_rows(out) == _scenario_rows(first)


def test_seed_override_recalibrates_and_finds_no_trace(calib_run, calib_cfg_file, calibrations,
                                                       tmp_path, capsys):
    """check --seed names another config: its family is calibrated, and
    the traces of the stored one are not its own."""
    _, out = _copy_run(calib_run, tmp_path)
    code = main(["check", "--config", str(calib_cfg_file), "--out", str(out), "--seed", "12"])
    assert code == EXIT_SCENARIO_ERROR
    assert len(calibrations) == 3
    assert [row["error"] for row in json.loads((out / "manifest.json").read_text())["scenarios"]] \
        == ["no persisted trace for this config; run the full pipeline first"] * 3


def test_flat_family_round_trips_through_the_manifest(flat_run, flat_cfg_file, tmp_path, capsys):
    first, out = _copy_run(flat_run, tmp_path)
    for command in ("check", "run"):
        assert main([command, "--config", str(flat_cfg_file), "--out", str(out)]) == EXIT_OK
        assert _files(out) == _files(first)
        assert _scenario_rows(out) == _scenario_rows(first)


@pytest.mark.parametrize("command", ["flow", "distance", "project"])
def test_first_scenario_of_a_completed_run_is_not_calibrated_again(
        command, calib_run, calib_cfg_file, calibrations, tmp_path, capsys):
    """flow, distance and project --out take the first scenario from the
    manifest of a completed run, and print what they print after a fresh
    calibration of it."""
    _, out = _copy_run(calib_run, tmp_path)
    argv = [command, "--config", str(calib_cfg_file), "--out", str(out)]
    assert main(argv) == EXIT_OK
    resumed = capsys.readouterr().out
    assert calibrations == []
    (out / "manifest.json").unlink()
    assert main(argv) == EXIT_OK
    assert len(calibrations) == 1
    assert capsys.readouterr().out == resumed


FIRST_SCENARIO_FALLBACKS = {
    **{case: MANIFEST_FALLBACKS[case] for case in ("another trace key", "not an object")},
    "scenarios an object": _edit_manifest(lambda m: m.update(scenarios={"index": 1})),
}


@pytest.mark.parametrize("case", list(FIRST_SCENARIO_FALLBACKS))
def test_flow_on_a_manifest_that_records_no_family_calibrates(
        case, calib_run, calib_cfg_file, calibrations, tmp_path, capsys):
    _, out = _copy_run(calib_run, tmp_path)
    argv = ["flow", "--config", str(calib_cfg_file), "--out", str(out)]
    assert main(argv) == EXIT_OK
    resumed = capsys.readouterr().out
    FIRST_SCENARIO_FALLBACKS[case](out)
    assert main(argv) == EXIT_OK
    assert len(calibrations) == 1
    assert capsys.readouterr() == (resumed, "")


def test_check_prints_each_failing_check(flat_run, flat_cfg_file, tmp_path, monkeypatch, capsys):
    """A failing check names itself with its slack and tolerance, as in
    checks.csv; a passing one prints nothing."""
    _, out = _copy_run(flat_run, tmp_path)
    monkeypatch.setattr(harness, "IDENTITY_TOL", -1.0)
    code = main(["check", "--config", str(flat_cfg_file), "--out", str(out)])
    lines = capsys.readouterr().out.splitlines()
    assert code == EXIT_CHECK_FAIL
    for i in (1, 4):
        slack = next(row.split(",")[1] for row in
                     (out / f"scenario_i{i:03d}" / "checks.csv").read_text().splitlines()
                     if row.startswith("weak_convergence,"))
        assert float(slack) < 0
        assert lines[lines.index(f"scenario i={i}: checked") + 1] == \
            f"  check weak_convergence failed: slack {slack}, tolerance 0.0"
    assert sum(" failed: slack " in line for line in lines) == 2


def test_cli_distance_reports_a_nonpositive_snapshot(tmp_path, capsys):
    """torusflow distance on a trace whose snapshot is no metric: a message
    and exit code 2, not a traceback, and the trace is left as it was."""
    d = json.loads(json.dumps(FLAT_DISTANCE_DICT))
    d["scenario"]["indices"] = [1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    sdir = out / "scenario_i001"
    (sdir / "distance.csv").unlink()
    _write_nonpositive_snapshot(sdir / "trace")
    stored = {p.name: p.read_bytes() for p in (sdir / "trace").iterdir()}

    assert main(["distance", *args]) == EXIT_SCENARIO_ERROR
    assert "measurement failed: PositivityError" in capsys.readouterr().err
    assert not (sdir / "distance.csv").exists()
    assert {p.name: p.read_bytes() for p in (sdir / "trace").iterdir()} == stored


# ---------------------------------------------------------------------------
# command line


def _drop_last_snapshot(trace_dir):
    meta = json.loads((trace_dir / "meta.json").read_text())
    del meta["snapshots"][-1]
    (trace_dir / "meta.json").write_text(json.dumps(meta))


def _name_format_1(trace_dir):
    """The meta.json format of traces whose snapshots held the initial
    potential plus phi, which are not read."""
    meta = json.loads((trace_dir / "meta.json").read_text())
    meta["format"] = "torusflow-trace-1"
    (trace_dir / "meta.json").write_text(json.dumps(meta))


def _explicit_scheme_key(trace_dir):
    """A config record with a flow key this version does not read."""
    meta = json.loads((trace_dir / "meta.json").read_text())
    meta["config"]["scheme"] = "explicit"
    (trace_dir / "meta.json").write_text(json.dumps(meta))


def _drop_t_ramp(trace_dir):
    meta = json.loads((trace_dir / "meta.json").read_text())
    del meta["config"]["t_ramp"]
    (trace_dir / "meta.json").write_text(json.dumps(meta))


def _cut_diagnostics_row(trace_dir):
    path = trace_dir / "diagnostics.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")


def _nan_min_r(line):
    """A corruption that writes nan into the minR cell of one CSV line."""
    def corrupt(trace_dir):
        path = trace_dir / "diagnostics.csv"
        lines = path.read_text().splitlines()
        cells = lines[line].split(",")
        cells[lines[0].split(",").index("minR")] = "nan"
        lines[line] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
    corrupt.__name__ = f"_nan_min_r_line_{line + 1}"
    return corrupt


def _oversized_header(trace_dir):
    """A field header whose payload, 8 N^{2n} bytes, no file could hold."""
    path = trace_dir / "initial_potential.tkrf"
    raw = path.read_bytes()
    path.write_bytes(raw[:len(tfio.MAGIC)] + struct.pack("<II", 2, 65536)
                     + raw[len(tfio.MAGIC) + 8:])


def _nest_meta_too_deep(trace_dir):
    """A meta.json nested deeper than the JSON parser recurses."""
    (trace_dir / "meta.json").write_text("[" * 200_000)


@pytest.mark.parametrize("corrupt", [_drop_last_snapshot, _cut_diagnostics_row,
                                     share_first_snapshot_file, _nan_min_r(1), _nan_min_r(3),
                                     _name_format_1, _oversized_header, _nest_meta_too_deep,
                                     _explicit_scheme_key, _drop_t_ramp])
def test_cli_malformed_trace_is_reported_then_recomputed(corrupt, tmp_path, capsys):
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    trace_dir = out / "scenario_i001" / "trace"
    corrupt(trace_dir)
    corrupted = {p.name: p.read_bytes() for p in trace_dir.iterdir()}

    assert main(["check", *args]) == EXIT_SCENARIO_ERROR
    assert "trace reload failed" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenarios"][0]["status"] == "error"
    if corrupt is _name_format_1:
        assert "'torusflow-trace-1'" in manifest["scenarios"][0]["error"]
    if corrupt is _explicit_scheme_key:
        assert "extra ['scheme'], missing []" in manifest["scenarios"][0]["error"]
    if corrupt is _drop_t_ramp:
        assert "extra [], missing ['t_ramp']" in manifest["scenarios"][0]["error"]
    assert manifest["any_errors"] and not manifest["all_checks_pass"]
    assert {p.name: p.read_bytes() for p in trace_dir.iterdir()} == corrupted

    assert main(["run", *args]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenarios"][0]["status"] == "ok"
    assert main(["check", *args]) == EXIT_OK


def _non_utf8_key(key_file):
    key_file.write_bytes(b"\xff\xfe" + key_file.read_bytes()[2:])


def _key_as_directory(key_file):
    key_file.unlink()
    key_file.mkdir()


@pytest.mark.parametrize("corrupt, command, code, error", [
    (_non_utf8_key, "check", EXIT_SCENARIO_ERROR, "no persisted trace"),
    (_non_utf8_key, "run", EXIT_OK, None),  # flowed again under a fresh key
    (_key_as_directory, "check", EXIT_SCENARIO_ERROR, "no persisted trace"),
    (_key_as_directory, "run", EXIT_SCENARIO_ERROR, "flow failed: IsADirectoryError"),
])
def test_cli_unreadable_trace_key_is_no_persisted_trace(corrupt, command, code, error,
                                                        tmp_path, monkeypatch):
    """A trace key file that cannot be read or decoded marks no trace: the
    command ends in a manifest, not a traceback.  A key path that cannot be
    removed fails the scenario before its flow runs."""
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    out = tmp_path / "out"
    args = ["--config", str(cfg), "--out", str(out)]
    assert main(["run", *args]) == EXIT_OK
    key_file = out / "scenario_i001" / "trace_key.txt"
    corrupt(key_file)
    flows = []
    original = runner.run_flow
    monkeypatch.setattr(runner, "run_flow", lambda *a: flows.append(1) or original(*a))

    assert main([command, *args]) == code
    (row,) = json.loads((out / "manifest.json").read_text())["scenarios"]
    assert len(flows) == (command == "run" and corrupt is _non_utf8_key)
    if error is None:
        assert row["status"] == "ok"
        assert key_file.read_text().strip() == config_from_dict(d).trace_key
    else:
        assert row["status"] == "error" and row["error"].startswith(error)


@pytest.fixture(scope="module")
def flat_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "flat.json"
    p.write_text(json.dumps(FLAT_DICT))
    return p


@pytest.fixture(scope="module")
def calib_cfg_file(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "calib.json"
    p.write_text(json.dumps(CALIB_DICT))
    return p


def test_cli_run(flat_cfg_file, tmp_path, capsys):
    code = main(["run", "--config", str(flat_cfg_file), "--out", str(tmp_path)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert "scenario i=1: ok" in outtext
    assert "checks: PASS; manifest:" in outtext
    assert (tmp_path / "manifest.json").exists()


def test_cli_seed_override(flat_cfg_file, flat_run, tmp_path, capsys):
    code = main(
        ["run", "--config", str(flat_cfg_file), "--out", str(tmp_path), "--seed", "12"]
    )
    assert code == EXIT_OK
    _, _, manifest = flat_run
    on_disk = json.loads((tmp_path / "manifest.json").read_text())
    assert on_disk["config_hash"] != manifest.config_hash


def test_cli_check_completed_run(flat_cfg_file, flat_run, capsys):
    _, out, _ = flat_run
    code = main(["check", "--config", str(flat_cfg_file), "--out", str(out)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert "scenario i=1: checked" in outtext
    assert "checks: PASS" in outtext


def test_cli_check_fresh_dir(flat_cfg_file, tmp_path, capsys):
    code = main(["check", "--config", str(flat_cfg_file), "--out", str(tmp_path)])
    outtext = capsys.readouterr().out
    assert code == EXIT_SCENARIO_ERROR
    assert "no persisted trace" in outtext


def test_cli_flow_reuses_trace(calib_cfg_file, calib_run, capsys):
    _, out, _ = calib_run
    meta = out / "scenario_i001" / "trace" / "meta.json"
    before = meta.stat().st_mtime_ns
    code = main(["flow", "--config", str(calib_cfg_file), "--out", str(out)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert "flow complete: i=1" in outtext
    assert meta.stat().st_mtime_ns == before


def test_cli_flow_reports_a_failed_flow(flat_cfg_file, tmp_path, monkeypatch, capsys):
    def broken(metric, config):
        raise ProjectionError("injected")

    monkeypatch.setattr(runner, "run_flow", broken)
    code = main(["flow", "--config", str(flat_cfg_file), "--out", str(tmp_path)])
    assert code == EXIT_SCENARIO_ERROR
    assert "flow failed: ProjectionError: injected" in capsys.readouterr().err


def test_cli_project(calib_cfg_file, tmp_path, capsys, monkeypatch, validations):
    """Past the scenario, project assembles its metric once and validates
    one more field, the projection's residual Hessian."""
    scenario = runner.first_scenario(parse_config(calib_cfg_file), None)
    monkeypatch.setattr(cli, "first_scenario", lambda config, out: scenario)
    validations.clear()
    code = main(["project", "--config", str(calib_cfg_file), "--out", str(tmp_path)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert len(validations) == 2
    assert "flat representative of scenario i=1" in outtext
    assert f"min R = {scenario.curvature_floor:.6g}" in outtext
    assert (tmp_path / "flat_potential.tkrf").exists()
    assert not (tmp_path / "flat_metric.tkrf").exists()
    H = tfio._matrix_from_json(json.loads((tmp_path / "flat_metric.json").read_text())["H"])
    assert f"H_flat = {np.array2string(H, precision=12)}" in outtext


def test_cli_distance(calib_cfg_file, calib_run, capsys):
    _, out, _ = calib_run
    code = main(["distance", "--config", str(calib_cfg_file), "--out", str(out)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert "distance battery on scenario i=1" in outtext
    assert "flat battery" in outtext


def test_cli_config_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"geometry": {"n": 1, "N": 63}, "scenario": {"indices": [1]}}))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert "config error: geometry.N" in err


def test_cli_rejects_graph_over_edge_budget(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text(json.dumps({"geometry": {"n": 2, "N": 16},
                             "scenario": {"indices": [1], "max_mode": 2, "p": "inf"}}))
    code = main(["run", "--config", str(p), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert "73,400,320 graph edges" in err
    assert not (tmp_path / "out").exists()


def test_cli_rejects_distance_time_without_snapshot(tmp_path, capsys):
    for times, message in [
        ([0.1], "distance.times: [0.1] are not flow snapshot times"),
        # no time would leave a distance check that cannot fail
        ([], "distance.times: must name at least one snapshot time"),
        # a time listed twice would repeat its check rows
        ([0.25, 0.05, 0.25 + 1e-12], "distance.times: [0.250000000001] listed more than once"),
        # every snapshot lies within a relative 1e-9 of t = inf, so the first would be read
        ([math.inf], "distance.times: must be a list of positive finite numbers"),
    ]:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"geometry": {"n": 1, "N": 16},
                                 "scenario": {"indices": [1], "max_mode": 1, "p": "inf"},
                                 "flow": {"snapshot_times": [0.05, 0.25]},
                                 "distance": {"times": times}}))
        for command in ("run", "check"):
            code = main([command, "--config", str(p), "--out", str(tmp_path / "out")])
            assert code == EXIT_CONFIG_ERROR
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


def test_cli_distance_rejects_time_without_snapshot(tmp_path, capsys, monkeypatch):
    """The distance command applies every battery rule before any scenario
    or flow, even when the config leaves the run's distance stage off."""

    def no_scenario(config, out):
        raise AssertionError("a scenario was built for a battery that cannot run")

    monkeypatch.setattr(cli, "first_scenario", no_scenario)
    for config, message in [
        ({"geometry": {"n": 1, "N": 16}, "scenario": {"indices": [1], "max_mode": 1},
          "flow": {"snapshot_times": [0.05, 0.25]}, "distance": {"times": [0.1]}},
         "distance.times: [0.1] are not flow snapshot times"),
        ({"geometry": {"n": 1, "N": 16}, "scenario": {"indices": [1], "max_mode": 1},
          "flow": {"snapshot_times": [0.05, 0.1]}, "distance": {"times": [0.1, 0.05, 0.1]}},
         "distance.times: [0.1] listed more than once"),
        ({"geometry": {"n": 1, "N": 8}, "scenario": {"indices": [1], "max_mode": 1},
          "distance": {"radius": 4}},
         "distance.radius: stencil radius 4 needs N > 8"),
        # the perfbench n2-N16 config: radius 3 would need a graph of about 2 GB
        ({"geometry": {"n": 2, "N": 16}, "scenario": {"indices": [1, 4, 16], "max_mode": 2,
                                                      "seed": 90}},
         "distance.radius: radius 3 at n=2, N=16 gives 73,400,320 graph edges"),
    ]:
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        code = main(["distance", "--config", str(p), "--out", str(tmp_path / "out")])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("make", [
    lambda p: p.mkdir(),
    lambda p: p.write_bytes(b'{"geometry": {"n": 1, "N": 16}, "output": "\xff"}'),
], ids=["directory", "not_utf8"])
def test_cli_unreadable_config(make, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    make(cfg)
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG_ERROR
    assert "config file cannot be read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "config file not found" in capsys.readouterr().err


def test_cli_requires_out(flat_cfg_file, capsys):
    code = main(["run", "--config", str(flat_cfg_file)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert "output: no directory given" in err


@pytest.mark.parametrize("command", ["run", "check", "flow", "project", "distance"])
@pytest.mark.parametrize("inside", [False, True], ids=["file", "inside_a_file"])
def test_cli_output_path_that_cannot_be_a_directory_is_a_config_error(command, inside, tmp_path,
                                                                       capsys):
    """--out naming a regular file, or a path below one: every command ends
    in a config error that names the path, and the file keeps its bytes."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(FLAT_DISTANCE_DICT))
    blocker = tmp_path / "a-file"
    blocker.write_text("kept\n")
    out = blocker / "out" if inside else blocker
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: output: cannot make the directory {out}: ")
    assert captured.err.count("\n") == 1 and captured.out == ""
    assert blocker.read_text() == "kept\n"


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("report", ["manifest.json", "family.csv", "scenario_i001/checks.csv",
                                    "plots/inf_dot_phi_vs_i.csv"])
def test_cli_directory_where_a_report_goes_is_a_config_error(command, report, flat_run,
                                                             flat_cfg_file, tmp_path, capsys):
    """A report file an earlier run wrote has become a directory: run and
    check end in a config error that names it, and leave it as it is."""
    _, out = _copy_run(flat_run, tmp_path)
    path = out / report
    path.unlink()
    path.mkdir()
    (path / "inside").write_text("kept\n")
    assert main([command, "--config", str(flat_cfg_file), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output: cannot remove {path}: ")
    assert (path / "inside").read_text() == "kept\n"
    assert not (out / "manifest.json").is_file()


@pytest.mark.parametrize("command", ["run", "check"])
def test_cli_file_where_the_plots_directory_goes_is_a_config_error(command, flat_run, flat_cfg_file,
                                                                    tmp_path, capsys):
    """A file where plots/ goes fails in set-up: the earlier run's reports
    are gone and no scenario is measured, so none is written again."""
    _, out = _copy_run(flat_run, tmp_path)
    shutil.rmtree(out / "plots")
    (out / "plots").write_text("kept\n")
    assert main([command, "--config", str(flat_cfg_file), "--out", str(out)]) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: output: cannot make the directory {out / 'plots'}: ")
    assert (out / "plots").read_text() == "kept\n"
    assert not (out / "manifest.json").exists()
    assert not list(out.glob("scenario_i*/report.json"))


@pytest.mark.parametrize("command", ["flow", "project", "distance"])
def test_jobs_is_an_option_of_run_and_check_only(command, flat_cfg_file, tmp_path, capsys):
    """Only run and check flow a family, so only they take --jobs."""
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--config", str(flat_cfg_file), "--out", str(tmp_path), "--jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
    parser = cli._build_parser()
    for accepting in ("run", "check"):
        args = parser.parse_args([accepting, "--config", "c.json", "--jobs", "2"])
        assert args.jobs == 2


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_config_error(command, jobs, flat_cfg_file, tmp_path, capsys):
    code = main([command, "--config", str(flat_cfg_file), "--out", str(tmp_path), "--jobs", jobs])
    assert code == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err == f"config error: --jobs: must be an integer >= 1, got {jobs}\n"
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# set-up keeps freed memory in the process: glibc's malloc thresholds


class _Stop(Exception):
    """Raised where a command's pipeline would start."""


def _fake_c_library(monkeypatch, mallopt_returns=1, has_mallopt=True):
    """Replace ctypes.CDLL by a library whose mallopt records its calls;
    returns the list of (param, value) calls."""
    import ctypes

    calls = []

    class FakeLibrary:
        def __init__(self, name):
            assert name is None  # the process's own symbols
            if has_mallopt:
                def mallopt(param, value):
                    calls.append((param, value))
                    return mallopt_returns

                self.mallopt = mallopt

    monkeypatch.setattr(ctypes, "CDLL", FakeLibrary)
    return calls


def _set_up_of(command, cfg_file, out, monkeypatch) -> None:
    """Run a command up to its pipeline, where _Stop ends it."""
    def stop(*args, **kwargs):
        raise _Stop

    for name in ("run_experiment", "_first_trace", "_first_scenario"):
        monkeypatch.setattr(cli, name, stop)
    with pytest.raises(_Stop):
        main([command, "--config", str(cfg_file), "--out", str(out)])


@pytest.mark.parametrize("command", ["run", "check", "flow", "project", "distance"])
def test_set_up_sets_both_malloc_thresholds_once(command, calib_cfg_file, tmp_path, monkeypatch):
    """And keeps glibc to one arena, also once."""
    calls = _fake_c_library(monkeypatch)
    _set_up_of(command, calib_cfg_file, tmp_path, monkeypatch)
    assert calls == [(cli._M_TRIM_THRESHOLD, 1 << 30), (cli._M_MMAP_THRESHOLD, 32 << 20),
                     (cli._M_ARENA_MAX, 1)]
    # glibc's malloc.h
    assert (cli._M_TRIM_THRESHOLD, cli._M_MMAP_THRESHOLD, cli._M_ARENA_MAX) == (-1, -3, -8)


def test_set_up_leaves_a_c_library_without_mallopt_as_it_is(calib_cfg_file, tmp_path,
                                                              monkeypatch):
    calls = _fake_c_library(monkeypatch, has_mallopt=False)
    _set_up_of("run", calib_cfg_file, tmp_path, monkeypatch)
    assert calls == []


def test_set_up_goes_on_when_mallopt_refuses_a_value(calib_cfg_file, tmp_path, monkeypatch):
    calls = _fake_c_library(monkeypatch, mallopt_returns=0)
    _set_up_of("run", calib_cfg_file, tmp_path, monkeypatch)
    assert len(calls) == 3


def test_importing_the_package_sets_no_malloc_threshold():
    """Only a command's set-up calls mallopt; the spy sees it when it does."""
    proc = _python("import ctypes\n"
                   "real, calls = ctypes.CDLL, []\n"
                   "class Spy:\n"
                   "    def __init__(self, name):\n"
                   "        self._lib = real(name)\n"
                   "    def __getattr__(self, attr):\n"
                   "        if attr == 'mallopt':\n"
                   "            return lambda *args: calls.append(args) or 1\n"
                   "        return getattr(self._lib, attr)\n"
                   "ctypes.CDLL = Spy\n"
                   "import torusflow\n"
                   "import torusflow.cli\n"
                   "print(len(calls))\n"
                   "torusflow.cli._keep_freed_memory()\n"
                   "print(len(calls))\n")
    assert proc.stdout.split() == ["0", "3"]


# ---------------------------------------------------------------------------
# scipy stacks: each command loads those its config runs, in set-up

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(code: str, *args) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports torusflow from src."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_importing_the_cli_loads_no_scipy():
    proc = _python("import sys\n"
                   "import torusflow.cli\n"
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert proc.stdout.split() == ["[]"]


def test_importing_the_cli_loads_no_process_pool():
    """The flow pool's modules load only when a run forks workers (--jobs > 1)."""
    proc = _python("import sys\n"
                   "import torusflow.cli\n"
                   "print('concurrent.futures.process' in sys.modules, "
                   "'multiprocessing' in sys.modules)\n")
    assert proc.stdout.split() == ["False", "False"]


# stops `run` where its pipeline would start and prints what set-up loaded:
# the transforms (fields), the scipy stacks, and whether any scipy module
_SETUP_OF_RUN = (
    "import sys\n"
    "import torusflow.cli as cli\n"
    "from torusflow import fields\n"
    "def stop(*args, **kwargs):\n"
    "    stacks = ('scipy.fft', 'scipy.sparse', 'scipy.sparse.csgraph')\n"
    "    print(fields.FFT_LIBRARY, *(m in sys.modules for m in stacks),\n"
    "          any(m.split('.')[0] == 'scipy' for m in sys.modules))\n"
    "    raise SystemExit(0)\n"
    "cli.run_experiment = stop\n"
    "cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
)


@pytest.mark.parametrize("d, loaded", [
    ({"geometry": {"n": 2, "N": 16}, "scenario": {"indices": [1]}},
     ["pypocketfft", "False", "False", "False", "False"]),
    (CALIB_DICT, ["pypocketfft", "False", "True", "True", "True"]),
], ids=["n2-no-distances", "n1-distances"])
def test_run_setup_loads_the_stacks_its_config_runs(d, loaded, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    proc = _python(_SETUP_OF_RUN, str(cfg), str(tmp_path / "out"))
    assert proc.stdout.split() == loaded


# runs commands that end in a config error in a fresh interpreter, then
# prints their exit codes, the transforms loaded (None for none), and every
# scipy module loaded
_CONFIG_ERRORS_OF = (
    "import json, sys\n"
    "from torusflow import fields\n"
    "from torusflow.cli import main\n"
    "codes = [main(json.loads(argv)) for argv in sys.argv[1:]]\n"
    "print(*codes, fields.FFT_LIBRARY, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
)


def test_config_errors_exit_before_set_up_loads_anything(tmp_path):
    """A missing or unusable output path and, for `distance`, a battery that
    cannot run are config errors found before set-up: the command loads
    neither the FFT kernel nor any scipy module."""
    configs = {}
    for name, d in (("calib", CALIB_DICT),
                    ("no_battery", {**CALIB_DICT, "geometry": {"n": 2, "N": 16},
                                    "distance": {"enabled": False, "radius": 8}})):
        configs[name] = tmp_path / f"{name}.json"
        configs[name].write_text(json.dumps(d))
    a_file = tmp_path / "a_file"
    a_file.write_text("")
    argvs = [[command, "--config", str(configs["calib"])] for command in ("run", "flow")]
    argvs += [[command, "--config", str(configs["calib"]), "--out", str(a_file / "out")]
              for command in ("run", "flow", "project", "distance")]
    argvs.append(["distance", "--config", str(configs["no_battery"]), "--out",
                  str(tmp_path / "out")])
    proc = _python(_CONFIG_ERRORS_OF, *(json.dumps(argv) for argv in argvs))
    assert proc.stdout.split() == ["3"] * len(argvs) + ["None", "[]"]
    assert "distance.radius: stencil radius 8 needs N > 16" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_distance_command_runs_with_distances_off(calib_run, tmp_path):
    """`distance` searches graphs whatever the config's distance switch, so
    it loads the sparse stack itself and writes the table a run writes."""
    cfg_run, out_run, _ = calib_run
    d = json.loads(json.dumps(CALIB_DICT))
    d["distance"]["enabled"] = False
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    _python("import sys\n"
            "from torusflow.cli import main\n"
            "sys.exit(main(['distance', '--config', sys.argv[1], '--out', sys.argv[2]]))\n",
            str(cfg), str(tmp_path / "out"))
    table = Path("scenario_i001") / "distance.csv"
    assert (tmp_path / "out" / table).read_bytes() == (out_run / table).read_bytes()
