"""Experiment runner: config strictness, pipeline artifacts, resume, CLI."""

import json
import math
from pathlib import Path

import pytest

from torusflow.cli import (
    EXIT_CHECK_FAIL,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    EXIT_SCENARIO_ERROR,
    main,
)
from torusflow import ProjectionError, runner
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
    assert cfg.flat_mode is False
    assert cfg.form_count == 5 and cfg.form_seed == 101
    assert cfg.q_list == (1.0, 1.5)
    # default trace exponent is finite (2n), so the distance battery stays off
    assert cfg.distance_enabled is False
    assert cfg.stencil.radius == 3
    assert cfg.distance_queries == 10 and cfg.distance_flat_queries == 100
    assert cfg.distance_times == (0.05, 0.25, 1.0)
    assert cfg.distance_seed == 2024
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
    d = base_dict(flow={"dt": 0.1}, distance={"stencil": 3})
    d["scenario"]["amplitude"] = 0.5
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    msgs = err.value.errors
    assert any(m.startswith("scenario.amplitude: unknown key") for m in msgs)
    assert any(m.startswith("flow.dt: unknown key") for m in msgs)
    assert any(m.startswith("distance.stencil: unknown key") for m in msgs)


@pytest.mark.parametrize("bad_N", [63, 2, 0, "64", None, 16.0])
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


@pytest.mark.parametrize("bad", [[], [0], [4, 4], [4, 2], [1, "2"], "1,2", None])
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
    assert cfg.distance_enabled is True

    d["scenario"]["p"] = 4
    cfg = config_from_dict(d)
    assert cfg.scenario.trace_exponent == 4.0
    assert cfg.distance_enabled is False


@pytest.mark.parametrize("bad,shown", [("four", "'four'"), ([2], "list")])
def test_trace_exponent_rejections(bad, shown):
    d = base_dict()
    d["scenario"]["p"] = bad
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert f"scenario.p: expected a number or 'inf', got {shown}" in err.value.errors


def test_distance_enabled_override():
    d = base_dict()
    d["scenario"]["p"] = "inf"
    d["distance"] = {"enabled": False}
    assert config_from_dict(d).distance_enabled is False
    d["distance"] = {"enabled": 1}
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(m.startswith("distance.enabled") for m in err.value.errors)


@pytest.mark.parametrize("N, ok", [(4, False), (6, False), (8, True)])
def test_distance_radius_must_fit_grid(N, ok):
    d = {"geometry": {"n": 1, "N": N}, "scenario": {"indices": [1], "max_mode": 1, "p": "inf"},
         "distance": {"radius": 3}}
    if ok:
        assert config_from_dict(d).distance_enabled is True
    else:
        with pytest.raises(ConfigError) as err:
            config_from_dict(d)
        assert err.value.errors == [
            f"distance.radius: stencil radius 3 needs N > 6: at N={N} two offsets reach the same neighbour"
        ]
        d["distance"]["enabled"] = False  # the rule binds only a stage that runs
        assert config_from_dict(d).distance_enabled is False


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


def test_flow_values_validated():
    d = base_dict(flow={"sigma": 1.5})
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert err.value.errors[0].startswith("flow: ")


def test_snapshot_times_coercion():
    d = base_dict(flow={"t_end": 0.5, "snapshot_times": [0.1, 0.25]})
    cfg = config_from_dict(d)
    assert cfg.flow.snapshot_times == (0.1, 0.25)

    d = base_dict(flow={"snapshot_times": [0.1, "x"]})
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
    assert any(m.startswith("flow.snapshot_times") for m in err.value.errors)


def test_q_list_custom_and_invalid():
    d = base_dict(harness={"q_list": [2, 3]})
    assert config_from_dict(d).q_list == (2.0, 3.0)
    d = base_dict(harness={"q_list": [0]})
    with pytest.raises(ConfigError) as err:
        config_from_dict(d)
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
    assert report["distance"]["flat_battery"]["max_rel_error"] <= 0.02


def test_checks_csv_includes_distance_rows(calib_run):
    import csv

    _, out, _ = calib_run
    with open(out / "scenario_i001" / "checks.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drows = [r for r in rows[1:] if r[0].startswith("distance[")]
    assert len(drows) == 6
    assert any(r[0] == "distance[q0,t=0.25]" for r in drows)
    assert all(r[2] == "0.0" and r[3] == "true" for r in drows)


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


def test_unloadable_trace_is_recomputed(tmp_path):
    d = json.loads(json.dumps(FLAT_DICT))
    d["scenario"]["indices"] = [1]
    cfg = config_from_dict(d)
    run_experiment(cfg, tmp_path)
    final = tmp_path / "scenario_i001" / "trace" / "final.tkrf"
    final.write_bytes(final.read_bytes()[:100])

    checked = run_experiment(cfg, tmp_path, resume_only=True)
    assert checked.scenarios[0]["status"] == "error"
    assert "trace reload failed" in checked.scenarios[0]["error"]
    assert len(final.read_bytes()) == 100, "check must not rewrite the trace"

    rerun = run_experiment(cfg, tmp_path)
    assert rerun.scenarios[0]["status"] == "ok"
    assert exit_code_of(rerun) == 0
    assert len(final.read_bytes()) > 100


# ---------------------------------------------------------------------------
# command line


def _drop_final(trace_dir):
    meta = json.loads((trace_dir / "meta.json").read_text())
    del meta["final"]
    (trace_dir / "meta.json").write_text(json.dumps(meta))


def _cut_diagnostics_row(trace_dir):
    path = trace_dir / "diagnostics.csv"
    lines = path.read_text().splitlines()
    lines[1] = ",".join(lines[1].split(",")[:5])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("corrupt", [_drop_final, _cut_diagnostics_row])
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
    assert manifest["any_errors"] and not manifest["all_checks_pass"]
    assert {p.name: p.read_bytes() for p in trace_dir.iterdir()} == corrupted

    assert main(["run", *args]) == EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenarios"][0]["status"] == "ok"
    assert main(["check", *args]) == EXIT_OK


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


def test_cli_project(calib_cfg_file, tmp_path, capsys):
    code = main(["project", "--config", str(calib_cfg_file), "--out", str(tmp_path)])
    outtext = capsys.readouterr().out
    assert code == EXIT_OK
    assert "flat representative of scenario i=1" in outtext
    assert (tmp_path / "flat_potential.tkrf").exists()
    assert (tmp_path / "flat_metric.tkrf").exists()


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


def test_cli_missing_config(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert code == EXIT_CONFIG_ERROR
    assert "config file not found" in capsys.readouterr().err


def test_cli_requires_out(flat_cfg_file, capsys):
    code = main(["run", "--config", str(flat_cfg_file)])
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG_ERROR
    assert "output: no directory given" in err
