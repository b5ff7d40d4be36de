"""Binary field format, atomic writers, and flow-trace persistence."""

import json

import numpy as np
import pytest

from conftest import cos_field

from torusflow import (
    FlowConfig,
    KahlerMetric,
    ScalarField,
    TorusGeometry,
    run_flow,
)
from torusflow.io import (
    FormatError,
    MAGIC,
    load_field,
    load_metric_snapshot,
    load_trace,
    save_field,
    save_metric_snapshot,
    save_trace,
    write_bytes_atomic,
    write_csv_atomic,
    write_json_atomic,
)


def test_field_round_trip(tmp_path, geo1, geo2):
    for geo in (geo1, geo2):
        f = 0.3 * cos_field(geo, 0) + 1.25
        p = tmp_path / f"f{geo.n}.tkrf"
        save_field(f, p)
        back = load_field(p)
        assert back.geometry == geo
        assert np.array_equal(back.values, f.values)  # bit-exact


def test_field_header(tmp_path, geo1):
    p = tmp_path / "f.tkrf"
    save_field(cos_field(geo1, 0), p)
    raw = p.read_bytes()
    assert raw[: len(MAGIC)] == MAGIC
    assert len(raw) == len(MAGIC) + 12 + 8 * geo1.N**2


def test_metric_snapshot_round_trip(tmp_path, geo2):
    H = np.array([[1.2, 0.1 + 0.2j], [0.1 - 0.2j, 0.9]])
    phi = 0.05 * cos_field(geo2, 1) + 0.7  # nonzero mean must survive
    p = tmp_path / "snap.tkrf"
    save_metric_snapshot(H, phi, p)
    H2, phi2 = load_metric_snapshot(p)
    assert np.array_equal(H2, H)
    assert np.array_equal(phi2.values, phi.values)


def test_metric_snapshot_shape_check(tmp_path, geo1):
    with pytest.raises(FormatError):
        save_metric_snapshot(np.eye(2), cos_field(geo1, 0), tmp_path / "bad.tkrf")


def test_kind_mismatch(tmp_path, geo1):
    p = tmp_path / "f.tkrf"
    save_field(cos_field(geo1, 0), p)
    with pytest.raises(FormatError):
        load_metric_snapshot(p)


def test_bad_magic(tmp_path):
    p = tmp_path / "junk.tkrf"
    p.write_bytes(b"NOTAFILE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_field(p)


def test_truncated_payload(tmp_path, geo1):
    p = tmp_path / "f.tkrf"
    save_field(cos_field(geo1, 0), p)
    p.write_bytes(p.read_bytes()[:-16])
    with pytest.raises(FormatError):
        load_field(p)


# ---------------------------------------------------------------------------
# atomic writers


def test_atomic_write_leaves_no_temp(tmp_path):
    p = tmp_path / "out.bin"
    write_bytes_atomic(p, b"abc")
    assert p.read_bytes() == b"abc"
    assert list(tmp_path.iterdir()) == [p]


def test_atomic_write_ignores_stale_temp_name(tmp_path):
    p = tmp_path / "out.bin"
    (tmp_path / "out.bin.tmp").mkdir()  # what a fixed temp name would collide with
    write_bytes_atomic(p, b"abc")
    assert p.read_bytes() == b"abc"
    assert sorted(x.name for x in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]


def test_json_writer_deterministic(tmp_path):
    p = tmp_path / "a.json"
    obj = {"b": 2, "a": [1.5, "x"], "nested": {"z": None, "y": True}}
    write_json_atomic(p, obj)
    first = p.read_bytes()
    write_json_atomic(p, obj)
    assert p.read_bytes() == first
    assert json.loads(first) == obj


def test_json_writer_rejects_nan(tmp_path):
    with pytest.raises(ValueError):
        write_json_atomic(tmp_path / "bad.json", {"v": float("nan")})


def test_csv_writer(tmp_path):
    p = tmp_path / "t.csv"
    write_csv_atomic(p, ("a", "b"), [(1, 2.5), ("x", -3)])
    assert p.read_text() == "a,b\n1,2.5\nx,-3\n"


# ---------------------------------------------------------------------------
# flow traces


@pytest.fixture(scope="module")
def small_trace():
    geo = TorusGeometry(1, 16)
    m = KahlerMetric(np.eye(1), 0.02 * cos_field(geo, 0))
    cfg = FlowConfig(sigma=0.5, t_end=0.05, snapshot_times=(0.01, 0.05))
    return run_flow(m, cfg)


def test_trace_layout(tmp_path, small_trace):
    d = save_trace(small_trace, tmp_path / "trace")
    names = {p.name for p in d.iterdir()}
    assert "meta.json" in names
    assert "initial_potential.tkrf" in names
    assert "flat_potential.tkrf" in names
    assert "final.tkrf" in names
    assert "diagnostics.csv" in names
    assert "snapshot_t0.010000.tkrf" in names
    assert "snapshot_t0.050000.tkrf" in names
    header = (d / "diagnostics.csv").read_text().splitlines()[0]
    assert header == "t,dt,minR,min_dotphi,max_dotphi,mineig,volume"


def test_trace_round_trip(tmp_path, small_trace):
    d = save_trace(small_trace, tmp_path / "trace")
    back = load_trace(d)

    assert back.config == small_trace.config
    assert np.array_equal(back.initial.H, small_trace.initial.H)
    assert np.array_equal(back.initial.phi.values, small_trace.initial.phi.values)
    assert np.array_equal(back.alpha.H, small_trace.alpha.H)
    assert np.array_equal(
        back.flat_potential.values, small_trace.flat_potential.values
    )

    assert back.times == small_trace.times
    for s0, s1 in zip(small_trace.snapshots, back.snapshots):
        assert s1.t == s0.t
        assert s1.phi_mean == pytest.approx(s0.phi_mean, abs=1e-14)
        assert np.abs(s1.phi_osc.values - s0.phi_osc.values).max() < 1e-14
        # dot_phi is recomputed from the stored potential
        assert np.abs(s1.dot_phi.values - s0.dot_phi.values).max() < 1e-11

    # diagnostics go through repr() so floats survive exactly
    assert back.diagnostics == small_trace.diagnostics

    assert back.final.t == small_trace.final.t
    assert np.abs(back.final.phi_osc.values - small_trace.final.phi_osc.values).max() < 1e-14


def test_trace_rejects_wrong_format(tmp_path, small_trace):
    d = save_trace(small_trace, tmp_path / "trace")
    meta = json.loads((d / "meta.json").read_text())
    meta["format"] = "torusflow-trace-999"
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError):
        load_trace(d)


def _edit_meta(edit):
    def corrupt(d):
        meta = json.loads((d / "meta.json").read_text())
        edit(meta)
        (d / "meta.json").write_text(json.dumps(meta))
    return corrupt


def _edit_diagnostics(edit):
    def corrupt(d):
        path = d / "diagnostics.csv"
        lines = path.read_text().splitlines()
        path.write_text("".join(line + "\n" for line in edit(lines)))
    return corrupt


MALFORMED_TRACES = {
    "meta_not_json": lambda d: (d / "meta.json").write_text("{"),
    "meta_not_object": lambda d: (d / "meta.json").write_text("[]"),
    "missing_final": _edit_meta(lambda m: m.pop("final")),
    "missing_config_key": _edit_meta(lambda m: m["config"].pop("sigma")),
    "missing_snapshot_time": _edit_meta(lambda m: m["snapshots"][0].pop("t")),
    "snapshots_not_list": _edit_meta(lambda m: m.update(snapshots=5)),
    "time_not_number": _edit_meta(lambda m: m["final"].update(t="late")),
    "geometry_not_object": _edit_meta(lambda m: m.update(geometry=[1, 16])),
    "short_row": _edit_diagnostics(lambda ls: ls[:1] + [",".join(ls[1].split(",")[:5])] + ls[2:]),
    "long_row": _edit_diagnostics(lambda ls: ls[:1] + [ls[1] + ",1.0"] + ls[2:]),
    "cell_not_number": _edit_diagnostics(lambda ls: ls[:1] + ["x" + ls[1]] + ls[2:]),
    "header_only": _edit_diagnostics(lambda ls: ls[:1]),
    "empty_diagnostics": _edit_diagnostics(lambda ls: []),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
def test_trace_rejects_malformed_records(tmp_path, small_trace, name):
    d = save_trace(small_trace, tmp_path / "trace")
    MALFORMED_TRACES[name](d)
    with pytest.raises(FormatError):
        load_trace(d)
