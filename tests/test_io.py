"""Binary field format, atomic writers, and flow-trace persistence."""

import json
import struct

import numpy as np
import pytest

from conftest import cos_field, rate_field, share_first_snapshot_file

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
    load_trace,
    save_field,
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


def test_kind_mismatch(tmp_path, geo1):
    """Kind 0, a scalar field, is the only kind a field file may name."""
    p = tmp_path / "f.tkrf"
    save_field(cos_field(geo1, 0), p)
    raw = p.read_bytes()
    p.write_bytes(raw[: len(MAGIC) + 8] + struct.pack("<I", 1) + raw[len(MAGIC) + 12:])
    with pytest.raises(FormatError, match="found kind 1"):
        load_field(p)


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


def test_trailing_bytes(tmp_path, geo1):
    p = tmp_path / "f.tkrf"
    save_field(cos_field(geo1, 0), p)
    p.write_bytes(p.read_bytes() + b"\x00" * 80)
    with pytest.raises(FormatError, match="after the field payload"):
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


def _snapshot_files(d) -> list:
    """The snapshot file names a trace's meta.json lists, in time order."""
    return [record["file"] for record in json.loads((d / "meta.json").read_text())["snapshots"]]


def test_trace_layout(tmp_path, small_trace):
    d = save_trace(small_trace, tmp_path / "trace")
    names = {p.name for p in d.iterdir()}
    files = _snapshot_files(d)
    # the final state is the snapshot at t_end, stored once
    assert len(set(files)) == len(small_trace.snapshots) == 2
    assert names == {"meta.json", "initial_potential.tkrf", "flat_potential.tkrf",
                     "diagnostics.csv", *files}
    assert "final" not in json.loads((d / "meta.json").read_text())
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
        # the full potential, mean included
        assert np.array_equal(s1.phi.values, s0.phi.values)
        # the rate derived from the stored potential matches the flow's state
        rate0 = rate_field(s0, small_trace.alpha)
        rate1 = rate_field(s1, back.alpha)
        assert np.abs(rate1.values - rate0.values).max() < 1e-11

    # diagnostics go through repr() so floats survive exactly
    assert back.diagnostics == small_trace.diagnostics

    assert back.final is back.snapshots[-1]
    assert back.final.t == small_trace.final.t
    assert np.array_equal(back.final.phi.values, small_trace.final.phi.values)


@pytest.mark.parametrize("n,N", [(1, 16), (2, 8)])
def test_trace_round_trip_reads_back_every_flow_potential(tmp_path, n, N):
    """Each snapshot file holds the flow's phi itself, so every loaded
    potential equals the one the flow wrote, bit for bit."""
    geo = TorusGeometry(n, N)
    m = KahlerMetric(np.eye(n), 0.02 * cos_field(geo, 0) + 0.01 * cos_field(geo, 1, mode=2))
    trace = run_flow(m, FlowConfig(t_end=0.25, snapshot_times=(0.01, 0.05, 0.1, 0.25)))
    back = load_trace(save_trace(trace, tmp_path / "trace"))
    assert back.times == trace.times
    for s0, s1 in zip(trace.snapshots, back.snapshots):
        assert np.array_equal(s1.phi.values, s0.phi.values), s0.t


def test_trace_round_trip_keeps_close_snapshot_times_apart(tmp_path):
    """Snapshot times that agree to six decimals are stored in files of
    their own and each reads back as its own state."""
    geo = TorusGeometry(1, 16)
    m = KahlerMetric(np.eye(1), 0.02 * cos_field(geo, 0))
    trace = run_flow(m, FlowConfig(t_end=1.0, snapshot_times=(1e-7, 3e-7, 0.05, 1.0)))
    d = save_trace(trace, tmp_path / "trace")
    assert len(set(_snapshot_files(d))) == 4
    back = load_trace(d)
    assert back.times == trace.times == (1e-7, 3e-7, 0.05, 1.0)
    for s0, s1 in zip(trace.snapshots, back.snapshots):
        assert np.array_equal(s1.phi.values, s0.phi.values)


def test_resaved_trace_drops_the_snapshot_files_it_replaced(tmp_path, small_trace):
    """A trace saved over one with six-decimal snapshot file names leaves
    only the files its own meta.json names."""
    d = save_trace(small_trace, tmp_path / "trace")
    meta = json.loads((d / "meta.json").read_text())
    for record in meta["snapshots"]:
        old = f"snapshot_t{record['t']:.6f}.tkrf"
        (d / record["file"]).rename(d / old)
        record["file"] = old
    (d / "meta.json").write_text(json.dumps(meta))
    assert load_trace(d).times == small_trace.times

    save_trace(small_trace, d)
    assert {p.name for p in d.iterdir()} == {"meta.json", "initial_potential.tkrf",
                                             "flat_potential.tkrf", "diagnostics.csv",
                                             *_snapshot_files(d)}
    assert load_trace(d).times == small_trace.times


def test_trace_rejects_wrong_format(tmp_path, small_trace):
    """Only torusflow-trace-2 is read; the error names the format found."""
    d = save_trace(small_trace, tmp_path / "trace")
    meta = json.loads((d / "meta.json").read_text())
    for fmt in ("torusflow-trace-1", "torusflow-trace-999"):
        meta["format"] = fmt
        (d / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=fmt):
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


def _set_cell(lines, line, column, text):
    """The CSV lines with one cell, at 0-based line and named column, replaced."""
    cells = lines[line].split(",")
    cells[lines[0].split(",").index(column)] = text
    return lines[:line] + [",".join(cells)] + lines[line + 1:]


def _replace_with_coarse_field(name):
    """Overwrite the trace file name(d) with a field of -7.0 on the N=8 grid."""
    def corrupt(d):
        geo = TorusGeometry(1, 8)
        save_field(ScalarField(geo, np.full(geo.shape, -7.0)), d / name(d))
    return corrupt


MALFORMED_TRACES = {
    "meta_not_json": lambda d: (d / "meta.json").write_text("{"),
    "meta_not_object": lambda d: (d / "meta.json").write_text("[]"),
    "meta_nested_too_deep": lambda d: (d / "meta.json").write_text("[" * 200_000),
    "missing_last_snapshot": _edit_meta(lambda m: m["snapshots"].pop()),
    "missing_config_key": _edit_meta(lambda m: m["config"].pop("sigma")),
    # keys of flow settings this version no longer has
    "extra_config_key_scheme": _edit_meta(lambda m: m["config"].update(scheme="explicit")),
    "extra_config_key_dealias": _edit_meta(lambda m: m["config"].update(dealias=False)),
    "extra_config_key_max_rejects": _edit_meta(lambda m: m["config"].update(max_rejects=20)),
    "missing_snapshot_time": _edit_meta(lambda m: m["snapshots"][0].pop("t")),
    "snapshots_not_list": _edit_meta(lambda m: m.update(snapshots=5)),
    "time_not_number": _edit_meta(lambda m: m["snapshots"][-1].update(t="late")),
    "time_not_configured": _edit_meta(lambda m: m["snapshots"][0].update(t=0.02)),
    "snapshots_share_a_file": share_first_snapshot_file,
    "geometry_not_object": _edit_meta(lambda m: m.update(geometry=[1, 16])),
    "short_row": _edit_diagnostics(lambda ls: ls[:1] + [",".join(ls[1].split(",")[:5])] + ls[2:]),
    "long_row": _edit_diagnostics(lambda ls: ls[:1] + [ls[1] + ",1.0"] + ls[2:]),
    "cell_not_number": _edit_diagnostics(lambda ls: ls[:1] + ["x" + ls[1]] + ls[2:]),
    "header_only": _edit_diagnostics(lambda ls: ls[:1]),
    "empty_diagnostics": _edit_diagnostics(lambda ls: []),
    "nan_cell": _edit_diagnostics(lambda ls: _set_cell(ls, 3, "minR", "nan")),
    "inf_cell_at_t0": _edit_diagnostics(lambda ls: _set_cell(ls, 1, "volume", "inf")),
    "flat_potential_on_other_grid": _replace_with_coarse_field(lambda d: "flat_potential.tkrf"),
    "snapshot_on_other_grid": _replace_with_coarse_field(lambda d: _snapshot_files(d)[0]),
    "snapshot_with_trailing_bytes": lambda d: (d / _snapshot_files(d)[0]).write_bytes(
        (d / _snapshot_files(d)[0]).read_bytes() + b"\x00" * 8),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_TRACES))
def test_trace_rejects_malformed_records(tmp_path, small_trace, name):
    d = save_trace(small_trace, tmp_path / "trace")
    MALFORMED_TRACES[name](d)
    with pytest.raises(FormatError):
        load_trace(d)


def test_trace_config_key_error_names_extra_and_missing_keys(tmp_path, small_trace):
    d = save_trace(small_trace, tmp_path / "trace")
    meta = json.loads((d / "meta.json").read_text())
    meta["config"].update(scheme="explicit", dealias=True)
    del meta["config"]["t_ramp"], meta["config"]["sigma"]
    (d / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError) as err:
        load_trace(d)
    assert str(err.value) == ("config keys are not FlowConfig's fields: extra ['dealias', "
                              "'scheme'], missing ['sigma', 't_ramp']")
