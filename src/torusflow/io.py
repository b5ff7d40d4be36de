"""Snapshot and trace persistence.

Binary field files: header = magic b"TKRF1" + three little-endian
uint32 (n, N, kind), then little-endian float64 payload in row-major
axis order.  Kind 0 is a scalar field (N^{2n} values); kind 1 is a
metric snapshot, which prepends a constant-matrix record for the
background H (n*n re/im pairs, row-major) to a scalar potential
payload.  The stored potential is the FULL one including its mean:
the metric ignores an additive constant but the potential bounds do
not, so round-trips must keep it.

A flow trace persists as a directory: meta.json (geometry, config,
matrices, snapshot table), one metric snapshot per stored time, the
flat-representative potential, the initial potential, and a per-step
diagnostics CSV with columns t, dt, minR, min_dotphi, max_dotphi,
mineig, volume.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .fields import ScalarField, TorusGeometry
from .flow import FlowConfig, FlowState, FlowTrace, StepDiagnostics, _rhs_field
from .geometry import FlatMetric, KahlerMetric

__all__ = [
    "FormatError",
    "save_field",
    "load_field",
    "save_metric_snapshot",
    "load_metric_snapshot",
    "save_trace",
    "load_trace",
    "write_json_atomic",
    "write_csv_atomic",
    "write_bytes_atomic",
]

MAGIC = b"TKRF1"
KIND_SCALAR = 0
KIND_METRIC = 1

# one column per StepDiagnostics field, in field order
DIAG_COLUMNS = ("t", "dt", "minR", "min_dotphi", "max_dotphi", "mineig", "volume")
_DIAG_FIELDS = tuple(f.name for f in dataclasses.fields(StepDiagnostics))
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(FlowConfig))


class FormatError(ValueError):
    pass


def _header(n: int, N: int, kind: int) -> bytes:
    return MAGIC + struct.pack("<III", n, N, kind)


def _read_header(buf) -> tuple:
    head = buf.read(len(MAGIC) + 12)
    if len(head) != len(MAGIC) + 12 or head[: len(MAGIC)] != MAGIC:
        raise FormatError("not a field snapshot (bad magic)")
    n, N, kind = struct.unpack("<III", head[len(MAGIC):])
    if kind not in (KIND_SCALAR, KIND_METRIC):
        raise FormatError(f"unknown field kind {kind}")
    return n, N, kind


def _matrix_bytes(H: np.ndarray) -> bytes:
    flat = np.asarray(H, dtype=np.complex128).ravel()
    pairs = np.empty(2 * flat.size, dtype="<f8")
    pairs[0::2] = flat.real
    pairs[1::2] = flat.imag
    return pairs.tobytes()


def _read_matrix(buf, n: int) -> np.ndarray:
    raw = buf.read(16 * n * n)
    if len(raw) != 16 * n * n:
        raise FormatError("truncated matrix record")
    pairs = np.frombuffer(raw, dtype="<f8")
    return (pairs[0::2] + 1j * pairs[1::2]).reshape(n, n)


def _payload_bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def _read_payload(buf, geo: TorusGeometry) -> np.ndarray:
    count = geo.npoints
    raw = buf.read(8 * count)
    if len(raw) != 8 * count:
        raise FormatError("truncated field payload")
    return np.frombuffer(raw, dtype="<f8").reshape(geo.shape).copy()


def save_field(field: ScalarField, path) -> None:
    geo = field.geometry
    data = _header(geo.n, geo.N, KIND_SCALAR) + _payload_bytes(field.values)
    write_bytes_atomic(path, data)


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        n, N, kind = _read_header(fh)
        if kind != KIND_SCALAR:
            raise FormatError(f"expected a scalar field, found kind {kind}")
        geo = TorusGeometry(n=n, N=N)
        return ScalarField(geo, _read_payload(fh, geo))


def save_metric_snapshot(H: np.ndarray, phi: ScalarField, path) -> None:
    """H + the full potential (mean kept); coefficients are H + d dbar phi."""
    geo = phi.geometry
    n = geo.n
    H = np.asarray(H, dtype=np.complex128)
    if H.shape != (n, n):
        raise FormatError(f"H must be {n}x{n}, got {H.shape}")
    data = _header(n, geo.N, KIND_METRIC) + _matrix_bytes(H) + _payload_bytes(phi.values)
    write_bytes_atomic(path, data)


def load_metric_snapshot(path) -> tuple:
    """Returns (H, phi) with phi's mean preserved (no gauge applied)."""
    with open(path, "rb") as fh:
        n, N, kind = _read_header(fh)
        if kind != KIND_METRIC:
            raise FormatError(f"expected a metric snapshot, found kind {kind}")
        geo = TorusGeometry(n=n, N=N)
        H = _read_matrix(fh, n)
        phi = ScalarField(geo, _read_payload(fh, geo))
        return H, phi


# ---------------------------------------------------------------------------
# atomic writers


def write_bytes_atomic(path, data: bytes) -> None:
    """Write through a unique temp file in the target directory, then rename."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            # mkstemp creates the file owner-only; give it the usual umask mode
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json_atomic(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    write_bytes_atomic(path, (text + "\n").encode("utf-8"))


def write_csv_atomic(path, header, rows) -> None:
    sink = _io.StringIO()
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    write_bytes_atomic(path, sink.getvalue().encode("utf-8"))


# ---------------------------------------------------------------------------
# flow traces


def _matrix_json(H: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(H)]


def _matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def _config_json(config: FlowConfig) -> dict:
    out = {name: getattr(config, name) for name in _CONFIG_FIELDS}
    out["snapshot_times"] = list(config.snapshot_times)
    return out


def _config_from_json(d: dict) -> FlowConfig:
    # FlowConfig turns the snapshot list back into a sorted tuple
    return FlowConfig(**{name: d[name] for name in _CONFIG_FIELDS})


def _snap_name(t: float) -> str:
    return f"snapshot_t{t:.6f}.tkrf"


def save_trace(trace: FlowTrace, directory) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    geo = trace.initial.geometry
    save_field(trace.initial.phi, d / "initial_potential.tkrf")
    save_field(trace.flat_potential, d / "flat_potential.tkrf")

    snap_table = []
    for s in trace.snapshots:
        name = _snap_name(s.t)
        total = trace.initial.phi + s.phi_osc + s.phi_mean
        save_metric_snapshot(trace.initial.H, total, d / name)
        snap_table.append({"t": s.t, "last_dt": s.last_dt, "file": name})
    final_total = trace.initial.phi + trace.final.phi_osc + trace.final.phi_mean
    save_metric_snapshot(trace.initial.H, final_total, d / "final.tkrf")

    write_csv_atomic(
        d / "diagnostics.csv",
        DIAG_COLUMNS,
        [[repr(getattr(row, name)) for name in _DIAG_FIELDS] for row in trace.diagnostics],
    )

    meta = {
        "format": "torusflow-trace-1",
        "geometry": {"n": geo.n, "N": geo.N},
        "config": _config_json(trace.config),
        "H0": _matrix_json(trace.initial.H),
        "H_alpha": _matrix_json(trace.alpha.H),
        "snapshots": snap_table,
        "final": {"t": trace.final.t, "last_dt": trace.final.last_dt, "file": "final.tkrf"},
        "files": {
            "initial_potential": "initial_potential.tkrf",
            "flat_potential": "flat_potential.tkrf",
            "diagnostics": "diagnostics.csv",
        },
    }
    write_json_atomic(d / "meta.json", meta)  # manifest written last
    return d


def _entry(d: Path, record) -> tuple:
    """(path, t, last_dt) of a snapshot record in meta.json."""
    return d / record["file"], float(record["t"]), float(record["last_dt"])


def _state_from_file(entry: tuple, base: KahlerMetric,
                     alpha: FlatMetric, config: FlowConfig) -> FlowState:
    path, t, last_dt = entry
    H, total = load_metric_snapshot(path)
    geo = base.geometry
    if not np.allclose(H, base.H, rtol=0.0, atol=1e-12):
        raise FormatError("snapshot background differs from trace background")
    flow_phi = total.values - base.phi.values
    mean = float(flow_phi.mean())
    phi_osc = ScalarField(geo, flow_phi - mean)
    metric = KahlerMetric(base.H, base.phi + phi_osc)  # the state's metric()
    return FlowState(
        base=base,
        t=t,
        phi_osc=phi_osc,
        phi_mean=mean,
        dot_phi=_rhs_field(metric, alpha, config),
        last_dt=last_dt,
    )


def _read_diagnostics(path: Path) -> tuple:
    """StepDiagnostics rows of a diagnostics CSV; a trace has at least the
    row of t = 0."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != DIAG_COLUMNS:
        raise FormatError(f"diagnostics columns {rows[0] if rows else []} != {list(DIAG_COLUMNS)}")
    if len(rows) < 2:
        raise FormatError("diagnostics file has no step rows")
    out = []
    for line, row in enumerate(rows[1:], 2):
        try:
            if len(row) != len(DIAG_COLUMNS):
                raise ValueError(f"{len(row)} cells, expected {len(DIAG_COLUMNS)}")
            out.append(StepDiagnostics(*map(float, row)))
        except ValueError as exc:
            raise FormatError(f"diagnostics line {line}: {exc}") from exc
    return tuple(out)


def load_trace(directory) -> FlowTrace:
    """Read a trace written by save_trace.  Raises FormatError when
    meta.json is not a torusflow-trace-1 record with every key and type
    save_trace writes, or when the diagnostics file has no rows or a row
    of the wrong length."""
    d = Path(directory)
    try:
        meta = json.loads((d / "meta.json").read_text())
        if meta.get("format") != "torusflow-trace-1":
            raise FormatError(f"unrecognized trace format {meta.get('format')!r}")
        config = _config_from_json(meta["config"])
        H0 = _matrix_from_json(meta["H0"])
        H_alpha = _matrix_from_json(meta["H_alpha"])
        shape = (meta["geometry"]["n"], meta["geometry"]["N"])
        files = {key: d / meta["files"][key]
                 for key in ("initial_potential", "flat_potential", "diagnostics")}
        entries = [_entry(d, record) for record in meta["snapshots"]]
        final_entry = _entry(d, meta["final"])
    except FormatError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise FormatError(f"malformed meta.json: {type(exc).__name__}: {exc}") from exc
    init_phi = load_field(files["initial_potential"])
    geo = init_phi.geometry
    if (geo.n, geo.N) != shape:
        raise FormatError("geometry record disagrees with stored fields")
    base = KahlerMetric(H0, init_phi)
    alpha = FlatMetric(H_alpha, geometry=geo)
    return FlowTrace(
        initial=base,
        alpha=alpha,
        flat_potential=load_field(files["flat_potential"]),
        config=config,
        snapshots=tuple(_state_from_file(e, base, alpha, config) for e in entries),
        diagnostics=_read_diagnostics(files["diagnostics"]),
        final=_state_from_file(final_entry, base, alpha, config),
    )
