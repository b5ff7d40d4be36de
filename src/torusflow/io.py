"""Snapshot and trace persistence.

Binary field files: header = magic b"TKRF1" + three little-endian
uint32 (n, N, kind), then the N^{2n} values as little-endian float64 in
row-major axis order, and nothing after them.  Kind 0, a scalar field,
is the only kind.  The stored field is the FULL one including its mean:
the metric ignores an additive constant but the potential bounds do
not, so round-trips must keep it.

A flow trace persists as a directory: meta.json (format
torusflow-trace-2: geometry, config, the background and flat matrices
as [re, im] pairs, snapshot table of {t, file} records), one field file
per configured snapshot time holding that state's flow potential phi,
the flat-representative potential, the initial potential, and a
per-step diagnostics CSV with columns t, dt, minR, min_dotphi,
max_dotphi, mineig, volume, every cell finite.  The final state is the
snapshot at t_end, the last one, and is not stored again.  A trace of
any other format is not read.  Loading recomputes nothing: a reader
derives d phi/dt from a state's assembled metric, as harness.measure does.
"""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import json
import math
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .fields import ScalarField, TorusGeometry
from .flow import FlowConfig, FlowState, FlowTrace, StepDiagnostics, _same_time
from .geometry import FlatMetric, KahlerMetric

__all__ = [
    "FormatError",
    "save_field",
    "load_field",
    "save_trace",
    "load_trace",
    "write_json_atomic",
    "write_csv_atomic",
    "write_bytes_atomic",
]

MAGIC = b"TKRF1"
KIND_SCALAR = 0
TRACE_FORMAT = "torusflow-trace-2"

# one column per StepDiagnostics field, in field order
DIAG_COLUMNS = ("t", "dt", "minR", "min_dotphi", "max_dotphi", "mineig", "volume")
_DIAG_FIELDS = tuple(f.name for f in dataclasses.fields(StepDiagnostics))
_CONFIG_FIELDS = tuple(f.name for f in dataclasses.fields(FlowConfig))


class FormatError(ValueError):
    pass


def save_field(field: ScalarField, path) -> None:
    geo = field.geometry
    header = MAGIC + struct.pack("<III", geo.n, geo.N, KIND_SCALAR)
    write_bytes_atomic(path, header + np.ascontiguousarray(field.values, dtype="<f8").tobytes())


def load_field(path) -> ScalarField:
    with open(path, "rb") as fh:
        head = fh.read(len(MAGIC) + 12)
        if len(head) != len(MAGIC) + 12 or head[: len(MAGIC)] != MAGIC:
            raise FormatError("not a field snapshot (bad magic)")
        n, N, kind = struct.unpack("<III", head[len(MAGIC):])
        if kind != KIND_SCALAR:
            raise FormatError(f"expected a scalar field, found kind {kind}")
        geo = TorusGeometry(n=n, N=N)
        # the header's payload against the file's, before any read of it
        size, payload = os.fstat(fh.fileno()).st_size - len(head), 8 * geo.npoints
        if size != payload:
            raise FormatError(f"header n={n}, N={N} promises a {payload}-byte payload, the file "
                              f"holds {size} bytes: truncated, or bytes after the field payload")
        raw = fh.read(payload)
    return ScalarField(geo, np.frombuffer(raw, dtype="<f8").reshape(geo.shape).copy())


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
    # FlowConfig turns the snapshot list back into its normalized tuple
    return FlowConfig(**{name: d[name] for name in _CONFIG_FIELDS})


def _snap_name(t: float) -> str:
    return f"snapshot_t{t!r}.tkrf"  # repr is unique per float, so no two times share a file


def save_trace(trace: FlowTrace, directory) -> Path:
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    geo = trace.initial.geometry
    save_field(trace.initial.phi, d / "initial_potential.tkrf")
    save_field(trace.flat_potential, d / "flat_potential.tkrf")

    snap_table = []
    for s in trace.snapshots:
        name = _snap_name(s.t)
        save_field(s.phi, d / name)
        snap_table.append({"t": s.t, "file": name})

    write_csv_atomic(
        d / "diagnostics.csv",
        DIAG_COLUMNS,
        [[repr(getattr(row, name)) for name in _DIAG_FIELDS] for row in trace.diagnostics],
    )

    meta = {
        "format": TRACE_FORMAT,
        "geometry": {"n": geo.n, "N": geo.N},
        "config": _config_json(trace.config),
        "H0": _matrix_json(trace.initial.H),
        "H_alpha": _matrix_json(trace.alpha.H),
        "snapshots": snap_table,
        "files": {
            "initial_potential": "initial_potential.tkrf",
            "flat_potential": "flat_potential.tkrf",
            "diagnostics": "diagnostics.csv",
        },
    }
    write_json_atomic(d / "meta.json", meta)  # manifest written last
    named = {r["file"] for r in snap_table}
    for path in d.glob("snapshot_t*.tkrf"):  # files of a trace this one replaced
        if path.name not in named:
            path.unlink()
    return d


def _entry(d: Path, record) -> tuple:
    """(path, t) of a snapshot record in meta.json."""
    return d / record["file"], float(record["t"])


def _field_on(path: Path, geo: TorusGeometry) -> ScalarField:
    field = load_field(path)
    if field.geometry != geo:
        raise FormatError(f"{path.name} is not on the initial potential's grid")
    return field


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
            values = [float(cell) for cell in row]
            bad = [name for name, v in zip(DIAG_COLUMNS, values) if not math.isfinite(v)]
            if bad:
                raise ValueError(f"non-finite {', '.join(bad)}")
            out.append(StepDiagnostics(*values))
        except ValueError as exc:
            raise FormatError(f"diagnostics line {line}: {exc}") from exc
    return tuple(out)


def load_trace(directory) -> FlowTrace:
    """Read a trace written by save_trace.  Raises FormatError when
    meta.json is not a torusflow-trace-2 record with every key and type
    save_trace writes, when its snapshot table does not hold one entry
    per configured snapshot time in order, each in its own file, when a
    field file is not on the initial potential's grid, or when the
    diagnostics file has no rows, a row of the wrong length or a
    non-finite cell."""
    d = Path(directory)
    try:
        meta = json.loads((d / "meta.json").read_text())
        if meta.get("format") != TRACE_FORMAT:
            raise FormatError(f"unrecognized trace format {meta.get('format')!r}")
        config = _config_from_json(meta["config"])
        H0 = _matrix_from_json(meta["H0"])
        H_alpha = _matrix_from_json(meta["H_alpha"])
        shape = (meta["geometry"]["n"], meta["geometry"]["N"])
        files = {key: d / meta["files"][key]
                 for key in ("initial_potential", "flat_potential", "diagnostics")}
        entries = [_entry(d, record) for record in meta["snapshots"]]
    except FormatError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        # RecursionError: JSON nested too deep to parse
        raise FormatError(f"malformed meta.json: {type(exc).__name__}: {exc}") from exc
    if len({path for path, _ in entries}) != len(entries):
        raise FormatError(f"two snapshot records name one file: {[p.name for p, _ in entries]}")
    stored = [t for _, t in entries]
    if len(stored) != len(config.snapshot_times) or not all(
        map(_same_time, stored, config.snapshot_times)
    ):
        raise FormatError(f"stored snapshot times {stored} are not the configured "
                          f"{list(config.snapshot_times)}")
    init_phi = load_field(files["initial_potential"])
    geo = init_phi.geometry
    if (geo.n, geo.N) != shape:
        raise FormatError("geometry record disagrees with stored fields")
    base = KahlerMetric(H0, init_phi)
    return FlowTrace(
        initial=base,
        alpha=FlatMetric(H_alpha, geometry=geo),
        flat_potential=_field_on(files["flat_potential"], geo),
        config=config,
        snapshots=tuple(FlowState(base, t, _field_on(path, geo)) for path, t in entries),
        diagnostics=_read_diagnostics(files["diagnostics"]),
    )
