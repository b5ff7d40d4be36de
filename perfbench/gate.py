"""Correctness gate for one repetition's output directory.

A repetition passes when the CLI exited with 0, every scenario row is
`ok`, `all_checks_pass` holds, each scenario's check names and verdicts
equal the captured reference, and the numbers in family.csv and every
distance.csv equal the reference to rounding level (RTOL, ATOL).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from pathlib import Path

RTOL = 1e-8
ATOL = 1e-11

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(label: str, got: str, want: str) -> list:
    """Cell-by-cell comparison; numeric cells within RTOL/ATOL."""
    a, b = _rows(got), _rows(want)
    if len(a) != len(b):
        return [f"{label}: {len(a)} rows, reference has {len(b)}"]
    for r, (ra, rb) in enumerate(zip(a, b)):
        if len(ra) != len(rb):
            return [f"{label} row {r}: {len(ra)} cells, reference has {len(rb)}"]
        for c, (x, y) in enumerate(zip(ra, rb)):
            fx, fy = _number(x), _number(y)
            if fx is None or fy is None or r == 0:
                if x != y:
                    return [f"{label} row {r} col {c}: {x!r} != reference {y!r}"]
            elif not math.isclose(fx, fy, rel_tol=RTOL, abs_tol=ATOL):
                return [f"{label} row {r} col {c}: {x} != reference {y}"]
    return []


def scenario_dirs(out: Path) -> list:
    return sorted(p for p in out.glob("scenario_i*") if p.is_dir())


def capture(out: Path) -> dict:
    """What the gate compares, read from one output directory."""
    checks, distance = {}, {}
    for sdir in scenario_dirs(out):
        rows = _rows((sdir / "checks.csv").read_text())[1:]
        checks[sdir.name] = [[row[0], row[3]] for row in rows]
        if (sdir / "distance.csv").exists():
            distance[sdir.name] = (sdir / "distance.csv").read_text()
    return {"checks": checks, "family_csv": (out / "family.csv").read_text(),
            "distance_csv": distance}


def reference_path(config_name: str, seed=None) -> Path:
    """Per-seed numbers, or with seed None the seed-independent verdicts."""
    name = "checks.json" if seed is None else f"seed_{seed}.json"
    return REFERENCE_DIR / config_name / name


def load_reference(config_name: str, seed: int) -> dict:
    """Committed verdicts plus, when captured for this seed, the numbers."""
    ref = {"checks": json.loads(reference_path(config_name).read_text())}
    path = reference_path(config_name, seed)
    if path.exists():
        ref.update(json.loads(path.read_text()))
    return ref


def check_manifest(out: Path, exit_code: int) -> list:
    """Exit code, scenario rows and overall verdict of one repetition."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    manifest_path = out / "manifest.json"
    if not manifest_path.exists():
        return problems + ["no manifest.json"]
    manifest = json.loads(manifest_path.read_text())
    bad = [row for row in manifest["scenarios"] if row["status"] != "ok"]
    if bad:
        problems.append(f"scenario rows not ok: {[row.get('error') for row in bad]}")
    if not manifest["all_checks_pass"]:
        problems.append("all_checks_pass is false")
    return problems


def compare(got: dict, reference: dict) -> list:
    """Artifacts captured from one repetition against the reference."""
    problems = []
    if got["checks"] != reference["checks"]:
        problems.append("check names or verdicts differ from the reference")
    problems += compare_csv("family.csv", got["family_csv"], reference["family_csv"])
    if sorted(got["distance_csv"]) != sorted(reference["distance_csv"]):
        problems.append("distance.csv files differ from the reference set")
    else:
        for name, text in sorted(got["distance_csv"].items()):
            problems += compare_csv(f"{name}/distance.csv", text, reference["distance_csv"][name])
    return problems


def trace_digest(out: Path) -> str:
    """Content and mtime digest of every persisted trace and trace key."""
    h = hashlib.sha256()
    for sdir in scenario_dirs(out):
        for path in sorted([sdir / "trace_key.txt", *(sdir / "trace").iterdir()]):
            h.update(path.name.encode())
            h.update(str(path.stat().st_mtime_ns).encode())
            h.update(path.read_bytes())
    return h.hexdigest()
