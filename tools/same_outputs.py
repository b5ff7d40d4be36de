#!/usr/bin/env python3
"""Check that two checkouts write the same outputs for the benchmark's commands.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR 0-23 90 91

For every seed it runs the benchmark's commands (perfbench/run.py's
WORKLOADS over its CONFIGS, from tools/gate_refs.py) in each checkout:
one `torusflow run` per config, plus a `torusflow check` on the n2-N16
run's output.  Each side runs with its own src on PYTHONPATH and one
BLAS thread, into a temporary directory.  A command is identical when
both sides exit with the same code, print the same standard output once
the output path is masked, and leave run directories with the same files,
each byte-identical but manifest.json.  The manifests are compared as
JSON without the entries that change from run to run or name the
libraries that ran (VOLATILE), and with the output root masked in their
paths; the rest must be equal: the verdicts, the family summary and the
scenario rows, whose amplitudes, curvature floors and volumes `check`
rebuilds the family from.  Each difference is printed with its path,
then one "N of M commands identical" line; the exit code is 1 on any
difference.
A checkout without src/torusflow/cli.py is refused (exit code 2) before
anything runs.  No file under perfbench/ is written.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from capture_reference import parse_seeds  # noqa: E402

sys.path.insert(0, str(ROOT / "tools"))
from gate_refs import benchmark_commands  # noqa: E402

SIDES = ("parent", "change")
MANIFEST = "manifest.json"
# manifest entries that differ from run to run, or name the libraries that ran
VOLATILE = ("timings", "minor_faults", "peak_rss_mb", "libraries")


def run_command(checkout: Path, command: str, config: Path, out: Path) -> tuple:
    """(exit code, standard output with the output path masked) of one
    command run with the checkout's own source."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    env.update({var: "1" for var in run.THREAD_VARS})
    proc = subprocess.run(
        [sys.executable, "-m", "torusflow.cli", command, "--config", str(config),
         "--out", str(out), "--jobs", "1"],
        env=env, cwd=out.parent, capture_output=True, text=True,
    )
    return proc.returncode, proc.stdout.replace(str(out), "<out>")


def manifest_view(root: Path) -> dict:
    """root's manifest without its VOLATILE entries, with root masked in the
    paths of its outputs and scenario rows."""
    manifest = json.loads((root / MANIFEST).read_text(encoding="utf-8"))
    for key in VOLATILE:
        manifest.pop(key, None)

    def mask(path: str) -> str:
        return path.replace(str(root), "<out>", 1)

    manifest["outputs"] = [mask(p) for p in manifest.get("outputs", [])]
    for row in manifest.get("scenarios", []):
        for key in ("trace_dir", "report"):
            if key in row:
                row[key] = mask(row[key])
    return manifest


def tree_differences(a: Path, b: Path) -> list:
    """Paths, relative to the two roots, of the files that only one tree has
    or whose bytes differ, and the top-level manifest entries that differ."""
    def files(root: Path) -> set:
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}

    in_a, in_b = files(a), files(b)
    out = [f"{rel}: only in {'parent' if rel in in_a else 'change'}"
           for rel in sorted(in_a ^ in_b)]
    out += [f"{rel}: bytes differ" for rel in sorted(in_a & in_b - {MANIFEST})
            if (a / rel).read_bytes() != (b / rel).read_bytes()]
    if MANIFEST in in_a & in_b:
        view_a, view_b = manifest_view(a), manifest_view(b)
        out += [f"{MANIFEST}: {key} differs" for key in sorted(view_a.keys() | view_b.keys())
                if view_a.get(key) != view_b.get(key)]
    return out


def command_differences(results: dict, outs: dict) -> list:
    """Differences between the two sides' (exit code, stdout) and run directories."""
    (code_a, text_a), (code_b, text_b) = (results[side] for side in SIDES)
    out = []
    if code_a != code_b:
        out.append(f"exit code {code_a} against {code_b}")
    if text_a != text_b:
        out.append("standard output differs")
    return out + tree_differences(*(outs[side] for side in SIDES))


def main(argv) -> int:
    if len(argv) < 3:
        print("usage: same_outputs.py PARENT_DIR CHANGE_DIR SEED...", file=sys.stderr)
        return 2
    checkouts = dict(zip(SIDES, (Path(a).resolve() for a in argv[:2])))
    missing = [str(d) for d in checkouts.values()
               if not (d / "src" / "torusflow" / "cli.py").is_file()]
    if missing:
        print(f"no src/torusflow/cli.py under {', '.join(missing)}", file=sys.stderr)
        return 2
    seeds = parse_seeds(argv[2:])
    work = Path(tempfile.mkdtemp(prefix="same_outputs."))
    identical = total = 0
    try:
        for seed, workload, config_name, command, config in benchmark_commands(work, seeds):
            outs = {side: config.parent / side / config_name for side in SIDES}
            for out in outs.values():
                out.parent.mkdir(exist_ok=True)
            results = {side: run_command(checkouts[side], command, config, outs[side])
                       for side in SIDES}
            total += 1
            problems = command_differences(results, outs)
            for problem in problems:
                print(f"{workload} seed {seed}: {problem}", flush=True)
            identical += not problems
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{identical} of {total} commands identical")
    return 0 if identical == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
