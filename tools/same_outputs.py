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
each byte-identical, apart from manifest.json (it holds timings and
paths).  Each difference is printed with its path, then one
"N of M commands identical" line; the exit code is 1 on any difference.
A checkout without src/torusflow/cli.py is refused (exit code 2) before
anything runs.  No file under perfbench/ is written.
"""

from __future__ import annotations

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
SKIPPED = {"manifest.json"}  # timings and paths differ from run to run


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


def tree_differences(a: Path, b: Path) -> list:
    """Paths, relative to the two roots, of the files apart from SKIPPED
    that only one tree has or whose bytes differ."""
    def files(root: Path) -> set:
        return {p.relative_to(root).as_posix() for p in root.rglob("*")
                if p.is_file() and p.relative_to(root).as_posix() not in SKIPPED}

    in_a, in_b = files(a), files(b)
    out = [f"{rel}: only in {'parent' if rel in in_a else 'change'}"
           for rel in sorted(in_a ^ in_b)]
    out += [f"{rel}: bytes differ" for rel in sorted(in_a & in_b)
            if (a / rel).read_bytes() != (b / rel).read_bytes()]
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
