#!/usr/bin/env python3
"""Record one benchmark run as BENCH_<pr>.json at the repository root.

    python3 tools/bench_record.py 9

Runs `python3 perfbench/run.py --seed 90 --trace 1` (all three
workloads, about three minutes on a 2-core host) and keeps:

- env: perfbench's env line (Python, numpy and scipy versions, CPU
  count, BLAS, source digest, load);
- git: the commit perfbench saw, and whether ./src differs from it
  (a file recorded before its change is committed names the parent);
- result: the error counts, the scaled end-to-end medians of every
  workload (from its report block), each workload's host_scale (the
  host-probe factor its raw end-to-end times were multiplied by) and
  every per-layer metric (from the result line).  Per-layer seconds
  stay raw; multiplied by their workload's host_scale they are scaled as
  the medians are, so two files compare code rather than host speed.

Every speed claim quotes its before/after numbers from these files.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ["python3", "perfbench/run.py", "--seed", "90", "--trace", "1"]

_WORKLOAD = re.compile(r"^== (\S+) \(")
_METRIC = re.compile(r"^  (\S+) (\S+) (\S+) \(")
_SCALE = re.compile(r"^  host probe .*; times are scaled by .* = (\S+)$")


def parse(stdout: str, end_to_end_names) -> dict:
    """env, per-workload end-to-end medians and the result line of one
    run.py output."""
    lines = stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines if line.startswith("env "))
    result = json.loads(lines[-1])
    e2e: dict = {}
    scale: dict = {}
    workload = None
    for line in lines:
        if m := _WORKLOAD.match(line):
            workload = m.group(1)
            e2e.setdefault(workload, {})
        elif workload is None:
            continue
        elif m := _SCALE.match(line):
            scale[workload] = float(m.group(1))
        elif (m := _METRIC.match(line)) and m.group(1) in end_to_end_names:
            e2e[workload][m.group(1)] = {"value": float(m.group(2)), "unit": m.group(3)}
    return {
        "env": env,
        "result": {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "end_to_end": e2e,
            "host_scale": scale,
            "per_layer": result["metrics"],
        },
    }


def record(pr: int, root: Path = ROOT) -> Path:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(COMMAND, cwd=root, capture_output=True, text=True, check=True)
    out = parse(proc.stdout, {m["name"] for m in spec["end_to_end"]})
    src_changed = subprocess.run(["git", "diff", "--quiet", "HEAD", "--", "src"],
                                 cwd=root).returncode != 0
    doc = {
        "pr": pr,
        "command": " ".join(COMMAND),
        "env": out["env"],
        "git": {"commit": out["env"].get("git_commit"), "src_differs_from_commit": src_changed},
        "result": out["result"],
    }
    path = root / f"BENCH_{pr}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pr", type=int, help="number of the change, names BENCH_<pr>.json")
    args = parser.parse_args(argv)
    print(record(args.pr))
    return 0


if __name__ == "__main__":
    sys.exit(main())
