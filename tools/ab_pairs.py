#!/usr/bin/env python3
"""Alternating benchmark runs on two checkouts, and the rule for a gain.

    python3 tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload flow-n2-N16 --pairs 10 --seed 90

Each pair runs the benchmark's command (BENCHMARK.json's `command`, with
`--workload W --seed S --seconds <run_seconds> --trace 0`) once in each
checkout: the parent first in even pairs, the change first in odd ones.
Each run's result line gives one value per end-to-end metric.  For every
end-to-end metric of BENCHMARK.json the script prints each side's median
and quartiles over the pairs, the pairs the change won (ties count for
neither side), and whether a gain holds: the change wins at least nine
tenths of the pairs, and the medians differ in its favour by more than
the distance between the parent's quartiles.  It also prints each side's
failed and attempted child processes.

Both sides share one bytecode cache of the script's own: every child
runs with PYTHONPYCACHEPREFIX set to a temporary directory, empty at the
start and removed at exit, with bytecode writing on.  Neither side reads
a checkout's __pycache__, warm or cold, and each module is compiled once,
by the first child that imports it.  Writing stays on because a cache
that is never written makes every child compile numpy and scipy from
source: on a 2-core host the host probe then takes about 2.5 s in place
of 0.75 s, and run.py's host-speed scale, taken from the probe, shrinks
every time metric about threefold.  It edits no file in either checkout;
run.py makes and removes its own work directory in each checkout as in
any run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def summarize(parent: list, change: list, better: str) -> dict:
    """Quartiles (q1, median, q3) of each side, the change's wins over the
    pairs (parent[i], change[i]), and whether the gain rule holds."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change, strict=True))
    q_parent = statistics.quantiles(parent, n=4, method="inclusive")
    q_change = statistics.quantiles(change, n=4, method="inclusive")
    gap = sign * (q_parent[1] - q_change[1])
    return {
        "parent": tuple(q_parent),
        "change": tuple(q_change),
        "wins": wins,
        "pairs": len(parent),
        "holds": 10 * wins >= 9 * len(parent) and gap > q_parent[2] - q_parent[0],
    }


def run_once(checkout: Path, command: list, env: dict) -> dict:
    """The result line of one benchmark run in a checkout."""
    proc = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def report(end_to_end: list, runs: dict) -> list:
    """Lines for each end-to-end metric and each side's failure counts."""
    lines = []
    for metric in end_to_end:
        name = metric["name"]
        s = summarize(*([r["metrics"][name]["value"] for r in runs[side]] for side in SIDES),
                      metric["better"])
        sides = "; ".join(f"{side} median {s[side][1]:.6g} [{s[side][0]:.6g}, {s[side][2]:.6g}]"
                          for side in SIDES)
        lines.append(f"{name} ({metric['unit']}, {metric['better']} is better): {sides}; "
                     f"change wins {s['wins']}/{s['pairs']}; gain holds: "
                     f"{'yes' if s['holds'] else 'no'}")
    counts = ", ".join(f"{side} {sum(r['failed'] for r in runs[side])}/"
                       f"{sum(r['attempted'] for r in runs[side])}" for side in SIDES)
    lines.append(f"failed/attempted child processes: {counts}")
    return lines


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=90)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent, "change": args.change}
    missing = [str(d) for d in checkouts.values() if not (d / "perfbench" / "run.py").is_file()]
    if missing:
        print(f"no perfbench/run.py under {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    command = spec["command"] + ["--workload", args.workload, "--seed", str(args.seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    runs = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_pycache_") as cache:
        env = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        for i in range(args.pairs):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                runs[side].append(run_once(checkouts[side], command, env))
                values = {k: round(v["value"], 4) for k, v in runs[side][-1]["metrics"].items()}
                print(f"pair {i + 1} {side}: {values}", flush=True)
    print("\n".join(report(spec["end_to_end"], runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
