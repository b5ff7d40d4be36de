#!/usr/bin/env python3
"""Capture the correctness gate's reference outputs at the current commit.

    python3 perfbench/capture_reference.py 0-31 90 91

For every config and seed, one `torusflow run` into a fresh directory
must exit with 0 and pass all checks; its check verdicts, family.csv and
distance.csv files are written to reference/<config>/seed_<n>.json.
Check names and verdicts must agree across seeds; they are written once,
to reference/<config>/checks.json.
"""

import json
import shutil
import sys

import gate
import run


def parse_seeds(args) -> list:
    seeds = []
    for arg in args:
        lo, _, hi = arg.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv) -> int:
    seeds = parse_seeds(argv)
    work = run.WORK_ROOT / "capture"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for config_name, make in run.CONFIGS.items():
            verdicts = None
            for seed in seeds:
                config = work / "config.json"
                config.write_text(json.dumps(make(seed)))
                out = work / f"{config_name}-{seed}"
                rec = run.spawn(work, "capture", ["run", "--config", str(config), "--out",
                                                  str(out), "--jobs", "1"])
                problems = gate.check_manifest(out, rec["exit_code"])
                if problems:
                    print(f"{config_name} seed {seed}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                ref = gate.capture(out)
                if verdicts is not None and ref["checks"] != verdicts:
                    print(f"{config_name} seed {seed}: check names differ", file=sys.stderr)
                    return 1
                verdicts = ref.pop("checks")
                path = gate.reference_path(config_name, seed)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
                gate.reference_path(config_name).write_text(json.dumps(verdicts) + "\n")
                shutil.rmtree(out)
                print(f"{config_name} seed {seed}: captured ({rec['wall_s']:.1f} s)", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
