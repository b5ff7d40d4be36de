#!/usr/bin/env python3
"""Check the current source against the committed correctness references.

    python3 tools/gate_refs.py 0-23 90 91

For every seed it runs the benchmark's commands (perfbench/run.py's
WORKLOADS): one `torusflow run` per config, plus a `torusflow check` on
the n2-N16 run's output, each spawned as the benchmark spawns a
repetition.  Every command must pass gate.check_manifest and gate.compare
against perfbench/reference/<config>/seed_<n>.json, and a check must
leave the persisted traces as it found them.  Each failure is printed,
then one "N of M commands pass the gate" line; the exit code is 1 on
any failure.  A seed without a committed reference for every config is
refused (exit code 2) before anything runs.  The outputs go to a
temporary directory; no file under perfbench/ is changed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import gate  # noqa: E402
import run  # noqa: E402
from capture_reference import parse_seeds  # noqa: E402


def benchmark_commands(work: Path, seeds):
    """Every benchmark command, seed by seed in WORKLOADS order:
    (seed, workload, config name, command, config file).  Each seed's
    configs are written into a directory of their own under work, where
    the commands put their outputs; it is removed once the seed's last
    command is done."""
    for seed in seeds:
        seed_dir = work / f"seed_{seed}"
        seed_dir.mkdir()
        for workload, (config_name, command) in run.WORKLOADS.items():
            config = seed_dir / f"{config_name}.json"
            config.write_text(json.dumps(run.CONFIGS[config_name](seed)))
            yield seed, workload, config_name, command, config
        shutil.rmtree(seed_dir, ignore_errors=True)


def command_problems(work: Path, tag: str, config: Path, command: str, out: Path,
                     reference: dict) -> list:
    """Gate problems of one spawned `run` or `check` command."""
    before = gate.trace_digest(out) if command == "check" else None
    rec = run.spawn(work, tag, [command, "--config", str(config), "--out", str(out),
                                "--jobs", "1"])
    problems = gate.check_manifest(out, rec["exit_code"])
    if not problems:
        try:
            problems = gate.compare(gate.capture(out), reference)
        except (OSError, IndexError) as exc:
            problems = [f"unreadable artifacts: {exc}"]
    if before is not None and gate.trace_digest(out) != before:
        problems.append("check changed the persisted traces")
    return problems


def main(argv) -> int:
    seeds = parse_seeds(argv)
    missing = [str(gate.reference_path(config_name, seed).relative_to(ROOT))
               for seed in seeds for config_name in run.CONFIGS
               if not gate.reference_path(config_name, seed).exists()]
    if not seeds or missing:
        print(f"no committed reference: {', '.join(missing) or 'no seeds given'}",
              file=sys.stderr)
        return 2
    work = Path(tempfile.mkdtemp(prefix="gate_refs."))
    passed = total = 0
    try:
        for seed, workload, config_name, command, config in benchmark_commands(work, seeds):
            total += 1
            problems = command_problems(work, f"{workload}-{seed}", config, command,
                                        config.parent / config_name,
                                        gate.load_reference(config_name, seed))
            if problems:
                print(f"{workload} seed {seed}: {'; '.join(problems)}", flush=True)
            else:
                passed += 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{passed} of {total} commands pass the gate")
    return 0 if passed == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
