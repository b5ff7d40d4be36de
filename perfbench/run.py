#!/usr/bin/env python3
"""torusflow benchmark: the CLI as users run it, one process per repetition.

    python3 perfbench/run.py --workload flow-n2-N16 --seed 90 --seconds 25 --trace 0

Run from the repository root (the package is taken from ./src).  Each
workload is a closed loop with one client: the next `torusflow run` or
`torusflow check` process starts when the previous one has exited.  The
loop runs for --seconds and at least MIN_REPS repetitions; SETUP_PROBES
further processes stop right after set-up, so set-up time has enough
samples on the slow workloads too.  Every repetition passes the
correctness gate (gate.py) or counts as failed.

With --trace 1 one further repetition runs with wrappers around the
package's public functions (tracer.py) and the per-layer metrics come
from it.  Without --workload all three workloads run in turn.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where metrics are the
end-to-end medians (--trace 0) or the per-layer values (--trace 1).
`attempted` counts every child process started, `failed` those that
did not pass the gate, so error_rate = failed / attempted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import gate
import metrics
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = HERE / "_work"

# one BLAS/OpenMP thread per child and one child at a time, so that a
# repetition's threads do not compete with each other for the cores
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

DEFAULT_SEED = 90  # the acceptance suite's seed
MIN_REPS = 2
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0
# The host's speed switches between levels about 1.6x apart for minutes at
# a time, so a run's raw medians depend on when it ran.  probe.py, a fixed
# job that uses no torusflow code, runs before the first repetition and
# after every one; the time metrics are scaled by PROBE_NOMINAL_S / (median
# probe time of the run), i.e. to a host on which the probe takes
# PROBE_NOMINAL_S.
PROBE_NOMINAL_S = 0.4
RUN_BUDGET_S = 165.0  # no repetition starts that would end the run later

CONFIGS = {
    "dist-n1-N64": lambda seed: {
        "geometry": {"n": 1, "N": 64},
        "scenario": {"indices": [1, 4, 16, 64], "seed": seed, "p": "inf"},
        "distance": {"enabled": True},
    },
    "n2-N16": lambda seed: {
        "geometry": {"n": 2, "N": 16},
        "scenario": {"indices": [1, 4, 16], "max_mode": 2, "seed": seed},
    },
}

# workload -> (config name, CLI command)
WORKLOADS = {
    "dist-n1-N64": ("dist-n1-N64", "run"),
    "flow-n2-N16": ("n2-N16", "run"),
    "check-n2-N16": ("n2-N16", "check"),
}


def child_env(setup_only: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("PERFBENCH_SETUP_ONLY", None)
    if setup_only:
        env["PERFBENCH_SETUP_ONLY"] = "1"
    return env


def probe_host() -> float:
    """Seconds from spawn to exit of one probe.py process."""
    env = child_env(False)
    del env["PYTHONPATH"]  # without ./src on its path the probe cannot use torusflow
    t0 = time.monotonic()
    subprocess.run([sys.executable, str(HERE / "probe.py")], env=env, cwd=HERE,
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.monotonic() - t0


def spawn(work: Path, tag: str, cli_args: list, traced: bool = False,
          setup_only: bool = False) -> dict:
    """Run child.py once; returns its record plus wall_s, peak_rss_mb, exit_code."""
    record_path = work / f"{tag}.record.json"
    env = child_env(setup_only)
    argv = [sys.executable, str(HERE / "child.py"), str(record_path),
            "1" if traced else "0", *cli_args]
    with open(work / f"{tag}.log", "w") as log:
        t0 = time.monotonic()
        env["PERFBENCH_SPAWN_T"] = repr(t0)
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    record.update(
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=proc.returncode,
    )
    return record


class Workload:
    """One workload at one seed: inputs, references, repetitions."""

    def __init__(self, name: str, seed: int, work: Path):
        self.config_name, self.command = WORKLOADS[name]
        self.seed = seed
        self.work = work
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(CONFIGS[self.config_name](seed), indent=2))
        self.reference = gate.load_reference(self.config_name, seed)
        self.reference_note = f"committed reference for seed {seed}"
        self.prepared = work / "prepared"
        self.prepared_digest = None
        self.attempted = 0
        self.failures: list = []
        self._count = 0

    def cli_args(self, out: Path) -> list:
        return [self.command, "--config", str(self.config_path), "--out", str(out), "--jobs", "1"]

    def _problems(self, out: Path, rec: dict) -> list:
        problems = gate.check_manifest(out, rec["exit_code"])
        if problems:
            return problems
        try:
            got = gate.capture(out)
        except (OSError, IndexError) as exc:
            return [f"unreadable artifacts: {exc}"]
        if "family_csv" not in self.reference:
            # no committed numbers for this seed: the first passing output is
            # the numeric reference for the rest of the run
            self.reference.update(family_csv=got["family_csv"], distance_csv=got["distance_csv"])
            self.reference_note = (f"no committed numbers for seed {self.seed}: checked "
                                   "against this run's first repetition")
        return gate.compare(got, self.reference)

    def _run_child(self, out: Path, traced: bool) -> dict:
        self._count += 1
        self.attempted += 1
        tag = f"rep{self._count:03d}"
        problems = []
        if self.command == "run" and out.exists():
            problems.append(f"output directory {out} exists; a run would resume")
        rec = spawn(self.work, tag, self.cli_args(out), traced=traced)
        if rec.get("run_s") is None:
            problems.append("pipeline call did not complete")
        problems += self._problems(out, rec)
        if self.command == "check" and (
            self.prepared_digest is None or gate.trace_digest(out) != self.prepared_digest
        ):
            problems.append("check changed the persisted traces")
        if problems:
            self.failures.append(f"{tag}: {'; '.join(problems)}")
            print(f"  FAILED {tag}: {'; '.join(problems)}", file=sys.stderr)
        rec["ok"] = not problems
        if traced and rec["ok"]:
            rec["manifest"] = json.loads((out / "manifest.json").read_text())
        return rec

    def prepare(self) -> None:
        """Untimed: persist the traces a check workload re-verifies."""
        if self.command != "check":
            return
        self.attempted += 1
        rec = spawn(self.work, "prepare", ["run", *self.cli_args(self.prepared)[1:]])
        problems = self._problems(self.prepared, rec)
        if problems:
            self.failures.append(f"prepare: {'; '.join(problems)}")
            return
        self.prepared_digest = gate.trace_digest(self.prepared)

    def repetition(self, traced: bool = False) -> dict:
        if self.command == "check":
            return self._run_child(self.prepared, traced)
        out = self.work / f"out{self._count + 1:03d}"
        rec = self._run_child(out, traced)
        shutil.rmtree(out, ignore_errors=True)
        return rec

    def setup_probe(self) -> dict:
        self.attempted += 1
        out = self.prepared if self.command == "check" else self.work / "probe"
        rec = spawn(self.work, f"probe{self.attempted:03d}", self.cli_args(out), setup_only=True)
        if rec["exit_code"] != 0 or rec.get("setup_s") is None:
            self.failures.append(f"setup probe: exit {rec['exit_code']}")
            rec["setup_s"] = None
        return rec


def tail_note(values: list) -> str:
    """Highest listed percentile that leaves at least 10 samples beyond it."""
    n = len(values)
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100.0 >= 10:
            p = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
            return f"p{q} {p:.6g}"
    return "no percentile has 10 samples beyond it"


def measure(name: str, seed: int, seconds: float, traced: bool) -> dict:
    t_start = time.monotonic()
    work = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = Workload(name, seed, work)
        wl.prepare()
        reps = []
        host = [probe_host()]
        loop_start = time.monotonic()
        while len(reps) < MIN_REPS or time.monotonic() - loop_start < seconds:
            if reps and time.monotonic() - t_start + 1.5 * reps[-1]["wall_s"] > RUN_BUDGET_S:
                break
            reps.append(wl.repetition())
            # about one probe per 5 s of repetition, so that long repetitions
            # are sampled as densely as short ones
            host += [probe_host() for _ in range(1 + int(reps[-1]["wall_s"] // 5))]
        probes = [wl.setup_probe() for _ in range(SETUP_PROBES)]
        traced_rec = wl.repetition(traced=True) if traced else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in reps if r["ok"]]
    samples = {
        "setup_s": [r["setup_s"] for r in good + probes if r.get("setup_s") is not None],
        "run_s": [r["run_s"] for r in good],
        "wall_s": [r["wall_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
    }
    raw = {k: statistics.median(v) for k, v in samples.items() if v}
    scale = PROBE_NOMINAL_S / statistics.median(host)
    e2e = {k: v * scale if k.endswith("_s") else v for k, v in raw.items()}
    result = {"workload": name, "seed": seed, "attempted": wl.attempted,
              "failed": len(wl.failures), "failures": wl.failures, "e2e": e2e, "raw": raw,
              "samples": samples, "host": host, "scale": scale,
              "reference": wl.reference_note}
    if traced_rec is not None and traced_rec["ok"]:
        layers = tracer.layer_metrics(traced_rec["trace"], traced_rec["manifest"])
        layers["trace.run_s"] = traced_rec["run_s"]
        layers["trace.overhead_s"] = traced_rec["run_s"] - raw.get("run_s", float("nan"))
        result["layers"] = layers
        stages = {k: v for k, v in traced_rec["manifest"]["timings"].items() if k != "total"}
        result["largest_stage"] = max(stages, key=stages.get)
    return result


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: child_env(False)[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "loadavg": os.getloadavg(),
    }


def report(res: dict) -> None:
    print(f"== {res['workload']} (seed {res['seed']}; {res['reference']})")
    base = res["attempted"]
    print(f"  error_rate {res['failed'] / base:.4g} ratio ({res['failed']} failed of {base} "
          "attempted child processes)")
    host = res["host"]
    print(f"  host probe {statistics.median(host):.6g} s (median of n={len(host)}, "
          f"min {min(host):.6g}, max {max(host):.6g}); times are scaled by "
          f"{PROBE_NOMINAL_S:g} s / median = {res['scale']:.6g}")
    for name, (unit, _, _) in metrics.END_TO_END.items():
        vals = res["samples"][name]
        if vals:
            scaled = "scaled; raw " if name.endswith("_s") else ""
            print(f"  {name} {res['e2e'][name]:.6g} {unit} ({scaled}median "
                  f"{res['raw'][name]:.6g} of n={len(vals)}, min {min(vals):.6g}, "
                  f"max {max(vals):.6g}; {tail_note(vals)})")
    if "layers" in res:
        print(f"  largest manifest stage: {res['largest_stage']}")
        for name, (unit, _, moves) in metrics.PER_LAYER.items():
            print(f"  {name} {res['layers'][name]:.6g} {unit}  [predicted to move: {moves}]")
    for line in res["failures"]:
        print(f"  failure: {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all three in turn)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "torusflow" / "cli.py").is_file():
        print(f"torusflow sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    env = environment()
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = [measure(n, args.seed, args.seconds, args.trace == 1) for n in names]
    env["loadavg_end"] = os.getloadavg()
    print("env " + json.dumps(env))
    for res in results:
        report(res)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass

    table = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    out_metrics = {}
    for res in results:
        values = res.get("layers", {}) if args.trace else res["e2e"]
        prefix = "" if len(results) == 1 else res["workload"] + "/"
        for name, (unit, *_) in table.items():
            if name in values:
                out_metrics[prefix + name] = {"value": values[name], "unit": unit}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
