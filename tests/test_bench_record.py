"""tools/bench_record.py on a canned perfbench output; no benchmark runs."""

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CANNED = """\
env {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2, "git_commit": "abc123", "source_sha256": "0f0f"}
== dist-n1-N64 (seed 90; committed reference for seed 90)
  error_rate 0 ratio (0 failed of 9 attempted child processes)
  host probe 0.41 s (median of n=12, min 0.4, max 0.5); times are scaled by 0.4 s / median = 0.97
  setup_s 0.31 s (scaled; raw median 0.32 of n=9, min 0.3, max 0.4; no percentile has 10 samples beyond it)
  run_s 0.29 s (scaled; raw median 0.3 of n=6, min 0.28, max 0.33; no percentile has 10 samples beyond it)
  peak_rss_mb 69.5 MB (median 69.5 of n=6, min 69.4, max 69.6; no percentile has 10 samples beyond it)
  largest manifest stage: distance
  distances.graphs 81 count  [predicted to move: run_s on dist-n1-N64 only]
== flow-n2-N16 (seed 90; committed reference for seed 90)
  run_s 3.1 s (scaled; raw median 3.2 of n=4, min 3, max 3.3; no percentile has 10 samples beyond it)
{"correct": true, "attempted": 20, "failed": 0, "metrics": {"dist-n1-N64/distances.graphs": {"value": 81, "unit": "count"}}}
"""


def _load_recorder():
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_writes_env_commit_and_both_metric_kinds(tmp_path, monkeypatch):
    recorder = _load_recorder()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    commands = []

    def fake_run(argv, **kwargs):
        commands.append(argv)
        stdout = CANNED if argv[:2] == recorder.COMMAND[:2] else ""
        return subprocess.CompletedProcess(argv, 0, stdout=stdout)

    monkeypatch.setattr(recorder.subprocess, "run", fake_run)
    path = recorder.record(7, root=tmp_path)
    assert path == tmp_path / "BENCH_7.json"
    doc = json.loads(path.read_text())
    assert commands[0] == recorder.COMMAND
    assert doc["command"] == "python3 perfbench/run.py --seed 90 --trace 1"
    assert {k: doc["env"][k] for k in ("python", "numpy", "scipy", "nproc")} == {
        "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2}
    assert doc["git"] == {"commit": "abc123", "src_differs_from_commit": False}
    result = doc["result"]
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 20, 0)
    assert result["end_to_end"] == {
        "dist-n1-N64": {
            "setup_s": {"value": 0.31, "unit": "s"},
            "run_s": {"value": 0.29, "unit": "s"},
            "peak_rss_mb": {"value": 69.5, "unit": "MB"},
        },
        "flow-n2-N16": {"run_s": {"value": 3.1, "unit": "s"}},
    }
    assert result["per_layer"] == {"dist-n1-N64/distances.graphs": {"value": 81, "unit": "count"}}
    assert result["host_scale"] == {"dist-n1-N64": 0.97}
