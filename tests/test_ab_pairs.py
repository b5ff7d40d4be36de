"""tools/ab_pairs.py: the gain rule on fixed numbers; no benchmark runs."""

import importlib.util
import json
import os
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# parent quartiles 11, 12, 13 (an IQR of 2); change quartiles 8, 9, 9
PARENT = [10, 12, 11, 13, 14, 10, 12, 11, 13, 14]
CHANGE = [8, 9, 8, 9, 10, 8, 9, 8, 9, 10]


def test_summary_of_a_clear_gain(ab_pairs):
    s = ab_pairs.summarize(PARENT, CHANGE, "lower")
    assert s == {"parent": (11, 12, 13), "change": (8, 9, 9), "wins": 10, "pairs": 10,
                 "holds": True}


def test_summary_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(ab_pairs):
    # nine wins and a tie hold; eight wins, a tie and a loss do not
    assert ab_pairs.summarize(PARENT, CHANGE[:9] + PARENT[9:], "lower")["holds"]
    s = ab_pairs.summarize(PARENT, CHANGE[:8] + [PARENT[8], PARENT[9] + 1], "lower")
    assert s["wins"] == 8 and not s["holds"]
    # ten wins by less than the parent's interquartile range
    s = ab_pairs.summarize(PARENT, [p - 1 for p in PARENT], "lower")
    assert s["wins"] == 10 and not s["holds"]
    # higher is better: the same numbers read the other way round
    s = ab_pairs.summarize(CHANGE, PARENT, "higher")
    assert s["wins"] == 10 and s["holds"]


def test_directory_without_the_benchmark_is_refused(ab_pairs, tmp_path, monkeypatch, capsys):
    def run(*args, **kwargs):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    assert ab_pairs.main([str(ROOT), str(tmp_path), "--workload", "flow-n2-N16"]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def test_both_sides_share_one_bytecode_cache_of_their_own(ab_pairs, monkeypatch, capsys):
    """Every child of both sides runs with one bytecode-cache prefix,
    empty before the first and written to (no checkout's __pycache__ is
    read or written), and the tool removes it at exit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    line = json.dumps({"correct": True, "attempted": 1, "failed": 0,
                       "metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}})
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    seen = []

    def run(command, cwd, env, **kwargs):
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        seen.append((cache, list(cache.iterdir()), "PYTHONDONTWRITEBYTECODE" in env))
        assert env["PATH"] == os.environ["PATH"]
        (cache / f"written_{len(seen)}").touch()  # a child compiles into the cache
        return subprocess.CompletedProcess(command, 0, stdout=line + "\n", stderr="")

    monkeypatch.setattr(ab_pairs.subprocess, "run", run)
    assert ab_pairs.main([str(ROOT), str(ROOT), "--workload", "check-n2-N16", "--pairs", "2"]) == 0
    cache = seen[0][0]
    assert [(c, len(listed), no_write) for c, listed, no_write in seen] == \
        [(cache, k, False) for k in range(4)]
    assert not cache.exists()
