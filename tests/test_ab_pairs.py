"""tools/ab_pairs.py: the gain rule on fixed numbers; no benchmark runs."""

import importlib.util
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
