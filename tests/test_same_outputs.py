"""tools/same_outputs.py: the refusal and the tree comparison; no command runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tree(root: Path, files: dict) -> Path:
    for rel, data in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


RUN = {"family.csv": b"index,amplitude\n1,0.5\n", "scenario_i001/checks.csv": b"check\n",
       "plots/pairing_gap_vs_i.csv": b"i,max_abs_pairing_gap\n1,0.0\n"}


def test_checkout_without_the_cli_is_refused_before_anything_runs(same_outputs, monkeypatch,
                                                                   tmp_path, capsys):
    def run_command(*args):
        raise AssertionError("a command ran")

    monkeypatch.setattr(same_outputs, "run_command", run_command)
    assert same_outputs.main([str(ROOT), str(tmp_path), "90"]) == 2
    assert str(tmp_path) in capsys.readouterr().err


def _manifest(root: Path, floor: float, timings: dict, fft: str) -> bytes:
    """A run manifest whose paths start with root."""
    return json.dumps({
        "all_checks_pass": True,
        "scenarios": [{"index": 1, "status": "ok", "curvature_floor": floor, "volume": 2.0,
                       "trace_dir": f"{root}/scenario_i001/trace",
                       "report": f"{root}/scenario_i001/report.json"}],
        "outputs": [f"{root}/family.csv"],
        "timings": timings, "minor_faults": {"total": timings["total"] * 1000},
        "peak_rss_mb": {"total": 50.0 + timings["total"]},
        "libraries": {"fft": fft, "scipy": None if fft == "numpy.fft" else "1.17.1"},
    }).encode()


def _run_tree(root: Path, floor=-0.5, timings=None, fft="pypocketfft") -> Path:
    timings = timings or {"total": 1.0}
    return _tree(root, {**RUN, "manifest.json": _manifest(root, floor, timings, fft)})


def test_manifests_that_differ_in_timings_libraries_and_root_are_the_same(same_outputs,
                                                                           tmp_path):
    a = _run_tree(tmp_path / "a", timings={"total": 1.0}, fft="numpy.fft")
    b = _run_tree(tmp_path / "b", timings={"total": 2.0, "flows": 1.5})
    assert (a / "manifest.json").read_bytes() != (b / "manifest.json").read_bytes()
    assert same_outputs.tree_differences(a, b) == []


def test_a_changed_curvature_floor_in_the_manifest_is_reported(same_outputs, tmp_path):
    a = _run_tree(tmp_path / "a")
    b = _run_tree(tmp_path / "b", floor=math.nextafter(-0.5, 0.0))  # one ulp
    assert same_outputs.tree_differences(a, b) == ["manifest.json: scenarios differs"]


def test_one_byte_and_one_extra_file_are_reported(same_outputs, tmp_path):
    a = _tree(tmp_path / "a", RUN)
    b = _tree(tmp_path / "b", {**RUN, "family.csv": b"index,amplitude\n1,0.6\n",
                               "plots/extra_vs_i.csv": b"i\n"})
    assert same_outputs.tree_differences(a, b) == [
        "plots/extra_vs_i.csv: only in change",
        "family.csv: bytes differ",
    ]


def test_exit_code_and_output_differences_are_reported(same_outputs, tmp_path):
    outs = {"parent": _tree(tmp_path / "a", RUN), "change": _tree(tmp_path / "b", RUN)}
    same = {"parent": (0, "ok <out>\n"), "change": (0, "ok <out>\n")}
    assert same_outputs.command_differences(same, outs) == []
    other = {"parent": (0, "ok <out>\n"), "change": (1, "fail <out>\n")}
    assert same_outputs.command_differences(other, outs) == [
        "exit code 0 against 1", "standard output differs"]
