"""tools/reach.py: every src function is reached by a command or kept with
a reason, and the report can fail both ways."""

import importlib.util
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_unreached_function_is_kept_with_its_reason(reach):
    """The sweep in a fresh interpreter, so that import-time calls are
    seen: exit 0, and one line per KEEP entry with its reason."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "reach.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith(f"{len(reach.KEEP)} of ")
    listed = {line.split()[0]: line for line in lines[1:]}
    assert set(listed) == set(reach.KEEP)
    for name, reason in reach.KEEP.items():
        assert listed[name].endswith(reason)


def test_report_flags_an_unkept_function_and_a_reached_or_unknown_entry(reach):
    functions = {("m.py", 1): ("m.kept", 3), ("m.py", 5): ("m.dead", 2),
                 ("m.py", 8): ("m.live", 4)}
    keep = {"m.kept": "why", "m.live": "why", "m.gone": "why"}
    lines, problems = reach.report(functions, {("m.py", 8)}, keep)
    assert lines[0] == "2 of 3 src functions unreached, 5 lines:"
    assert problems == ["m.dead is unreached and not in KEEP",
                        "KEEP names m.gone, which is not a src function",
                        "KEEP names m.live, which a command reached"]
    assert reach.report(functions, {("m.py", 8)}, {"m.kept": "why", "m.dead": "why"})[1] == []


def test_sweep_flags_a_command_that_ends_in_another_exit_code(reach, tmp_path):
    argv = ["run", "--config", str(tmp_path / "missing.json")]
    reached, problems = reach.sweep([("missing config", argv, 0)])
    assert len(problems) == 1 and problems[0].startswith("missing config: exit code 3, expected 0")
    assert reach.sweep([("missing config", argv, 3)])[1] == []
    assert any(path.endswith("cli.py") for path, _ in reached)


def test_sweep_sees_a_function_called_only_on_a_thread(reach, tmp_path):
    """A profile hook is per thread, so the sweep hooks every thread that a
    case starts, as a flow starts its diagnostics helper."""
    def on_thread():
        pass

    def start():
        thread = threading.Thread(target=on_thread)
        thread.start()
        thread.join()

    argv = ["run", "--config", str(tmp_path / "missing.json")]
    reached, problems = reach.sweep([("missing config", argv, 3, start)])
    code = on_thread.__code__
    assert problems == []
    assert (str(Path(code.co_filename).resolve()), code.co_firstlineno) in reached


def test_defined_functions_start_where_their_code_objects_do(reach):
    """A decorated def starts at its first decorator, as its code does."""
    from torusflow import distances, fields

    functions = reach.defined_functions()
    for fn, name in ((fields.TorusGeometry.coordinates, "fields.TorusGeometry.coordinates"),
                     (distances.random_queries.__wrapped__, "distances.random_queries"),
                     (distances.MetricGraph.distance, "distances.MetricGraph.distance")):
        code = fn.__code__
        assert functions[(str(Path(code.co_filename).resolve()), code.co_firstlineno)][0] == name
