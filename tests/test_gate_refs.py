"""tools/gate_refs.py with the spawn and the gate replaced; no command runs."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def gate_refs():
    spec = importlib.util.spec_from_file_location("gate_refs", ROOT / "tools" / "gate_refs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_without_reference_is_refused_before_anything_runs(gate_refs, monkeypatch, capsys):
    def spawn(*args, **kwargs):
        raise AssertionError("a command ran")

    monkeypatch.setattr(gate_refs.run, "spawn", spawn)
    assert gate_refs.main(["90", "999"]) == 2
    err = capsys.readouterr().err
    assert "seed_999.json" in err and "seed_90.json" not in err


def test_every_workload_command_is_gated_and_counted(gate_refs, monkeypatch, capsys):
    """One command per workload and seed; a failure is printed and makes
    the exit code 1."""
    spawned = []

    def spawn(work, tag, cli_args, **kwargs):
        spawned.append((tag, cli_args[0]))
        return {"exit_code": 0}

    monkeypatch.setattr(gate_refs.run, "spawn", spawn)
    monkeypatch.setattr(gate_refs.gate, "check_manifest", lambda out, code: [])
    monkeypatch.setattr(gate_refs.gate, "capture", lambda out: {})
    monkeypatch.setattr(gate_refs.gate, "trace_digest", lambda out: "same")
    monkeypatch.setattr(gate_refs.gate, "compare",
                        lambda got, ref: ["differs"] if len(spawned) == 2 else [])
    assert gate_refs.main(["90-91"]) == 1
    workloads = gate_refs.run.WORKLOADS
    assert spawned == [(f"{name}-{seed}", command)
                       for seed in (90, 91) for name, (_, command) in workloads.items()]
    assert capsys.readouterr().out.splitlines() == [
        f"{list(workloads)[1]} seed 90: differs",
        f"{2 * len(workloads) - 1} of {2 * len(workloads)} commands pass the gate",
    ]
