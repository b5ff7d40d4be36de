import json

import numpy as np
import pytest

from torusflow import HermitianField, TorusGeometry, ScalarField, assemble
from torusflow.flow import _rhs_field
from torusflow.geometry import _log_det, _positive_eigenvalues


@pytest.fixture(scope="session")
def geo1():
    """n=1 workhorse grid."""
    return TorusGeometry(n=1, N=64)


@pytest.fixture(scope="session")
def geo2():
    """n=2 smoke grid; 16^4 points keeps everything under a second."""
    return TorusGeometry(n=2, N=16)


def cos_field(geometry, axis: int, mode: int = 1, amplitude: float = 1.0) -> ScalarField:
    x = geometry.coordinate(axis)
    return ScalarField(geometry, amplitude * np.cos(2.0 * np.pi * mode * x))


def sin_field(geometry, axis: int, mode: int = 1, amplitude: float = 1.0) -> ScalarField:
    x = geometry.coordinate(axis)
    return ScalarField(geometry, amplitude * np.sin(2.0 * np.pi * mode * x))


def rate_field(state, alpha) -> ScalarField:
    """d phi/dt = log(det g / det alpha.H), 2/3-truncated, of a flow state,
    through the flow's right-hand side, as the harness derives it from a
    snapshot."""
    g = assemble(state.metric())
    return _rhs_field(g.geometry, _log_det(_positive_eigenvalues(g.values)), alpha)


@pytest.fixture
def validations(monkeypatch):
    """A list that grows by one per HermitianField validation."""
    calls = []
    original = HermitianField.__post_init__
    monkeypatch.setattr(HermitianField, "__post_init__",
                        lambda self: calls.append(1) or original(self))
    return calls


def share_first_snapshot_file(trace_dir):
    """Point a trace's second snapshot record at the first one's file, as
    six-decimal file names did for snapshot times that agree to six
    decimals."""
    meta = json.loads((trace_dir / "meta.json").read_text())
    meta["snapshots"][1]["file"] = meta["snapshots"][0]["file"]
    (trace_dir / "meta.json").write_text(json.dumps(meta))
