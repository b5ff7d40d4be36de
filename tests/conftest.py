import numpy as np
import pytest

from torusflow import HermitianField, TorusGeometry, ScalarField


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


@pytest.fixture
def validations(monkeypatch):
    """A list that grows by one per HermitianField validation."""
    calls = []
    original = HermitianField.__post_init__
    monkeypatch.setattr(HermitianField, "__post_init__",
                        lambda self: calls.append(1) or original(self))
    return calls
