"""Calibrated family construction.

For the single-cosine shape the curvature floor has the closed form
min R = -pi^2 b / (1-b)^2 with b = a pi^2, so the amplitude that lands
the floor in [-1, -1/2] must lie between the two quadratic roots below.
"""

import math

import numpy as np
import pytest

from conftest import cos_field

from torusflow import (
    BracketFailure,
    ScenarioError,
    ScenarioSpec,
    TorusGeometry,
    ZeroShape,
    calibrate_amplitude,
    make_sequence,
    min_eigenvalue,
)
from torusflow import scenarios
from torusflow.scenarios import GateViolation

# roots of b^2 - (2 + pi^2/F) b + 1 = 0 at F=1/2 and F=1, divided by pi^2
A_FLOOR_HALF = 0.0046706616962276706
A_FLOOR_ONE = 0.008597653113695938


def spec1(**kw):
    geo = TorusGeometry(1, 64)
    base = dict(geometry=geo, seed=20240811, indices=(1, 4, 16, 64))
    base.update(kw)
    return ScenarioSpec(**base)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_bad_indices():
    with pytest.raises(ScenarioError):
        spec1(indices=())
    with pytest.raises(ScenarioError):
        spec1(indices=(0, 1))
    with pytest.raises(ScenarioError):
        spec1(indices=(4, 4))
    with pytest.raises(ScenarioError):
        spec1(indices=(4, 1))


def test_spec_rejects_bad_exponent():
    with pytest.raises(ScenarioError):
        spec1(p=-2.0)


def test_spec_defaults():
    s = spec1()
    assert np.array_equal(s.background, np.eye(1))
    assert s.trace_exponent == 2.0  # 2n
    assert spec1(p=math.inf).trace_exponent == math.inf


# ---------------------------------------------------------------------------
# calibration against the closed form


def test_calibrated_amplitude_in_closed_form_bracket(geo1):
    a = calibrate_amplitude(cos_field(geo1, 0), np.eye(1), -1.0)
    assert A_FLOOR_HALF <= a <= A_FLOOR_ONE
    # and the resulting floor really is in the band
    b = a * np.pi**2
    floor = -np.pi**2 * b / (1.0 - b) ** 2
    assert -1.0 <= floor <= -0.5


def test_calibrate_rejects_nonnegative_target(geo1):
    with pytest.raises(ValueError):
        calibrate_amplitude(cos_field(geo1, 0), np.eye(1), 0.0)


def test_calibrate_zero_shape(geo1):
    with pytest.raises(ZeroShape):
        calibrate_amplitude(0.0 * cos_field(geo1, 0), np.eye(1), -1.0)


def test_calibrate_budget_exhaustion(geo1):
    with pytest.raises(BracketFailure, match="evaluations"):
        calibrate_amplitude(cos_field(geo1, 0), np.eye(1), -1.0, max_evals=2)


# ---------------------------------------------------------------------------
# family construction


@pytest.fixture(scope="module")
def family():
    return make_sequence(spec1())


def test_family_floors_in_band(family):
    for sc in family:
        assert -1.0 / sc.index - 1e-12 <= sc.curvature_floor <= -0.5 / sc.index + 1e-12


def test_family_amplitudes_decrease(family):
    amps = [sc.amplitude for sc in family]
    assert all(a > b for a, b in zip(amps, amps[1:]))
    assert all(a > 0 for a in amps)


def test_family_gates(family):
    for sc in family:
        assert min_eigenvalue(sc.metric) > 0.0
        assert sc.volume == pytest.approx(2.0, abs=1e-10)  # class of the identity
        assert sc.trace_norm <= 10.0
        assert 0.0 <= sc.positive_part_budget < math.inf


def test_family_deterministic():
    one = make_sequence(spec1())
    two = make_sequence(spec1())
    for a, b in zip(one, two):
        assert a.amplitude == b.amplitude  # bitwise
        assert np.array_equal(a.metric.phi.values, b.metric.phi.values)
        assert a.curvature_floor == b.curvature_floor


def test_family_sup_exponent():
    fam = make_sequence(spec1(indices=(4,), p=math.inf))
    sc = fam[0]
    from torusflow import assemble

    g11 = assemble(sc.metric).values[0]
    assert sc.trace_norm == pytest.approx(g11.max(), rel=1e-12)


def test_make_sequence_assembly_budget(validations, monkeypatch):
    """One assembly per calibration probe and one per index."""
    probes = []
    original = scenarios._floor_of
    monkeypatch.setattr(scenarios, "_floor_of",
                        lambda *args: probes.append(1) or original(*args))
    spec = spec1(indices=(1, 4))
    make_sequence(spec)
    assert len(probes) >= 2 * len(spec.indices)
    assert len(validations) == len(probes) + len(spec.indices)


def test_trace_gate_violation():
    # sup norm of tr_I g is ~1 + b > 1, so a gate of 1.0 must trip
    with pytest.raises(GateViolation, match="trace norm"):
        make_sequence(spec1(indices=(1,), p=math.inf, lambda_gate=1.0))


def test_two_dim_family_smoke(geo2):
    spec = ScenarioSpec(geometry=geo2, seed=7, indices=(1, 16), max_mode=2)
    fam = make_sequence(spec)
    assert [sc.index for sc in fam] == [1, 16]
    for sc in fam:
        assert -1.0 / sc.index - 1e-12 <= sc.curvature_floor <= -0.5 / sc.index + 1e-12
        assert min_eigenvalue(sc.metric) > 0.0
