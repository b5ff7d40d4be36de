"""Calibrated family construction.

For the single-cosine shape the curvature floor has the closed form
min R = -pi^2 b / (1-b)^2 with b = a pi^2, so the amplitude that lands
the floor in [-1, -1/2] must lie between the two quadratic roots below.
"""

import math
import re

import numpy as np
import pytest

from conftest import cos_field

from torusflow import (
    BracketFailure,
    KahlerMetric,
    ScenarioError,
    ScenarioSpec,
    TorusGeometry,
    ZeroShape,
    assemble,
    calibrate_amplitude,
    constant_field,
    make_sequence,
    min_eigenvalue,
    random_band_limited,
    scalar_curvature,
    volume,
)
from torusflow import geometry, scenarios
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
    shape = cos_field(geo1, 0)
    a, coeffs, curv = calibrate_amplitude(shape, np.eye(1), -1.0)
    assert A_FLOOR_HALF <= a <= A_FLOOR_ONE
    # and the resulting floor really is in the band
    b = a * np.pi**2
    floor = -np.pi**2 * b / (1.0 - b) ** 2
    assert -1.0 <= floor <= -0.5
    # the returned coefficients and curvature are those of the metric at a
    g = assemble(KahlerMetric(np.eye(1), shape * a))
    assert np.array_equal(coeffs.values, g.values)
    assert np.array_equal(curv.values, scalar_curvature(g).values)
    assert -1.0 <= curv.min() <= -0.5


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
    """One assembly per distinct calibration amplitude: the indices share
    their probes, and each index reuses its landing probe."""
    probes = []
    original = scenarios._floor_of
    monkeypatch.setattr(scenarios, "_floor_of",
                        lambda *args: probes.append(args[2].hex()) or original(*args))
    spec = spec1(indices=(1, 4))
    shape = random_band_limited(spec.seed, spec.max_mode, spec.geometry)
    for i in spec.indices:
        calibrate_amplitude(shape, spec.background, -1.0 / i)
    visited = set(probes)
    probes.clear()
    validations.clear()
    make_sequence(spec)
    assert len(probes) == len(set(probes))
    assert set(probes) == visited
    assert len(validations) == len(probes)


def test_one_eigenvalue_pass_per_probe(geo1, monkeypatch):
    """A probe reads positivity and min R off one eigenvalue pass over the
    grid, the gate's inside scalar_curvature.  (Its KahlerMetric also
    checks the (n^2,) background matrix, which is no grid pass.)"""
    passes = []
    original = geometry._eigenvalues

    def counted(v, *args):
        if np.ndim(v) > 1:
            passes.append(v.shape)
        return original(v, *args)

    monkeypatch.setattr(geometry, "_eigenvalues", counted)
    table = {}
    calibrate_amplitude(cos_field(geo1, 0), np.eye(1), -1.0, table=table)
    assert len(table) > 1
    assert len(passes) == len(table)


SHARED_TABLE_FAMILIES = {
    "n1-N64": lambda seed: ScenarioSpec(
        geometry=TorusGeometry(1, 64), seed=seed, indices=(1, 4, 16, 64), p=math.inf
    ),
    "n2-N16": lambda seed: ScenarioSpec(
        geometry=TorusGeometry(2, 16), seed=seed, indices=(1, 4, 16), max_mode=2
    ),
}


@pytest.mark.parametrize("seed", [90, 91])
@pytest.mark.parametrize("family_name", sorted(SHARED_TABLE_FAMILIES))
def test_shared_table_matches_independent_calibrations(family_name, seed, monkeypatch):
    """A family that shares one probe table equals, bit for bit, the
    family calibrated index by index with no table."""
    spec = SHARED_TABLE_FAMILIES[family_name](seed)
    shared = make_sequence(spec)
    original = scenarios.calibrate_amplitude
    monkeypatch.setattr(scenarios, "calibrate_amplitude",
                        lambda shape, H0, target, table=None: original(shape, H0, target))
    alone = make_sequence(spec)
    assert len(shared) == len(alone) == len(spec.indices)
    for a, b in zip(shared, alone):
        assert a.index == b.index
        assert a.amplitude.hex() == b.amplitude.hex()
        assert a.curvature_floor == b.curvature_floor
        assert a.volume == b.volume
        assert a.trace_norm == b.trace_norm
        assert a.positive_part_budget == b.positive_part_budget
        assert np.array_equal(a.metric.phi.values, b.metric.phi.values)


def _bracket_failure(*args, **kwargs) -> str:
    with pytest.raises(BracketFailure) as info:
        calibrate_amplitude(*args, **kwargs)
    return str(info.value)


def test_table_hits_count_against_the_budget(geo1):
    """A table filled by an earlier index changes no failure: hits take
    steps of max_evals as probes do, and a shape too rough for the target
    fails where it fails alone."""
    shape = cos_field(geo1, 0)
    table = {}
    calibrate_amplitude(shape, np.eye(1), -1.0, table=table)
    assert {scenarios.START_AMPLITUDE, 2 * scenarios.START_AMPLITUDE} <= set(table)
    for target, budget, reason in [(-1.0 / 16, 2, "exceeded 2 curvature evaluations"),
                                   (-1e4, scenarios.MAX_EVALS, "positivity failed")]:
        alone = _bracket_failure(shape, np.eye(1), target, max_evals=budget)
        assert reason in alone
        assert alone == _bracket_failure(shape, np.eye(1), target, max_evals=budget, table=table)


def test_table_hit_in_band_is_probed_again(geo1, monkeypatch):
    """A landing amplitude read from the table is probed once more, and
    what it returns is the probe of that amplitude."""
    shape = cos_field(geo1, 0)
    table = {}
    a, _, _ = calibrate_amplitude(shape, np.eye(1), -1.0, table=table)
    entries = len(table)
    probes = []
    original = scenarios._floor_of
    monkeypatch.setattr(scenarios, "_floor_of",
                        lambda *args: probes.append(args[2]) or original(*args))
    b, coeffs, curv = calibrate_amplitude(shape, np.eye(1), -1.0, table=table)
    assert b == a and probes == [a] and len(table) == entries
    g = assemble(KahlerMetric(np.eye(1), shape * a))
    assert np.array_equal(coeffs.values, g.values)
    assert np.array_equal(curv.values, scalar_curvature(g).values)


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


# ---------------------------------------------------------------------------
# flat families


def test_flat_family_is_its_background_through_the_gates(geo2, monkeypatch):
    """A flat family draws no shape and probes nothing; each index is the
    background with a +0.0 potential and the readings of that metric."""
    def refuse(*args, **kwargs):
        raise AssertionError("a flat family draws no shape and runs no probe")

    monkeypatch.setattr(scenarios, "random_band_limited", refuse)
    monkeypatch.setattr(scenarios, "calibrate_amplitude", refuse)
    H0 = np.array([[1.2, 0.1 + 0.05j], [0.1 - 0.05j, 0.9]])
    spec = ScenarioSpec(geometry=geo2, seed=7, indices=(1, 4, 16), max_mode=2,
                        background=H0, flat=True)
    flat = KahlerMetric(spec.background, constant_field(geo2, 0.0))
    fam = make_sequence(spec)
    assert [sc.index for sc in fam] == [1, 4, 16]
    for sc in fam:
        assert sc.amplitude == sc.curvature_floor == sc.positive_part_budget == 0.0
        assert sc.volume == volume(flat)
        assert sc.trace_norm == spec.trace_norm(flat)
        assert np.array_equal(sc.metric.H, H0)
        phi = sc.metric.phi.values
        assert not phi.any() and not np.signbit(phi).any()


def test_flat_family_fails_the_volume_gate():
    spec = ScenarioSpec(geometry=TorusGeometry(1, 16), seed=7, indices=(1, 4),
                        background=[[0.04]], flat=True)
    message = "index 1: volume 0.08 below the non-collapsing gate 1/10"
    with pytest.raises(GateViolation, match=re.escape(message)):
        make_sequence(spec)
