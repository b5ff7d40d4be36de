"""Product tori: an exact n = 2 oracle from n = 1.

On phi = f(z1) + f(z2) with the unit background, det g, log det g, the
flow rate and R split into sums over the two factors, and the
semi-implicit step keeps that split, so the n = 2 flow is two copies of
the n = 1 flow.  The sheared phi = f(z1 + z2) + f(z2) with background
[[1, 1], [1, 2]] is the same torus in the coordinates (z1 + z2, z2),
which map grid points to grid points; it exercises the off-diagonal
slots and, since its background is not the identity, the flow's
stiffness pencil.  f is the seed-1 n = 1 shape with max_mode 2 at
amplitude 0.002, whose max |R| on the product is 36.
"""

import math

import numpy as np
import pytest

from torusflow import (
    FlowConfig,
    KahlerMetric,
    ScalarField,
    TorusGeometry,
    measure,
    random_band_limited,
    run_flow,
    scalar_curvature,
    volume,
)
from torusflow import fields, geometry
from torusflow.geometry import PositivityError

N = 16
GEO1, GEO2 = TorusGeometry(1, N), TorusGeometry(2, N)
F = 0.002 * random_band_limited(1, 2, GEO1)
SHEAR = np.array([[1.0, 1.0], [1.0, 2.0]])
CASES = [pytest.param(False, np.eye(2), id="product"), pytest.param(True, SHEAR, id="sheared")]

CURVATURE_TOL = 1e-9  # measured 4.0e-12 (product) and 1.1e-11 (sheared)
PHI_TOL = 1e-10  # measured 2.5e-12 on potentials of size 8.7e-3
MIN_R_TOL = 1e-7  # measured 5.6e-9
DOT_PHI_TOL = 2e-9  # measured 1.5e-10
READING_TOL = 1e-10  # measured 1.1e-12 (product) and 2.5e-12 (sheared), on sup_abs_phi


def lift(a: np.ndarray, sheared: bool) -> np.ndarray:
    """The n = 2 grid values a(w) + a(z2) of n = 1 grid values a, with
    w = z1 + z2 when sheared and w = z1 otherwise."""
    i = np.arange(N)
    x1, y1, x2, y2 = np.ix_(i, i, i, i)
    first = a[(x1 + x2) % N, (y1 + y2) % N] if sheared else a[x1, y1]
    return first + a[x2, y2]


def lifted_metric(H, sheared: bool) -> KahlerMetric:
    return KahlerMetric(H, ScalarField(GEO2, lift(F.values, sheared)))


@pytest.fixture(scope="module")
def factor():
    return KahlerMetric(np.eye(1), F)


def curvature_gap(factor, H, sheared: bool) -> float:
    """max |R - lifted n = 1 R| on the n = 2 grid."""
    r1 = scalar_curvature(factor).values
    r2 = scalar_curvature(lifted_metric(H, sheared)).values
    assert np.abs(r2).max() > 30.0
    return float(np.abs(r2 - lift(r1, sheared)).max())


@pytest.mark.parametrize("sheared, H", CASES)
def test_scalar_curvature_is_the_sum_over_the_factors(factor, sheared, H):
    assert curvature_gap(factor, H, sheared) <= CURVATURE_TOL


def test_wrong_background_breaks_the_curvature_oracle(factor):
    """The sheared potential over [[2, 1], [1, 1]] is not the product torus:
    its curvature misses the sum by far more than the tolerance."""
    r1 = scalar_curvature(factor).values
    r2 = scalar_curvature(lifted_metric(np.array([[2.0, 1.0], [1.0, 1.0]]), True)).values
    assert np.abs(r2 - lift(r1, True)).max() > 1.0


def test_sign_flip_in_an_off_diagonal_hessian_symbol_breaks_the_curvature_oracle(
        factor, monkeypatch):
    """The symbol of the real part of slot (0, 1), negated where R takes the
    Hessian of log det g: the sheared case has d_1 d_2bar log det g != 0,
    so its R moves far off the sum, while the product case, with no
    off-diagonal part, cannot see the flip.  A transform is linear, so
    negating that slot of the Hessian negates its symbol, bit for bit; R
    takes its Hessian one slot at a time."""
    def flipped(geo, hat, slot=None):
        out = fields._hessian(geo, hat, slot)
        if geo.n == 2 and slot == 1:
            out *= -1.0
        return out

    monkeypatch.setattr(geometry, "_hessian", flipped)
    assert curvature_gap(factor, SHEAR, True) > 1.0
    assert curvature_gap(factor, np.eye(2), False) <= CURVATURE_TOL


def test_sign_flip_in_the_metric_hessian_symbol_breaks_the_sheared_metric(factor, monkeypatch):
    """Negated in every Hessian of the grid, metric included, the same flip
    leaves the sheared metric with no positive definite coefficients."""
    symbols = list(GEO2.hessian_symbols)
    symbols[1] = -symbols[1]
    monkeypatch.setitem(vars(GEO2), "hessian_symbols", tuple(symbols))
    with pytest.raises(PositivityError):
        curvature_gap(factor, SHEAR, True)


def check_volume(factor, H, sheared: bool) -> None:
    """int omega^n = 2^n n! int det g: 2 on the factor, whose det g has mean
    1, and 2 * 2^2 on the product, which pins the factor at both n."""
    assert volume(factor) == pytest.approx(2.0, rel=1e-12)
    assert volume(lifted_metric(H, sheared)) == pytest.approx(2.0 * volume(factor) ** 2,
                                                              rel=1e-12)


@pytest.mark.parametrize("sheared, H", CASES)
def test_volume_is_twice_the_factor_volume_squared(factor, sheared, H):
    check_volume(factor, H, sheared)


# wrong factors in place of 2^n n!: the first two agree with it at n = 1
WRONG_VOLUME_FACTORS = {"2^n": lambda n: 2.0**n, "2 n!": lambda n: 2.0 * math.factorial(n),
                        "n!": lambda n: float(math.factorial(n))}


@pytest.mark.parametrize("wrong", list(WRONG_VOLUME_FACTORS))
@pytest.mark.parametrize("sheared, H", CASES)
def test_wrong_volume_factor_breaks_the_volume_oracle(factor, sheared, H, wrong, monkeypatch):
    factor_of = WRONG_VOLUME_FACTORS[wrong]
    monkeypatch.setattr(geometry, "_volume",
                        lambda v, det: float(factor_of(1 if len(v) == 1 else 2) * det.mean()))
    with pytest.raises(AssertionError):
        check_volume(factor, H, sheared)


@pytest.fixture(scope="module")
def factor_flow(factor):
    config = FlowConfig(t_end=0.1, snapshot_times=(0.01, 0.05))
    return config, run_flow(factor, config)


@pytest.mark.parametrize("sheared, H", CASES)
def test_flow_is_the_sum_of_two_factor_flows(factor_flow, sheared, H):
    """Same dt sequence; each snapshot potential is the lifted n = 1 one;
    min R and min/max dot phi are twice the n = 1 values at every step."""
    config, tr1 = factor_flow
    tr2 = run_flow(lifted_metric(H, sheared), config)
    assert [d.dt for d in tr2.diagnostics] == [d.dt for d in tr1.diagnostics]
    assert len(tr1.snapshots) == len(tr2.snapshots) == 3
    for s1, s2 in zip(tr1.snapshots, tr2.snapshots):
        assert s1.t == s2.t
        assert np.abs(s2.phi.values - lift(s1.phi.values, sheared)).max() <= PHI_TOL
    for d1, d2 in zip(tr1.diagnostics, tr2.diagnostics):
        assert abs(d2.min_scalar_curvature - 2.0 * d1.min_scalar_curvature) <= MIN_R_TOL
        assert abs(d2.min_dot_phi - 2.0 * d1.min_dot_phi) <= DOT_PHI_TOL
        assert abs(d2.max_dot_phi - 2.0 * d1.max_dot_phi) <= DOT_PHI_TOL


@pytest.mark.parametrize("sheared, H", CASES)
def test_measure_reads_twice_the_factor_readings(factor_flow, sheared, H):
    """sup|phi|, min log(det g0 / det H_alpha), inf dot phi and sup|u| split
    over the factors, so measure reads twice the n = 1 values.  The
    equivalence reading compares g with the unit background, so only the
    product case, whose background is the unit one, reads the n = 1 value
    (measured 8.2e-13); the sheared one reads 0.097 against 0.0015."""
    config, tr1 = factor_flow
    m1 = measure(tr1, 1, 0.002, (), (), (1.0,))
    m2 = measure(run_flow(lifted_metric(H, sheared), config), 1, 0.002, (), (), (2.0,))
    for name in ("sup_abs_phi", "volume_log_floor", "inf_dot_phi"):
        assert abs(getattr(m2, name) - 2.0 * getattr(m1, name)) <= READING_TOL
    assert abs(m2.flat_readings["sup_u"] - 2.0 * m1.flat_readings["sup_u"]) <= READING_TOL
    if not sheared:
        assert abs(m2.equivalence - m1.equivalence) <= READING_TOL
