"""Spectral calculus: conventions, exactness, and transform plumbing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusflow import (
    FieldError,
    ScalarField,
    TorusGeometry,
    complex_hessian,
    constant_field,
    flat_laplacian,
    integrate,
    lp_norm,
    random_band_limited,
    truncate_modes,
)

from conftest import cos_field
from fd_oracles import d1

PI_SQ = math.pi**2


# ---------------------------------------------------------------------------
# geometry plumbing


def test_geometry_rejects_odd_or_tiny_grid():
    with pytest.raises(ValueError):
        TorusGeometry(n=1, N=63)
    with pytest.raises(ValueError):
        TorusGeometry(n=1, N=2)
    with pytest.raises(ValueError):
        TorusGeometry(n=3, N=16)


def test_geometry_layout(geo1, geo2):
    assert geo1.shape == (64, 64)
    assert geo1.spacing == 1.0 / 64
    assert geo2.shape == (16, 16, 16, 16)
    assert geo2.npoints == 16**4
    # axis order x1, y1, x2, y2: coordinate along axis 2 varies there only
    c = geo2.coordinate(2)
    assert c.shape == geo2.shape
    assert np.all(c[0, 0, :, 0] == np.arange(16) / 16.0)
    assert np.all(c[:, :, 3, :] == 3 / 16.0)


def test_fields_reject_nonfinite(geo1):
    bad = np.zeros(geo1.shape)
    bad[0, 0] = np.nan
    with pytest.raises(FieldError):
        ScalarField(geo1, bad)


# ---------------------------------------------------------------------------
# transforms


def test_mode_indexing_places_single_cosine(geo1):
    f = cos_field(geo1, 0, mode=2)
    coeffs = np.fft.fftn(f.values)
    # cos(4 pi x) = (e^{i 4 pi x} + c.c.)/2; forward transform is unnormalized
    expected = geo1.npoints / 2.0
    assert abs(coeffs[2, 0] - expected) < 1e-8
    assert abs(coeffs[-2, 0] - expected) < 1e-8
    coeffs[2, 0] = coeffs[-2, 0] = 0.0
    assert np.max(np.abs(coeffs)) < 1e-8


# ---------------------------------------------------------------------------
# derivative conventions


def test_hessian_of_cosine_matches_quarter_laplacian(geo1):
    f = cos_field(geo1, 0)
    M = complex_hessian(f)
    expected = -PI_SQ * f.values
    assert np.max(np.abs(M.values[0] - expected)) < 1e-10


def test_hessian_constant_annihilated(geo2):
    M = complex_hessian(constant_field(geo2, 4.2))
    assert np.max(np.abs(M.values)) == 0.0


def test_hessian_n2_mixed_entry_closed_form(geo2):
    x1 = geo2.coordinate(0)
    y2 = geo2.coordinate(3)
    f = ScalarField(geo2, np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2))
    M = complex_hessian(f)
    expected_12 = 1j * PI_SQ * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2)
    expected_diag = -PI_SQ * f.values
    assert np.max(np.abs(M.values[1] + 1j * M.values[2] - expected_12)) < 1e-10
    assert np.max(np.abs(M.values[0] - expected_diag)) < 1e-10
    assert np.max(np.abs(M.values[3] - expected_diag)) < 1e-10


def test_hessian_n2_against_finite_differences():
    """Order-4 FD oracle on the 2d (x1, y2) dependency slice at N=256.

    The test field depends on x1 and y2 only, so the four-dimensional
    Hessian restricts exactly to this plane and the oracle never needs
    the (prohibitively large) N=256 4d grid.
    """
    N = 256
    h = 1.0 / N
    x = np.arange(N) * h
    x1 = x[:, None]
    y2 = x[None, :]
    vals = np.cos(2 * np.pi * x1) * np.cos(2 * np.pi * y2)

    # slice axes are (x1, y2); d/dy1 and d/dx2 vanish identically on it
    dz1 = 0.5 * d1(vals, 0, h)          # d/dy1 vanishes
    dz1_dz2bar = 0.5 * 1j * d1(dz1, 1, h)  # d/dx2 vanishes, keep +i d/dy2 half
    expected = 1j * PI_SQ * np.sin(2 * np.pi * x1) * np.sin(2 * np.pi * y2)
    assert np.max(np.abs(dz1_dz2bar - expected)) < 1e-6

    geo = TorusGeometry(n=2, N=16)
    xs = geo.coordinate(0)
    ys = geo.coordinate(3)
    f = ScalarField(geo, np.cos(2 * np.pi * xs) * np.cos(2 * np.pi * ys))
    M = complex_hessian(f)
    # spectral result sampled on the coarse grid against the same closed form
    coarse = 1j * PI_SQ * np.sin(2 * np.pi * xs) * np.sin(2 * np.pi * ys)
    assert np.max(np.abs(M.values[1] + 1j * M.values[2] - coarse)) < 1e-10


def test_hessian_packed_slots_match_complex_transforms(geo2):
    """Slots (0,0), Re(0,1), Im(0,1), (1,1) against the complex-transform
    multiplier -pi^2 conj(w_j) w_k of each entry."""
    f = random_band_limited(11, 4, geo2)
    M = complex_hessian(f).values
    assert M.dtype == np.float64 and M.shape == (4,) + geo2.shape
    hat = np.fft.fftn(f.values)
    w = geo2.wirtinger_modes
    entry = {(j, k): np.fft.ifftn(-PI_SQ * np.conj(w[j]) * w[k] * hat)
             for j in range(2) for k in range(2)}
    for slot, want in enumerate((entry[0, 0].real, entry[0, 1].real,
                                 entry[0, 1].imag, entry[1, 1].real)):
        assert np.max(np.abs(M[slot] - want)) < 1e-11
    assert np.max(np.abs(entry[1, 0] - np.conj(entry[0, 1]))) < 1e-11


def test_flat_laplacian_single_mode_symbol(geo1):
    f = cos_field(geo1, 0, mode=3)
    lap = flat_laplacian(f)
    assert np.max(np.abs(lap.values + PI_SQ * 9 * f.values)) < 1e-9


def test_flat_laplacian_equals_hessian_trace(geo2):
    f = random_band_limited(5, 3, geo2)
    M = complex_hessian(f)
    tr = M.values[0] + M.values[3]
    assert np.max(np.abs(tr - flat_laplacian(f).values)) < 1e-12


def test_laplacian_integrates_to_zero(geo1):
    f = random_band_limited(9, 7, geo1)
    assert abs(integrate(flat_laplacian(f))) < 1e-12


# ---------------------------------------------------------------------------
# quadrature and norms


def test_integrate_constants_and_modes(geo1):
    assert integrate(constant_field(geo1, 3.0)) == pytest.approx(3.0, abs=0)
    assert abs(integrate(cos_field(geo1, 0))) < 1e-14
    sq = cos_field(geo1, 0) * cos_field(geo1, 0)
    assert integrate(sq) == pytest.approx(0.5, abs=1e-13)


def test_lp_norm_values(geo1):
    assert lp_norm(constant_field(geo1, 3.0), 1) == pytest.approx(3.0)
    assert lp_norm(constant_field(geo1, 3.0), 7.5) == pytest.approx(3.0)
    assert lp_norm(cos_field(geo1, 0), 2) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert lp_norm(constant_field(geo1, 0.0), 2) == 0.0
    assert lp_norm(cos_field(geo1, 0), math.inf) == pytest.approx(1.0, abs=1e-12)


def test_lp_norm_rejects_bad_exponent_and_weight(geo1):
    with pytest.raises(ValueError):
        lp_norm(cos_field(geo1, 0), 0.5)
    with pytest.raises(ValueError):
        lp_norm(cos_field(geo1, 0), 2, weight=constant_field(geo1, -1.0))


# ---------------------------------------------------------------------------
# random shapes


def test_random_band_limited_contract(geo1):
    a = random_band_limited(42, 3, geo1)
    b = random_band_limited(42, 3, geo1)
    assert np.array_equal(a.values, b.values)
    assert abs(integrate(a)) < 1e-12
    assert lp_norm(a, 2) == pytest.approx(1.0, abs=1e-10)
    coeffs = np.fft.fftn(a.values)
    m = geo1.mode_arrays
    outside = (np.abs(m[0]) > 3) | (np.abs(m[1]) > 3)
    assert np.max(np.abs(coeffs[outside])) < 1e-9 * geo1.npoints


def test_random_band_limited_rejects_aliasing_modes(geo1):
    with pytest.raises(ValueError, match="dealias"):
        random_band_limited(1, 22, geo1)  # 3*22 > 64


def test_truncate_modes_idempotent(geo1):
    f = random_band_limited(8, 21, geo1)
    once = truncate_modes(f)
    twice = truncate_modes(once)
    assert np.max(np.abs(once.values - twice.values)) < 1e-14


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), mode=st.integers(1, 5))
def test_derivatives_are_linear_and_real(seed, mode):
    geo = TorusGeometry(n=1, N=32)
    f = random_band_limited(seed, mode, geo)
    g = random_band_limited(seed + 1, mode, geo)
    lhs = complex_hessian(f + g).values
    rhs = complex_hessian(f).values + complex_hessian(g).values
    assert np.max(np.abs(lhs - rhs)) < 1e-11
    assert np.max(np.abs(flat_laplacian(f).values.imag)) == 0.0
