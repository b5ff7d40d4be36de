"""Spectral calculus: conventions, exactness, and transform plumbing."""

import importlib.util
import math
import os
import subprocess
import sys
from pathlib import Path

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

from torusflow import fields

from conftest import cos_field
from fd_oracles import d1

PI_SQ = math.pi**2
SRC = Path(__file__).resolve().parent.parent / "src"


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
    m = geo2.mode_arrays
    w = [m[2 * j] + 1j * m[2 * j + 1] for j in range(2)]
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


# ---------------------------------------------------------------------------
# the n = 2 transforms: scipy's pocketfft kernel, loaded alone, is not public
# API, so its bits are pinned to scipy.fft's on the installed scipy


def _grid_values(geo, *lead, seed=3):
    return np.random.default_rng(seed).standard_normal(lead + geo.shape)


@pytest.mark.parametrize("N", [16, 32])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["scalar", "packed"])
def test_n2_transforms_equal_scipy_fft_bit_for_bit(N, lead):
    """Forward and inverse, on a scalar field and on each slot of a packed
    (4, N, N, N, N) stack, as geometry transforms its slots."""
    import scipy.fft

    geo = TorusGeometry(2, N)
    assert fields.FFT_LIBRARY.get(2, "pypocketfft") == "pypocketfft"
    stack = _grid_values(geo, *lead).reshape((-1,) + geo.shape)
    for values in stack:
        hat = fields._rfft(geo, values)
        assert np.array_equal(hat, scipy.fft.rfftn(values, axes=geo.grid_axes))
        back = fields._irfft(geo, hat)
        assert np.array_equal(back, scipy.fft.irfftn(hat, s=geo.shape, axes=geo.grid_axes))
    assert fields.FFT_LIBRARY[2] == "pypocketfft"


_NO_KERNEL = {
    "no file": lambda mp: mp.setattr(fields, "EXTENSION_SUFFIXES", [".missing"]),
    "no scipy found": lambda mp: mp.setattr(importlib.util, "find_spec", lambda name: None),
    "no load": lambda mp: mp.setattr(importlib.util, "module_from_spec", _refuse),
}


def _refuse(spec):
    raise ImportError(f"cannot load {spec.name}")


@pytest.mark.parametrize("cause", list(_NO_KERNEL))
def test_n2_transforms_fall_back_to_scipy_fft_with_the_same_bits(cause, monkeypatch):
    import scipy.fft

    geo = TorusGeometry(2, 16)
    values = _grid_values(geo)
    hat = fields._rfft(geo, values)
    back = fields._irfft(geo, hat)
    _force_fallback(monkeypatch, cause)
    assert fields._fft_module(geo).rfftn is scipy.fft.rfftn
    assert fields.FFT_LIBRARY[2] == "scipy.fft"
    assert np.array_equal(fields._rfft(geo, values), hat)
    assert np.array_equal(fields._irfft(geo, hat), back)


def _force_fallback(monkeypatch, cause):
    monkeypatch.setattr(fields, "_fft_4d", None)
    monkeypatch.delitem(fields.FFT_LIBRARY, 2, raising=False)
    _NO_KERNEL[cause](monkeypatch)


# the band inverse: bit for bit _irfft of the zero-padded band, at sizes
# whose 1/N^{2n} is and is not a power of two


def _band_case(n, N, lead):
    """A random half spectrum, its band array, and the spectrum zeroed
    outside the 2/3 band."""
    geo = TorusGeometry(n, N)
    rng = np.random.default_rng(7)
    shape = lead + geo.half_shape
    full = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return geo, fields._band_of(geo, full), full * geo.dealias_keep


@pytest.mark.parametrize("n, N", [(1, 16), (1, 64), (1, 18), (2, 8), (2, 16), (2, 12)])
@pytest.mark.parametrize("lead", [(), (4,)], ids=["scalar", "packed"])
def test_band_inverse_equals_irfft_of_the_padded_band_bit_for_bit(n, N, lead):
    geo, band, padded = _band_case(n, N, lead)
    assert band.shape == lead + geo.band_shape
    assert band.size == np.prod(lead, dtype=int) * np.count_nonzero(geo.dealias_keep)
    slots = padded.reshape((-1,) + geo.half_shape)  # one grid array at a time
    want = np.stack([fields._irfft(geo, hat) for hat in slots]).reshape(lead + geo.shape)
    got = fields._irfft_band(geo, band)
    assert got.shape == lead + geo.shape and np.array_equal(got, want)
    out = np.empty(lead + geo.shape)
    assert fields._irfft_band(geo, band, out) is out and np.array_equal(out, want)


@pytest.mark.parametrize("cause", list(_NO_KERNEL))
@pytest.mark.parametrize("N", [16, 12])
def test_band_inverse_falls_back_to_scipy_fft_with_the_same_bits(N, cause, monkeypatch):
    """Under each fallback cause the band passes are scipy.fft's unnormalized
    (norm="forward") ifft and irfft, with the kernel's bits."""
    import scipy.fft

    geo, band, padded = _band_case(2, N, (4,))
    want = fields._irfft_band(geo, band)
    _force_fallback(monkeypatch, cause)
    norms = []
    for name in ("ifft", "irfft"):
        fn = getattr(scipy.fft, name)
        monkeypatch.setattr(scipy.fft, name, lambda *a, _fn=fn, _name=name, **k:
                            norms.append((_name, k["norm"])) or _fn(*a, **k))
    assert np.array_equal(fields._irfft_band(geo, band), want)
    assert fields.FFT_LIBRARY[2] == "scipy.fft"
    assert norms == ([("ifft", "forward")] * 7 + [("irfft", "forward")]) * 4  # per slot
    assert np.array_equal(np.stack([fields._irfft(geo, hat) for hat in padded]), want)


# the kernel's bits in a fresh interpreter, with scipy's FFT and graph
# stacks imported after it or before it (an n = 2 run with distances on)
_LOAD_ORDER = (
    "import sys\n"
    "import numpy as np\n"
    "from torusflow import fields\n"
    "geo = fields.TorusGeometry(2, 16)\n"
    "values = np.load(sys.argv[1])\n"
    "def stacks():\n"
    "    import scipy.fft\n"
    "    import scipy.sparse.csgraph\n"
    "if sys.argv[3] == 'stacks first':\n"
    "    stacks()\n"
    "hat = fields._rfft(geo, values)\n"
    "stacks()\n"
    "np.save(sys.argv[2], np.stack([hat.real, hat.imag]))\n"
    "np.save(sys.argv[2] + '.back.npy', fields._irfft(geo, hat))\n"
    "print(fields.FFT_LIBRARY[2])\n"
)


@pytest.mark.parametrize("order", ["kernel first", "stacks first"])
def test_n2_transforms_keep_their_bits_beside_scipy_stacks(order, tmp_path):
    import scipy.fft

    geo = TorusGeometry(2, 16)
    values = _grid_values(geo, seed=11)
    np.save(tmp_path / "values.npy", values)
    out = tmp_path / "hat.npy"
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _LOAD_ORDER, str(tmp_path / "values.npy"),
                           str(out), order], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": pythonpath})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["pypocketfft"]
    hat = scipy.fft.rfftn(values, axes=geo.grid_axes)
    assert np.array_equal(np.load(out), np.stack([hat.real, hat.imag]))
    assert np.array_equal(np.load(str(out) + ".back.npy"),
                          scipy.fft.irfftn(hat, s=geo.shape, axes=geo.grid_axes))
