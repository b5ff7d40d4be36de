"""Periodic fields on the square torus with spectral calculus.

The domain is [0,1)^{2n}, read as the complex torus C^n/(Z+iZ)^n through
z^j = x^j + i y^j.  Grids are uniform with N points per real axis, axes
ordered (x^1, y^1, ..., x^n, y^n), and every array is row-major over
that order.

Transforms follow numpy's FFT conventions: the forward transform is an
unnormalized DFT and the inverse carries the 1/N^{2n} factor, with modes
laid out as np.fft.fftfreq.  Real fields are transformed to their half
spectrum (rfftn over every grid axis, so the last axis keeps the
modes 0..N/2, the Nyquist bin carrying the fftfreq value -N/2).
Derivatives are Fourier multipliers, exact to rounding for fields whose
modes stay inside the resolved band, and the rectangle rule (the plain
mean of grid values) integrates products of band-limited fields exactly.

The grid's rank chooses the module that runs a real transform.  2-D
grids (n = 1) use numpy.fft.  4-D grids (n = 2) use scipy's pocketfft
kernel, which keeps numpy's conventions and runs a 16^4 transform about a
fifth faster on one worker; numpy.fft there would also change the bits of
every n = 2 output.  scipy.fft's rfftn and irfftn are each one call into
that kernel, the C++ extension scipy/fft/_pocketfft/pypocketfft, so
_fft_module loads the extension alone, by file path and under its full
name, and makes the same two calls with scipy's default norm and one
worker, beside the unnormalized single-axis passes of the band inverse
(below).  Importing scipy.fft after numpy costs 0.2-0.3 s and about 27 MB,
almost none of it the transforms: it loads scipy.special and scipy's
shared array-API layer, which walks numpy's attributes and so loads
numpy.f2py, numpy.testing and more.  The extension alone loads in a few
milliseconds and loads no scipy module.  It is not scipy's public API, so
where it cannot be found or loaded _fft_module imports scipy.fft instead,
with the same bits, and tests pin the kernel's bits to scipy.fft's.
_fft_module loads the n = 2 transforms at the first 4-D transform, or when
the command line's set-up loads the back ends a config runs (cli), and
records which one it loaded in FFT_LIBRARY for the run's manifest.  The
shape draws of random_band_limited stay on numpy's complex fftn/ifftn at
every rank.  Only this module runs transforms.

d/dx^a has the multiplier 2 pi i k_a, odd in k: one inverse real
transform per axis gives the real gradient, from whose x^j and y^j
parts d/dz^j = (d/dx^j - i d/dy^j)/2 is formed.  The multiplier of
d_j d_kbar is
-pi^2 * conj(w_j) * w_k with w_j = k_{x^j} + i k_{y^j}.  Its real and
imaginary parts are even in k, so each part maps a real field to a real
field and one inverse real transform per part and entry j <= k gives
the Hessian.

Band arrays.  A half spectrum that is zero outside the 2/3-rule band
(every |k_axis| <= c = N//3) is carried as its band array alone: the modes
0..c, -c..-1 of each full axis and 0..c of the half axis, cut into
2^(2n-1) blocks that are contiguous in both arrays (band_blocks).  At
n = 2, N = 16 that is 11*11*11*6 = 7,986 coefficients against 36,864.
_band_of gathers it and _irfft_band inverts it.  At n = 1 the inverse puts
the band into a zero half spectrum and calls irfftn.  At n = 2 it runs the
passes of the kernel's multi-axis c2r itself, in its order: a backward
c2c on axes 0, 1 and 2 in turn, then a c2r on axis 3.  Each c2c pass
covers only the lines whose later-axis indices lie in the band, 726 +
1,056 + 1,536 lines at N = 16 against 3 x 2,304; a skipped line is all
zero, and so is its transform.  The bits are irfftn's on the zero-padded
spectrum: each line kept goes through the same one-dimensional transform,
and pocketfft applies the 1/N^{2n} of the inverse (the reciprocal taken
in long double, rounded once) as one multiplication of each output of the
last pass, which _irfft_band makes after an unnormalized c2r.  Tests pin
these bits at n = 1 and n = 2, with N a power of two and not, and under
the scipy.fft fallback.

Hermitian coefficient fields are stored packed: a real float64 array of
shape (n^2, *grid), one contiguous grid array per slot.  The slots are
the real parts of the diagonal and the real and imaginary parts of the
upper triangle, row by row: (0,0) at n = 1, and (0,0), Re(0,1), Im(0,1),
(1,1) at n = 2.  The lower triangle is the conjugate of the upper one,
so every packed array is a Hermitian field.  This module writes the
layout; the n <= 2 closed forms of geometry read it.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path
from types import SimpleNamespace

import numpy as np

TWO_PI = 2.0 * math.pi
PI_SQ = math.pi * math.pi

__all__ = [
    "FieldError",
    "TorusGeometry",
    "ScalarField",
    "HermitianField",
    "constant_field",
    "complex_hessian",
    "flat_laplacian",
    "integrate",
    "lp_norm",
    "random_band_limited",
    "truncate_modes",
]


class FieldError(ValueError):
    """Malformed grid data: wrong shape, non-finite entries, bad modes."""


@dataclass(frozen=True)
class TorusGeometry:
    """Uniform periodic grid: n complex dimensions, N points per real axis.

    N must be even and at least 4 (powers of two give the fastest
    transforms); n is limited to 1 or 2 since storage grows like N^{2n}.
    Instances are value objects: two geometries with equal (n, N) compare
    equal, and every field refers to exactly one geometry.
    """

    n: int
    N: int

    def __post_init__(self) -> None:
        if self.n not in (1, 2):
            raise FieldError(f"complex dimension must be 1 or 2, got n={self.n}")
        if self.N < 4 or self.N % 2 != 0:
            raise FieldError(f"grid size must be even and >= 4, got N={self.N}")

    @property
    def axes(self) -> int:
        return 2 * self.n

    @property
    def shape(self) -> tuple:
        return (self.N,) * self.axes

    @property
    def spacing(self) -> float:
        return 1.0 / self.N

    @property
    def half_shape(self) -> tuple:
        """Shape of a half spectrum: rfftn keeps N/2 + 1 modes on the last axis."""
        return self.shape[:-1] + (self.N // 2 + 1,)

    @property
    def npoints(self) -> int:
        return self.N ** self.axes

    @property
    def dealias_cutoff(self) -> int:
        # 2/3-rule band: modes kept after truncating the top third
        return self.N // 3

    def coordinate(self, axis: int) -> np.ndarray:
        """Grid coordinates along one real axis, dense on the full grid."""
        c = np.arange(self.N, dtype=np.float64) / self.N
        shp = [1] * self.axes
        shp[axis] = self.N
        return np.ascontiguousarray(np.broadcast_to(c.reshape(shp), self.shape))

    def coordinates(self) -> tuple:
        return tuple(self.coordinate(a) for a in range(self.axes))

    @cached_property
    def mode_arrays(self) -> tuple:
        """Integer mode numbers along each real axis, broadcastable."""
        base = np.fft.fftfreq(self.N) * self.N
        out = []
        for a in range(self.axes):
            shp = [1] * self.axes
            shp[a] = self.N
            out.append(base.reshape(shp))
        return tuple(out)

    @property
    def grid_axes(self) -> tuple:
        return tuple(range(self.axes))

    @cached_property
    def half_mode_arrays(self) -> tuple:
        """mode_arrays restricted to the half spectrum of rfftn."""
        half = self.N // 2 + 1
        return tuple(m[..., :half] for m in self.mode_arrays)

    @cached_property
    def hessian_symbols(self) -> tuple:
        """Half-spectrum multipliers of d_j d_kbar, one real array per
        packed slot: the parts of -pi^2 conj(w_j) w_k for j <= k."""
        m = self.half_mode_arrays
        w = [m[2 * j] + 1j * m[2 * j + 1] for j in range(self.n)]
        out = []
        for j in range(self.n):
            for k in range(j, self.n):
                sym = -PI_SQ * np.conj(w[j]) * w[k]
                out.append(np.ascontiguousarray(sym.real))
                if j != k:
                    out.append(np.ascontiguousarray(sym.imag))
        return tuple(out)

    @cached_property
    def laplace_symbol(self) -> np.ndarray:
        """Half-spectrum multiplier of tr_I(d dbar), i.e. -pi^2 |k|^2."""
        return sum(self.hessian_symbols[j * (self.n + 1)] for j in range(self.n))

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        """Half-spectrum mask of the 2/3-rule band."""
        return _band(self.half_mode_arrays, self.dealias_cutoff)

    @property
    def band_shape(self) -> tuple:
        """Shape of a band array: the 2/3-rule band of the half spectrum as
        its own array, with the modes 0..c, -c..-1 on each full axis and
        0..c on the half axis (c = dealias_cutoff)."""
        c = self.dealias_cutoff
        return (2 * c + 1,) * (self.axes - 1) + (c + 1,)

    @cached_property
    def band_blocks(self) -> tuple:
        """(half-spectrum index, band-array index) of each of the 2^(2n-1)
        blocks a band array is cut into, contiguous in both; each index
        starts with an Ellipsis, for leading slot axes."""
        c, N = self.dealias_cutoff, self.N
        # (spectrum, band) slices of the modes 0..c and -c..-1 of a full axis
        pieces = ((slice(0, c + 1), slice(0, c + 1)), (slice(N - c, N), slice(c + 1, 2 * c + 1)))
        blocks = []
        for p in itertools.product(pieces, repeat=self.axes - 1):
            spectrum, band = zip(*p)
            blocks.append(((Ellipsis, *spectrum, slice(0, c + 1)), (Ellipsis, *band, slice(None))))
        return tuple(blocks)


def _band(modes: tuple, cut: int) -> np.ndarray:
    """Mask of the modes with every |k_axis| <= cut."""
    keep = np.ones((), dtype=bool)
    for m in modes:
        keep = keep & (np.abs(m) <= cut)
    return keep


# The module that runs each grid rank's real transforms, by name, for the
# manifest: "numpy.fft", and at n = 2, once _fft_module has loaded it,
# "pypocketfft" (the kernel alone) or "scipy.fft" (the fallback).
FFT_LIBRARY = {1: "numpy.fft"}
_KERNEL = "scipy.fft._pocketfft.pypocketfft"
_fft_4d = None  # the transforms of 4-D grids, once loaded


def _fft_module(geometry: TorusGeometry):
    """numpy.fft on 2-D grids; on 4-D ones the calls of scipy's pocketfft
    kernel, loaded alone, or of scipy.fft where it cannot be (module
    docstring).  The 4-D calls are rfftn and irfftn, as scipy.fft's but with
    irfftn writing into out, and the unnormalized single-axis passes of a
    band inverse: c2c, complex and backward, in place, and c2r, complex to
    real, into out."""
    global _fft_4d
    if geometry.n == 1:
        return np.fft
    if _fft_4d is None:
        try:  # find_spec locates scipy without importing it
            where = Path(importlib.util.find_spec("scipy").origin).parent / "fft" / "_pocketfft"
            names = (where / f"pypocketfft{suffix}" for suffix in EXTENSION_SUFFIXES)
            path = next(filter(Path.is_file, names))
            spec = importlib.util.spec_from_file_location(_KERNEL, path)
            kernel = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(kernel)
        except (AttributeError, StopIteration, ImportError):  # no scipy, no file, or no load
            import scipy.fft

            _fft_4d = SimpleNamespace(
                rfftn=scipy.fft.rfftn,
                irfftn=lambda x, s, axes, out: np.copyto(out, scipy.fft.irfftn(x, s=s, axes=axes)),
                c2c=lambda x, axis: np.copyto(x, scipy.fft.ifft(x, axis=axis, norm="forward")),
                c2r=lambda x, n, axis, out: np.copyto(out, scipy.fft.irfft(x, n, axis=axis,
                                                                          norm="forward")),
            )
            FFT_LIBRARY[2] = "scipy.fft"
        else:
            # scipy.fft's calls: forward unnormalized (0), inverse by 1/N^{2n} (2),
            # one worker; the band passes are backward (False) and unnormalized
            _fft_4d = SimpleNamespace(
                rfftn=lambda x, axes: kernel.r2c(x, axes, True, 0, None, 1),
                irfftn=lambda x, s, axes, out: kernel.c2r(x, axes, s[-1], False, 2, out, 1),
                c2c=lambda x, axis: kernel.c2c(x, (axis,), False, 0, x, 1),
                c2r=lambda x, n, axis, out: kernel.c2r(x, (axis,), n, False, 0, out, 1),
            )
            FFT_LIBRARY[2] = "pypocketfft"
    return _fft_4d


def _rfft(geometry: TorusGeometry, values: np.ndarray) -> np.ndarray:
    """Half spectrum of real grid values."""
    return _fft_module(geometry).rfftn(values, axes=geometry.grid_axes)


def _irfft(geometry: TorusGeometry, hat: np.ndarray, out=None) -> np.ndarray:
    """Real grid values of a half spectrum, over its last 2n axes; into out
    when given."""
    lead = hat.shape[: hat.ndim - geometry.axes]
    if out is None:
        out = np.empty(lead + geometry.shape)
    axes = tuple(range(len(lead), hat.ndim))
    _fft_module(geometry).irfftn(hat, s=geometry.shape, axes=axes, out=out)
    return out


def _band_of(geometry: TorusGeometry, hat: np.ndarray) -> np.ndarray:
    """The band array of a half spectrum (leading slot axes allowed)."""
    out = np.empty(hat.shape[: hat.ndim - geometry.axes] + geometry.band_shape, dtype=hat.dtype)
    for spectrum, band in geometry.band_blocks:
        out[band] = hat[spectrum]
    return out


def _irfft_band(geometry: TorusGeometry, band: np.ndarray, out=None) -> np.ndarray:
    """Real grid values of a band array (leading slot axes allowed), bit for
    bit those _irfft gives on its zero-padded half spectrum; into out when
    given (module docstring)."""
    lead = band.shape[: band.ndim - geometry.axes]
    if out is None:
        out = np.empty(lead + geometry.shape)
    if geometry.n == 1:
        return _irfft(geometry, _padded(geometry, band), out)
    # irfftn's passes, slot by slot: backward c2c on each full axis in turn,
    # then c2r on the half axis, each over the lines whose later indices
    # are in the band
    N, c = geometry.N, geometry.dealias_cutoff
    fft, low = _fft_module(geometry), slice(0, c + 1)
    halves = (low, slice(N - c, N))
    # irfftn's factor 1/N^{2n}, as pocketfft takes it: the reciprocal in
    # long double, rounded once, times each output of the last pass
    factor = float(1 / np.longdouble(geometry.npoints))
    for slot in np.ndindex(lead):
        hat = _padded(geometry, band[slot])
        for axis in range(geometry.axes - 1):
            for later in itertools.product(halves, repeat=geometry.axes - 2 - axis):
                fft.c2c(hat[(slice(None),) * (axis + 1) + later + (low,)], axis)
        fft.c2r(hat, N, geometry.axes - 1, out[slot])
        out[slot] *= factor
    return out


def _padded(geometry: TorusGeometry, band: np.ndarray) -> np.ndarray:
    """The half spectrum of a band array, zero outside the band."""
    hat = np.zeros(band.shape[: band.ndim - geometry.axes] + geometry.half_shape,
                   dtype=np.complex128)
    for spectrum, part in geometry.band_blocks:
        hat[spectrum] = band[part]
    return hat


def _hessian(geometry: TorusGeometry, hat: np.ndarray) -> np.ndarray:
    """d_j d_kbar of the real field with half spectrum hat, packed: one
    inverse real transform per slot, each symbol multiplied into one reused
    buffer and inverted straight into its slot."""
    out = np.empty((len(geometry.hessian_symbols),) + geometry.shape)
    buf = np.empty_like(hat)
    for slot, sym in enumerate(geometry.hessian_symbols):
        _irfft(geometry, np.multiply(sym, hat, out=buf), out=out[slot])
    return out


def _gradient(geometry: TorusGeometry, hat: np.ndarray) -> np.ndarray:
    """d/dx^a of the real field with half spectrum hat, one array per real
    axis: one inverse real transform per axis."""
    out = np.empty((geometry.axes,) + geometry.shape)
    for a, k in enumerate(geometry.half_mode_arrays):
        out[a] = _irfft(geometry, (TWO_PI * 1j) * k * hat)
    return out


def _check_values(geometry: TorusGeometry, values, dtype) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != geometry.shape:
        raise FieldError(
            f"field shape {arr.shape} does not match grid shape {geometry.shape}"
        )
    if not np.all(np.isfinite(arr)):
        raise FieldError("field contains non-finite values")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True, eq=False)
class ScalarField:
    """Real scalar sample per grid point."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.geometry, self.values, np.float64))

    def _coerce(self, other):
        if isinstance(other, ScalarField):
            if other.geometry != self.geometry:
                raise FieldError("fields live on different grids")
            return other.values
        if np.isscalar(other):
            return float(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ScalarField(self.geometry, self.values + v)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ScalarField(self.geometry, self.values - v)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ScalarField(self.geometry, self.values * v)

    __rmul__ = __mul__

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True, eq=False)
class HermitianField:
    """Per-point n x n Hermitian matrix in the packed layout of the
    module docstring: real float64 values of shape (n^2, *grid).

    The layout holds only the upper triangle, so every real array of the
    right shape is Hermitian; construction checks reality, shape and finiteness.
    """

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        if np.iscomplexobj(self.values):
            raise FieldError("matrix field values must be the real packed slots, got complex")
        arr = np.asarray(self.values, dtype=np.float64)
        want = (self.geometry.n**2,) + self.geometry.shape
        if arr.shape != want:
            raise FieldError(f"matrix field shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise FieldError("matrix field contains non-finite values")
        object.__setattr__(self, "values", arr)


def constant_field(geometry: TorusGeometry, value: float) -> ScalarField:
    return ScalarField(geometry, np.full(geometry.shape, float(value)))


def complex_hessian(phi: ScalarField) -> HermitianField:
    """Matrix of d_j d_kbar phi."""
    g = phi.geometry
    return HermitianField(g, _hessian(g, _rfft(g, phi.values)))


def flat_laplacian(f: ScalarField) -> ScalarField:
    """tr_I(d dbar f): one quarter of the Euclidean Laplacian."""
    g = f.geometry
    return ScalarField(g, _irfft(g, g.laplace_symbol * _rfft(g, f.values)))


def integrate(f: ScalarField) -> float:
    """Rectangle-rule integral over the unit-volume torus."""
    return float(np.mean(f.values))


def lp_norm(f: ScalarField, p: float, weight: ScalarField | None = None) -> float:
    """L^p norm with an optional nonnegative weight density.

    p may be math.inf: the sup is then taken over the whole grid and the
    weight is only validated, not applied, which matches the a.e. sup for
    a positive weight.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    absf = np.abs(f.values)
    if weight is not None:
        if weight.geometry != f.geometry:
            raise FieldError("weight lives on a different grid")
        if weight.values.min() < 0:
            raise ValueError("weight must be nonnegative")
    if math.isinf(p):
        return float(absf.max())
    dens = absf**p if weight is None else absf**p * weight.values
    return float(np.mean(dens) ** (1.0 / p))


def random_band_limited(seed: int, max_mode: int, geometry: TorusGeometry) -> ScalarField:
    """Deterministic mean-zero random field, modes |k|_inf <= max_mode,
    normalized to unit L^2 norm."""
    if max_mode < 1:
        raise FieldError(f"max_mode must be >= 1, got {max_mode}")
    if 3 * max_mode > geometry.N:
        raise FieldError(
            f"max_mode {max_mode} exceeds the dealiasing headroom N/3 = {geometry.N / 3:g}"
        )
    rng = np.random.default_rng(seed)
    hat = np.fft.fftn(rng.standard_normal(geometry.shape))
    hat = np.where(_band(geometry.mode_arrays, max_mode), hat, 0.0)
    hat[(0,) * geometry.axes] = 0.0
    vals = np.fft.ifftn(hat).real
    nrm = math.sqrt(float(np.mean(vals**2)))
    if nrm == 0.0:
        raise FieldError("degenerate draw: field vanished after band-limiting")
    return ScalarField(geometry, vals / nrm)


def truncate_modes(f: ScalarField, cutoff: int | None = None) -> ScalarField:
    """Zero all modes with any |k_axis| above the cutoff (default N//3)."""
    g = f.geometry
    cut = g.dealias_cutoff if cutoff is None else int(cutoff)
    keep = g.dealias_keep if cut == g.dealias_cutoff else _band(g.half_mode_arrays, cut)
    return ScalarField(g, _irfft(g, keep * _rfft(g, f.values)))
