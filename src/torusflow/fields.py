"""Periodic fields on the square torus with spectral calculus.

The domain is [0,1)^{2n}, read as the complex torus C^n/(Z+iZ)^n through
z^j = x^j + i y^j.  Grids are uniform with N points per real axis, axes
ordered (x^1, y^1, ..., x^n, y^n), and every array is row-major over
that order.

Transforms follow numpy's FFT conventions: the forward transform is an
unnormalized DFT and the inverse carries the 1/N^{2n} factor, with modes
laid out as np.fft.fftfreq.  Derivatives are Fourier multipliers, exact
to rounding for fields whose modes stay inside the resolved band, and
the rectangle rule (the plain mean of grid values) integrates products
of band-limited fields exactly.

Wirtinger derivatives use d/dz^j = (d/dx^j - i d/dy^j)/2 and its
conjugate; on the mode k the multiplier of d_j d_kbar is
-pi^2 * conj(w_j) * w_k with w_j = k_{x^j} + i k_{y^j}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
PI_SQ = math.pi * math.pi

__all__ = [
    "FieldError",
    "TorusGeometry",
    "ScalarField",
    "SpectralCoeffs",
    "HermitianField",
    "constant_field",
    "to_spectral",
    "from_spectral",
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

    @cached_property
    def wirtinger_modes(self) -> tuple:
        """w_j = k_{x^j} + i k_{y^j} per complex axis, broadcastable."""
        m = self.mode_arrays
        return tuple(m[2 * j] + 1j * m[2 * j + 1] for j in range(self.n))

    @cached_property
    def laplace_symbol(self) -> np.ndarray:
        """Multiplier of tr_I(d dbar), i.e. -pi^2 |k|^2 on mode k."""
        acc = 0.0
        for w in self.wirtinger_modes:
            acc = acc + np.abs(w) ** 2
        return -PI_SQ * acc

    @cached_property
    def dealias_keep(self) -> np.ndarray:
        cut = self.dealias_cutoff
        keep = None
        for m in self.mode_arrays:
            k = np.abs(m) <= cut
            keep = k if keep is None else (keep & k)
        return keep


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

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ScalarField(self.geometry, v - self.values)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ScalarField(self.geometry, self.values * v)

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.geometry, -self.values)

    def min(self) -> float:
        return float(self.values.min())

    def max(self) -> float:
        return float(self.values.max())


@dataclass(frozen=True, eq=False)
class SpectralCoeffs:
    """Unnormalized DFT coefficients in np.fft layout."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _check_values(self.geometry, self.values, np.complex128))


@dataclass(frozen=True, eq=False)
class HermitianField:
    """Per-point n x n Hermitian matrix, stored as grid + (n, n) complex.

    Hermiticity is validated on construction (tolerance 1e-12 relative to
    the largest entry); the factory functions in this package build
    exactly Hermitian arrays.
    """

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=np.complex128)
        want = self.geometry.shape + (self.geometry.n, self.geometry.n)
        if arr.shape != want:
            raise FieldError(f"matrix field shape {arr.shape}, expected {want}")
        if not np.all(np.isfinite(arr)):
            raise FieldError("matrix field contains non-finite values")
        scale = max(1.0, float(np.abs(arr).max()))
        gap = np.abs(arr - np.conj(np.swapaxes(arr, -1, -2))).max()
        if gap > 1e-12 * scale:
            raise FieldError(f"matrix field is not Hermitian (defect {gap:.3e})")
        object.__setattr__(self, "values", np.ascontiguousarray(arr))


def constant_field(geometry: TorusGeometry, value: float) -> ScalarField:
    return ScalarField(geometry, np.full(geometry.shape, float(value)))


def to_spectral(field: ScalarField) -> SpectralCoeffs:
    """Forward DFT of a scalar field."""
    return SpectralCoeffs(field.geometry, np.fft.fftn(field.values))


def from_spectral(coeffs: SpectralCoeffs) -> ScalarField:
    """Inverse DFT, dropping the O(eps) imaginary residue."""
    return ScalarField(coeffs.geometry, np.fft.ifftn(coeffs.values).real)


def complex_hessian(phi: ScalarField) -> HermitianField:
    """Matrix of d_j d_kbar phi; exactly Hermitian by construction."""
    g = phi.geometry
    hat = np.fft.fftn(phi.values)
    w = g.wirtinger_modes
    out = np.zeros(g.shape + (g.n, g.n), dtype=np.complex128)
    for j in range(g.n):
        for k in range(j, g.n):
            sym = -PI_SQ * np.conj(w[j]) * w[k]
            e = np.fft.ifftn(sym * hat)
            if j == k:
                out[..., j, j] = e.real
            else:
                out[..., j, k] = e
                out[..., k, j] = np.conj(e)
    return HermitianField(g, out)


def flat_laplacian(f: ScalarField) -> ScalarField:
    """tr_I(d dbar f): one quarter of the Euclidean Laplacian."""
    g = f.geometry
    hat = np.fft.fftn(f.values)
    return ScalarField(g, np.fft.ifftn(g.laplace_symbol * hat).real)


def integrate(f: ScalarField) -> float:
    """Rectangle-rule integral over the unit-volume torus."""
    return float(np.mean(f.values))


def lp_norm(f: ScalarField, p: float, weight: ScalarField | None = None) -> float:
    """L^p norm with an optional nonnegative weight density.

    p may be math.inf (the weight is ignored there beyond masking zeros:
    the sup is taken over the whole grid, matching a.e. sup for positive
    weights).
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
    keep = None
    for m in geometry.mode_arrays:
        k = np.abs(m) <= max_mode
        keep = k if keep is None else (keep & k)
    hat = np.where(keep, hat, 0.0)
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
    keep = g.dealias_keep if cut == g.dealias_cutoff else None
    if keep is None:
        keep = np.ones((), dtype=bool)
        for m in g.mode_arrays:
            keep = keep & (np.abs(m) <= cut)
    hat = np.fft.fftn(f.values)
    return ScalarField(g, np.fft.ifftn(np.where(keep, hat, 0.0)).real)
