"""Pointwise and integral Kahler geometry for torus metrics g = H + d dbar phi.

Conventions, fixed once for the whole package:

  volume      int omega^n = 2^n n! int det(g) dLeb, so the flat unit
              metric has volume 2 for n=1 and 8 for n=2;
  curvature   Ricci = -d dbar log det g, scalar = tr_g Ricci.  This is
              the complex (Chern) normalization; the Riemannian scalar
              curvature of the underlying real metric is twice it;
  positivity  curvature and volume operations insist on a minimum
              eigenvalue of at least EPS_POS.

Backgrounds H are constant Hermitian positive matrices; the potential
phi is a real grid field, normalized to zero mean on ingest since the
metric is blind to the additive constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    FieldError,
    HermitianField,
    ScalarField,
    TorusGeometry,
    _hessian,
    _irfft,
    _rfft,
    complex_hessian,
    constant_field,
    integrate,
)

EPS_POS = 1e-8

__all__ = [
    "EPS_POS",
    "PositivityError",
    "ProjectionError",
    "KahlerMetric",
    "FlatMetric",
    "TestForm",
    "assemble",
    "det_field",
    "inverse_field",
    "eigenvalue_range",
    "min_eigenvalue",
    "log_det_field",
    "volume",
    "ricci",
    "scalar_curvature",
    "scalar_curvature_of",
    "riemann_norm",
    "trace_wrt",
    "harmonic_projection",
    "pair_test_form",
    "pairing_density",
    "volume_density",
]


class PositivityError(ValueError):
    """Metric lost positivity where an operation requires it."""


class ProjectionError(ValueError):
    """Constant-coefficient representative failed its Hessian identity."""


def _check_background(H, n: int) -> np.ndarray:
    arr = np.asarray(H, dtype=np.complex128)
    if arr.shape != (n, n):
        raise FieldError(f"background matrix shape {arr.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(arr)):
        raise FieldError("background matrix has non-finite entries")
    if np.abs(arr - arr.conj().T).max() > 1e-12 * max(1.0, np.abs(arr).max()):
        raise FieldError("background matrix is not Hermitian")
    evals = np.linalg.eigvalsh(arr)
    if evals.min() <= 0:
        raise PositivityError(f"background matrix not positive (eigenvalues {evals})")
    return arr


@dataclass(frozen=True, eq=False)
class KahlerMetric:
    """Constant background H plus the complex Hessian of a potential.

    Positivity of the assembled coefficients is enforced by the
    operations that need it, not eagerly here, so that calibration loops
    may probe candidate amplitudes cheaply.
    """

    H: np.ndarray
    phi: ScalarField

    def __post_init__(self) -> None:
        H = _check_background(self.H, self.phi.geometry.n)
        object.__setattr__(self, "H", H)
        mean = integrate(self.phi)
        # skip sub-rounding means so reconstruction is bit-stable
        scale = 1.0 + float(np.abs(self.phi.values).max())
        if abs(mean) > 1e-15 * scale:
            object.__setattr__(self, "phi", self.phi - mean)

    @property
    def geometry(self) -> TorusGeometry:
        return self.phi.geometry


@dataclass(frozen=True, eq=False)
class FlatMetric:
    """Constant-coefficient metric: the matrix H, plus an optional grid
    reference so curvature operations can hand back zero fields."""

    H: np.ndarray
    geometry: TorusGeometry | None = None

    def __post_init__(self) -> None:
        arr = np.asarray(self.H, dtype=np.complex128)
        n = arr.shape[0] if arr.ndim == 2 else 0
        object.__setattr__(self, "H", _check_background(arr, n))
        if self.geometry is not None and self.geometry.n != n:
            raise FieldError("grid dimension does not match the matrix")

    @property
    def n(self) -> int:
        return self.H.shape[0]

    def as_metric(self, geometry: TorusGeometry | None = None) -> KahlerMetric:
        geo = geometry or self.geometry
        if geo is None:
            raise FieldError("no grid attached; pass a geometry")
        if geo.n != self.n:
            raise FieldError("grid dimension does not match the matrix")
        return KahlerMetric(self.H, constant_field(geo, 0.0))


@dataclass(frozen=True, eq=False)
class TestForm:
    """Constant-coefficient (n-1, n-1)-form with a band-limited factor.

    For n=1 the form is just the function f (beta is a positive scalar
    weight); for n=2 it is f times a constant Hermitian coefficient
    matrix beta.
    """

    f: ScalarField
    beta: object = 1.0

    __test__ = False  # not a pytest case despite the name

    def __post_init__(self) -> None:
        n = self.f.geometry.n
        if n == 1:
            b = complex(np.asarray(self.beta).reshape(()))
            if abs(b.imag) > 1e-15:
                raise FieldError("n=1 coefficient must be real")
            object.__setattr__(self, "beta", float(b.real))
        else:
            arr = np.asarray(self.beta, dtype=np.complex128)
            if arr.shape != (n, n):
                raise FieldError(f"coefficient matrix shape {arr.shape}, expected {(n, n)}")
            if np.abs(arr - arr.conj().T).max() > 1e-12 * max(1.0, np.abs(arr).max()):
                raise FieldError("coefficient matrix is not Hermitian")
            object.__setattr__(self, "beta", arr)
        # smoothness gate: the factor must live inside the dealiased band
        g = self.f.geometry
        hat = _rfft(g, self.f.values)
        outside = np.where(g.dealias_keep, 0.0, hat)
        total = float(np.abs(hat).max())
        if total > 0 and float(np.abs(outside).max()) > 1e-10 * total:
            raise FieldError("test-form factor carries modes above the N/3 band")

    @property
    def geometry(self) -> TorusGeometry:
        return self.f.geometry


# ---------------------------------------------------------------------------
# pointwise linear algebra: the n <= 2 closed forms, written only here.
# Arguments are packed coefficients (the layout of the fields module
# docstring): arrays of shape (n^2, *grid), or (n^2,) for one constant
# matrix, which broadcasts against grids; slots are read as v[0] = (0,0),
# v[1] + i v[2] = (0,1) and v[3] = (1,1).


def _pack(m) -> np.ndarray:
    """Packed slots of (..., n, n) Hermitian matrices, slot axis first."""
    m = np.asarray(m, dtype=np.complex128)
    if m.shape[-1] == 1:
        return np.stack([m[..., 0, 0].real])
    return np.stack([m[..., 0, 0].real, m[..., 0, 1].real, m[..., 0, 1].imag, m[..., 1, 1].real])


def _matrices(v: np.ndarray) -> np.ndarray:
    """The (..., n, n) complex matrices of packed slots, slot axis last."""
    n = 1 if len(v) == 1 else 2
    out = np.zeros(np.shape(v)[1:] + (n, n), dtype=np.complex128)
    out.real[..., 0, 0] = v[0]
    if n == 2:
        out.real[..., 1, 1] = v[3]
        out.real[..., 0, 1] = out.real[..., 1, 0] = v[1]
        out.imag[..., 0, 1] = v[2]
        out.imag[..., 1, 0] = -v[2]
    return out


def _det(v: np.ndarray) -> np.ndarray:
    if len(v) == 1:
        return v[0]
    return v[0] * v[3] - (v[1] * v[1] + v[2] * v[2])


def _pairing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr(adj(a) b), which is det(a) tr_a b; for n = 2 it is also a
    quarter of the density of a /\\ b when a is an (n-1, n-1)-form."""
    if len(a) == 1:
        return b[0]
    return a[3] * b[0] + a[0] * b[3] - 2.0 * (a[1] * b[1] + a[2] * b[2])


def _eigenvalues(v: np.ndarray, ref: np.ndarray | None = None) -> tuple:
    """Ascending roots of det(v - lam ref) = 0; ref defaults to the identity."""
    if len(v) == 1:
        return (v[0],) if ref is None else (v[0] / ref[0],)
    if ref is None:
        a, b = 1.0, v[0] + v[3]
    else:
        a, b = _det(ref), _pairing(ref, v)
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * _det(v), 0.0))
    return (b - disc) / (2.0 * a), (b + disc) / (2.0 * a)


def _quadratic_form(v: np.ndarray, w) -> np.ndarray:
    """sum_jk v_{j kbar} w^j conj(w^k) for a complex n-vector w (w[j] may
    itself be an array of components, which broadcasts)."""
    if len(v) == 1:
        return v[0] * abs(w[0]) ** 2
    c = w[0] * np.conj(w[1])
    return v[0] * abs(w[0]) ** 2 + v[3] * abs(w[1]) ** 2 + 2.0 * (v[1] * c.real - v[2] * c.imag)


def _log_det(eig: tuple) -> np.ndarray:
    """log det from the eigenvalues as a sum of logs, which avoids cancellation."""
    return sum(np.log(e) for e in eig)


def _volume(v: np.ndarray) -> float:
    """int omega^n = 2^n n! int det(g) dLeb."""
    n = 1 if len(v) == 1 else 2
    return float((2.0**n) * math.factorial(n) * _det(v).mean())


def _scalar_curvature(geometry: TorusGeometry, v: np.ndarray, log_det_hat: np.ndarray) -> np.ndarray:
    """tr_g Ric with Ric = -d dbar log det g, from the coefficients and the
    half spectrum of log det g."""
    return -_pairing(v, _hessian(geometry, log_det_hat)) / _det(v)


def _coefficients(metric) -> tuple:
    """Resolve metric-like input to (geometry or None, packed coefficients);
    a FlatMetric gives the (n^2,) slots of its matrix, which broadcast
    against grids."""
    if isinstance(metric, HermitianField):
        return metric.geometry, metric.values
    if isinstance(metric, KahlerMetric):
        g = assemble(metric)
        return g.geometry, g.values
    if isinstance(metric, FlatMetric):
        return metric.geometry, _pack(metric.H)
    raise TypeError(f"not a metric-like object: {type(metric).__name__}")


def assemble(metric: KahlerMetric) -> HermitianField:
    """Coefficient field H + d dbar phi, the only place a potential-form
    metric becomes coefficients.  Positivity is left to the operations
    that need it."""
    out = complex_hessian(metric.phi)
    # a packed sum stays a valid field, so it is not validated a second
    # time; out owns its fresh array
    for slot, h in zip(out.values, _pack(metric.H)):
        slot += h
    return out


def det_field(g: HermitianField) -> np.ndarray:
    return _det(g.values)


def eigenvalue_range(metric) -> tuple:
    """(min, max) eigenvalue over the grid; closed form for n <= 2."""
    _, v = _coefficients(metric)
    eig = _eigenvalues(v)
    return float(eig[0].min()), float(eig[-1].max())


def _min_eigenvalue(v: np.ndarray) -> float:
    return float(_eigenvalues(v)[0].min())


def min_eigenvalue(metric) -> float:
    return _min_eigenvalue(_coefficients(metric)[1])


def inverse_field(g: HermitianField) -> np.ndarray:
    """Packed coefficients of g^{-1}."""
    v = g.values
    det = _det(v)
    if len(v) == 1:
        return np.stack([1.0 / det])
    return np.stack([v[3] / det, -v[1] / det, -v[2] / det, v[0] / det])


def log_det_field(g: HermitianField, eps_pos: float = EPS_POS) -> ScalarField:
    """log det g as a sum of eigenvalue logs, which avoids cancellation."""
    eig = _eigenvalues(g.values)
    if eig[0].min() < eps_pos:
        raise PositivityError(f"metric eigenvalue below {eps_pos:g}")
    return ScalarField(g.geometry, _log_det(eig))


def volume(metric) -> float:
    """int omega^n = 2^n n! int det(g) dLeb; requires positivity."""
    _, v = _coefficients(metric)
    if _min_eigenvalue(v) <= 0:
        raise PositivityError("volume of a non-positive metric")
    return _volume(v)


def ricci(metric, eps_pos: float = EPS_POS) -> HermitianField:
    """-d dbar log det g; identically zero for constant coefficients."""
    if isinstance(metric, FlatMetric):
        if metric.geometry is None:
            raise FieldError("constant-coefficient input carries no grid; attach one")
        zeros = np.zeros((metric.n**2,) + metric.geometry.shape)
        return HermitianField(metric.geometry, zeros)
    g = assemble(metric) if isinstance(metric, KahlerMetric) else metric
    return complex_hessian(-log_det_field(g, eps_pos))


def scalar_curvature_of(g: HermitianField, eps_pos: float = EPS_POS) -> ScalarField:
    """Scalar curvature from assembled coefficients."""
    geo = g.geometry
    log_det_hat = _rfft(geo, log_det_field(g, eps_pos).values)
    return ScalarField(geo, _scalar_curvature(geo, g.values, log_det_hat))


def scalar_curvature(metric, eps_pos: float = EPS_POS) -> ScalarField:
    if isinstance(metric, FlatMetric):
        if metric.geometry is None:
            raise FieldError("constant-coefficient input carries no grid; attach one")
        return constant_field(metric.geometry, 0.0)
    g = assemble(metric) if isinstance(metric, KahlerMetric) else metric
    return scalar_curvature_of(g, eps_pos)


def riemann_norm(metric: KahlerMetric, eps_pos: float = EPS_POS) -> ScalarField:
    """Pointwise norm |Rm| of the curvature tensor of g = H + d dbar phi.

    R_{j kbar l mbar} = -d_j d_kbar g_{l mbar}
                        + g^{p qbar} (d_j g_{l qbar}) (d_kbar g_{p mbar}),
    fully contracted with the inverse metric.  Scales like 1/lambda when
    the metric is scaled by lambda.
    """
    if not isinstance(metric, KahlerMetric):
        raise TypeError("riemann_norm needs a potential-form metric")
    geo = metric.geometry
    n = geo.n
    g = assemble(metric)
    if min_eigenvalue(g) < eps_pos:
        raise PositivityError(f"metric eigenvalue below {eps_pos:g}")
    hat = np.fft.fftn(metric.phi.values)
    w = geo.wirtinger_modes
    # d_a has multiplier i*pi*conj(w_a); d_abar has i*pi*w_a
    d3 = np.zeros(geo.shape + (n, n, n), dtype=np.complex128)  # d_j d_l d_mbar phi
    for j in range(n):
        for l in range(j, n):
            for m in range(n):
                sym = (1j * math.pi) ** 3 * np.conj(w[j] * w[l]) * w[m]
                val = np.fft.ifftn(sym * hat)
                d3[..., j, l, m] = val
                if l != j:
                    d3[..., l, j, m] = val
    d4 = np.zeros(geo.shape + (n, n, n, n), dtype=np.complex128)  # d_j d_kbar d_l d_mbar phi
    for j in range(n):
        for l in range(j, n):
            for k in range(n):
                for m in range(n):
                    sym = (math.pi**4) * np.conj(w[j] * w[l]) * w[k] * w[m]
                    val = np.fft.ifftn(sym * hat)
                    d4[..., j, k, l, m] = val
                    if l != j:
                        d4[..., l, k, j, m] = val
    ginv = _matrices(inverse_field(g))
    # g^{p qbar} X_p conj(Y_q) pairs through Ginv[q, p]
    rm = -d4 + np.einsum("...qp,...jlq,...kmp->...jklm", ginv, d3, np.conj(d3))
    t = np.einsum("...pj,...jklm->...pklm", ginv, rm)
    t = np.einsum("...kq,...pklm->...pqlm", ginv, t)
    t = np.einsum("...rl,...pqlm->...pqrm", ginv, t)
    t = np.einsum("...ms,...pqrm->...pqrs", ginv, t)
    sq = np.einsum("...pqrs,...pqrs->...", t, np.conj(rm)).real
    return ScalarField(geo, np.sqrt(np.maximum(sq, 0.0)))


def trace_wrt(a, b) -> ScalarField:
    """tr_a b = a^{j kbar} b_{j kbar}, pointwise; a must be positive."""
    geo_a, va = _coefficients(a)
    geo_b, vb = _coefficients(b)
    geo = geo_a or geo_b
    if geo is None:
        raise FieldError("at least one argument must carry a grid")
    if geo_a is not None and geo_b is not None and geo_a != geo_b:
        raise FieldError("arguments live on different grids")
    if _min_eigenvalue(va) <= 0:
        raise PositivityError("trace base metric is not positive")
    val = _pairing(va, vb) / _det(va)
    return ScalarField(geo, np.broadcast_to(val, geo.shape).copy())


def harmonic_projection(metric: KahlerMetric, tol: float = 1e-6):
    """Split g into its grid-average matrix plus a potential Hessian.

    Returns (flat, u) with  flat.H = <g>  and  d dbar u = flat.H - g,
    u gauged so that max u = 0.  The potential is recovered through a
    Poisson solve on the trace and then verified against the full
    Hessian identity; a residual above tol is an error.
    """
    geo = metric.geometry
    g = assemble(metric)
    Hbar = g.values.mean(axis=tuple(range(1, 1 + geo.axes)), keepdims=True)
    diff = Hbar - g.values  # target Hessian of u
    rho = _pairing(_pack(np.eye(geo.n)), diff)  # tr(adj(I) diff), the trace
    sym = geo.laplace_symbol.copy()
    sym[(0,) * geo.axes] = 1.0  # mean sector handled by the gauge shift
    u_hat = _rfft(geo, rho) / sym
    u_hat[(0,) * geo.axes] = 0.0
    u = ScalarField(geo, _irfft(geo, u_hat))
    residual = float(np.abs(_matrices(complex_hessian(u).values - diff)).max())
    if residual > tol:
        raise ProjectionError(
            f"Hessian identity residual {residual:.3e} exceeds {tol:g}: "
            "the input is not of potential form over a constant background"
        )
    u = u - u.max()
    return FlatMetric(_matrices(Hbar.reshape(-1)), geometry=geo), u


def _wedge_density(coeffs: np.ndarray, beta, n: int) -> np.ndarray:
    """Density of eta /\\ omega against dLeb for constant-coefficient eta."""
    if n == 1:
        return 2.0 * float(beta) * _det(coeffs)
    return 4.0 * _pairing(_pack(beta), coeffs)


def pair_test_form(metric, form: TestForm) -> float:
    """int f * beta /\\ omega; reduces to the volume when f = 1, beta = H."""
    geo, v = _coefficients(metric)
    geo = geo or form.geometry
    if geo != form.geometry:
        raise FieldError("metric and form live on different grids")
    dens = _wedge_density(v, form.beta, geo.n)
    return float(np.mean(form.f.values * dens))


def pairing_density(form: TestForm) -> ScalarField:
    """Density of (d dbar of the form) against dLeb.

    Pairs with a potential by a plain integral: for omega' - omega =
    d dbar psi the pairing gap int form /\\ (omega' - omega) equals
    int psi * pairing_density(form), the discrete integration by parts
    being exact for band-limited data.
    """
    geo = form.geometry
    hess = complex_hessian(form.f).values
    return ScalarField(geo, _wedge_density(hess, form.beta, geo.n))


def volume_density(metric, reference: FlatMetric) -> ScalarField:
    """det(g) / det(reference.H) as a grid field."""
    geo, v = _coefficients(metric)
    if geo is None:
        raise FieldError("volume_density needs a grid-carrying metric")
    ref_det = float(_det(_pack(reference.H)))
    if ref_det <= 0:
        raise PositivityError("reference metric is not positive")
    return ScalarField(geo, _det(v) / ref_det)
