"""Pointwise and integral Kahler geometry for torus metrics g = H + d dbar phi.

Conventions, fixed once for the whole package:

  volume      int omega^n = 2^n n! int det(g) dLeb, so the flat unit
              metric has volume 2 for n=1 and 8 for n=2;
  curvature   Ricci = -d dbar log det g, scalar = tr_g Ricci.  This is
              the complex (Chern) normalization; the Riemannian scalar
              curvature of the underlying real metric is twice it;
  positivity  one gate, _positive_eigenvalues, holds every background and
              every operation that needs positivity to lambda_min >= EPS_POS.

Backgrounds H are constant Hermitian positive matrices; the potential
phi is a real grid field, normalized to zero mean on ingest since the
metric is blind to the additive constant.  That is the package's one
gauge rule: a flow state keeps its potential's mean, which the potential
bounds read, and only KahlerMetric removes it.  Every metric lives on a
grid; a FlatMetric carries its own.
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
    _gradient,
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
    "inverse_field",
    "min_eigenvalue",
    "volume",
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


def _check_hermitian(M, n: int, what: str) -> np.ndarray:
    """M as an n x n complex array; FieldError unless finite and Hermitian."""
    arr = np.asarray(M, dtype=np.complex128)
    if arr.shape != (n, n):
        raise FieldError(f"{what} shape {arr.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(arr)):
        raise FieldError(f"{what} has non-finite entries")
    if np.abs(arr - arr.conj().T).max() > 1e-12 * max(1.0, np.abs(arr).max()):
        raise FieldError(f"{what} is not Hermitian")
    return arr


def _check_background(H, n: int) -> np.ndarray:
    arr = _check_hermitian(H, n, "background matrix")
    _positive_eigenvalues(_pack(arr), what="background matrix")
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
    """Constant-coefficient metric: the matrix H on its grid, so that
    curvature operations can hand back zero fields."""

    H: np.ndarray
    geometry: TorusGeometry

    def __post_init__(self) -> None:
        object.__setattr__(self, "H", _check_background(self.H, self.geometry.n))

    def as_metric(self) -> KahlerMetric:
        return KahlerMetric(self.H, constant_field(self.geometry, 0.0))


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
            if not np.isfinite(b):
                raise FieldError("n=1 coefficient is non-finite")
            if abs(b.imag) > 1e-15:
                raise FieldError("n=1 coefficient must be real")
            object.__setattr__(self, "beta", float(b.real))
        else:
            object.__setattr__(self, "beta", _check_hermitian(self.beta, n, "coefficient matrix"))
        if self.constant:
            return  # a constant factor lives inside the band
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

    @property
    def constant(self) -> bool:
        """Whether the factor f is constant on the grid."""
        f = self.f.values
        return bool(np.all(f == f.flat[0]))


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


def _eigenvalues(v: np.ndarray, ref: np.ndarray | None = None, det=None) -> tuple:
    """Ascending roots of det(v - lam ref) = 0; ref defaults to the identity.
    det, when given, is _det(v), so a caller that has it computes it once."""
    if len(v) == 1:
        return (v[0],) if ref is None else (v[0] / ref[0],)
    if ref is None:
        a, b = 1.0, v[0] + v[3]
    else:
        a, b = _det(ref), _pairing(ref, v)
    if det is None:
        det = _det(v)
    disc = np.sqrt(np.maximum(b * b - 4.0 * a * det, 0.0))
    return (b - disc) / (2.0 * a), (b + disc) / (2.0 * a)


def _positive_eigenvalues(v: np.ndarray, what: str = "metric", det=None) -> tuple:
    """_eigenvalues(v), or PositivityError unless the smallest is at least
    EPS_POS (NaN is not).  The package's one positivity gate; det as in
    _eigenvalues."""
    eig = _eigenvalues(v, None, det)
    lo = float(np.min(eig[0]))
    if not lo >= EPS_POS:
        raise PositivityError(f"{what} eigenvalue below {EPS_POS:g} (min {lo:.6g})")
    return eig


def _quadratic_form(v: np.ndarray, w) -> np.ndarray:
    """sum_jk v_{j kbar} w^j conj(w^k) for a complex n-vector w (w[j] may
    itself be an array of components, which broadcasts)."""
    if len(v) == 1:
        return v[0] * abs(w[0]) ** 2
    c = w[0] * np.conj(w[1])
    return v[0] * abs(w[0]) ** 2 + v[3] * abs(w[1]) ** 2 + 2.0 * (v[1] * c.real - v[2] * c.imag)


def _log_det(eig: tuple) -> np.ndarray:
    """log det from the eigenvalues as a sum of logs, which avoids cancellation."""
    out = np.log(eig[0])
    for e in eig[1:]:
        out += np.log(e)
    return out


def _volume(v: np.ndarray, det) -> float:
    """int omega^n = 2^n n! int det(g) dLeb, from det = _det(v)."""
    n = 1 if len(v) == 1 else 2
    return float((2.0**n) * math.factorial(n) * det.mean())


def _scalar_curvature(geometry: TorusGeometry, v: np.ndarray, det: np.ndarray,
                      log_det_hat: np.ndarray) -> np.ndarray:
    """tr_g Ric with Ric = -d dbar log det g, from the coefficients, det =
    _det(v) and the half spectrum of log det g.  The pairing is _pairing's,
    the same operations in the same order, formed in place on the Hessian."""
    b = _hessian(geometry, log_det_hat)
    out = b[0]
    if len(v) > 1:
        out *= v[3]
        b[3] *= v[0]
        out += b[3]
        b[1] *= v[1]
        b[2] *= v[2]
        b[1] += b[2]
        b[1] *= 2.0
        out -= b[1]
    np.negative(out, out=out)
    return out / det  # a fresh array, so the Hessian dies with the call


def _field(metric) -> HermitianField:
    """The coefficient field of a KahlerMetric (assembled) or of a
    HermitianField (as it is)."""
    if isinstance(metric, KahlerMetric):
        return assemble(metric)
    if isinstance(metric, HermitianField):
        return metric
    raise TypeError(f"not a potential-form metric or its field: {type(metric).__name__}")


def _coefficients(metric) -> tuple:
    """Resolve metric-like input to (geometry, packed coefficients); a
    FlatMetric gives the (n^2,) slots of its matrix, which broadcast
    against its grid."""
    if isinstance(metric, FlatMetric):
        return metric.geometry, _pack(metric.H)
    g = _field(metric)
    return g.geometry, g.values


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


def min_eigenvalue(metric) -> float:
    return float(_eigenvalues(_coefficients(metric)[1])[0].min())


def inverse_field(g: HermitianField) -> np.ndarray:
    """Packed coefficients of g^{-1}."""
    v = g.values
    det = _det(v)
    if len(v) == 1:
        return np.stack([1.0 / det])
    return np.stack([v[3] / det, -v[1] / det, -v[2] / det, v[0] / det])


def volume(metric) -> float:
    """int omega^n = 2^n n! int det(g) dLeb; requires positivity."""
    _, v = _coefficients(metric)
    det = _det(v)
    _positive_eigenvalues(v, det=det)
    return _volume(v, det)


def scalar_curvature_of(g: HermitianField) -> ScalarField:
    """Scalar curvature from assembled coefficients."""
    geo, v = g.geometry, g.values
    det = _det(v)
    log_det_hat = _rfft(geo, _log_det(_positive_eigenvalues(v, det=det)))
    return ScalarField(geo, _scalar_curvature(geo, v, det, log_det_hat))


def scalar_curvature(metric) -> ScalarField:
    if isinstance(metric, FlatMetric):
        return constant_field(metric.geometry, 0.0)
    return scalar_curvature_of(_field(metric))


def riemann_norm(metric) -> ScalarField:
    """Pointwise norm |Rm| of the curvature tensor of g = H + d dbar phi,
    given as its assembled field or as a KahlerMetric.

    R_{j kbar l mbar} = -d_j d_kbar g_{l mbar}
                        + g^{p qbar} (d_j g_{l qbar}) (d_kbar g_{p mbar}),
    fully contracted with the inverse metric.  Scales like 1/lambda when
    the metric is scaled by lambda.  The derivatives of g come from the
    half spectra of its packed slots.
    """
    g = _field(metric)
    geo = g.geometry
    _positive_eigenvalues(g.values)
    # the derivatives of slot s times basis[s], the matrix of that slot alone,
    # summed over s: d3 = d_j g_{l mbar} on axes (..., j, l, m) and
    # d4 = d_j d_kbar g_{l mbar} on axes (..., j, k, l, m)
    basis = _matrices(np.eye(geo.n**2))
    hats = [_rfft(geo, slot) for slot in g.values]
    grad = np.stack([_gradient(geo, hat) for hat in hats])
    d_z = np.moveaxis(grad[:, 0::2] - 1j * grad[:, 1::2], 1, -1) / 2.0
    d3 = np.tensordot(d_z, basis, axes=(0, 0))
    d4 = np.tensordot(np.stack([_matrices(_hessian(geo, hat)) for hat in hats]), basis, axes=(0, 0))
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
    geo, va = _coefficients(a)
    geo_b, vb = _coefficients(b)
    if geo != geo_b:
        raise FieldError("arguments live on different grids")
    _positive_eigenvalues(va)
    val = _pairing(va, vb) / _det(va)
    return ScalarField(geo, np.broadcast_to(val, geo.shape).copy())


def harmonic_projection(metric, tol: float = 1e-6):
    """Split g (a KahlerMetric or its assembled field) into its
    grid-average matrix plus a potential Hessian.

    Returns (flat, u) with  flat.H = <g>  and  d dbar u = flat.H - g,
    u gauged so that max u = 0.  The potential is recovered through a
    Poisson solve on the trace and then verified against the full
    Hessian identity; a residual above tol is an error.
    """
    g = _field(metric)
    geo, v = g.geometry, g.values
    Hbar = v.mean(axis=tuple(range(1, 1 + geo.axes)), keepdims=True)
    diff = Hbar - v  # target Hessian of u
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
    if geo != form.geometry:
        raise FieldError("metric and form live on different grids")
    dens = _wedge_density(v, form.beta, geo.n)
    return float(np.mean(form.f.values * dens))


def pairing_density(form: TestForm) -> ScalarField:
    """Density of (d dbar of the form) against dLeb.

    Pairs with a potential by a plain integral: for omega' - omega =
    d dbar psi the pairing gap int form /\\ (omega' - omega) equals
    int psi * pairing_density(form), the discrete integration by parts
    being exact for band-limited data.  A constant factor has d dbar f = 0,
    so its density is the zero field, with no Hessian taken.
    """
    geo = form.geometry
    if form.constant:
        return constant_field(geo, 0.0)
    hess = complex_hessian(form.f).values
    return ScalarField(geo, _wedge_density(hess, form.beta, geo.n))


def volume_density(metric, reference: FlatMetric) -> ScalarField:
    """det(g) / det(reference.H) as a grid field."""
    geo, v = _coefficients(metric)
    return ScalarField(geo, _det(v) / float(_det(_pack(reference.H))))
