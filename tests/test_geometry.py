"""Curvature, projection, pairing and trace identities.

Closed-form oracles come from the single-mode family g = 1 - b cos(2 pi x)
with b = 0.05 pi^2; the finite-difference oracles in fd_oracles confirm the
same quantities through an unrelated discretization on a finer grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cos_field
from fd_oracles import riemann_norm_1d, scalar_curvature_1d

from torusflow import (
    FieldError,
    FlatMetric,
    HermitianField,
    KahlerMetric,
    PositivityError,
    ScalarField,
    TestForm,
    TorusGeometry,
    assemble,
    complex_hessian,
    eigenvalue_range,
    harmonic_projection,
    integrate,
    linfty_vs_lp_laplacian,
    min_eigenvalue,
    pair_test_form,
    pairing_density,
    random_band_limited,
    ricci,
    riemann_norm,
    scalar_curvature,
    trace_wrt,
    volume,
    volume_density,
)
from torusflow.geometry import _eigenvalues, _pairing, det_field, inverse_field

B = 0.05 * np.pi**2  # metric dip of the reference scenario
R_AT_ZERO = -18.9835170227596  # -pi^2 b / (1-b)^2
MIN_EIG = 0.5065197799455321  # 1 - b
COS_RATIO = 0.28657958412537815  # 2 / (pi^2 sqrt(1/2))


def bump_metric(geo, a=0.05):
    return KahlerMetric(np.eye(geo.n), a * cos_field(geo, 0))


# ---------------------------------------------------------------------------
# pointwise closed forms against np.linalg


def random_positive_field(geo, seed, spread):
    """B B^* + I/spread per point: Hermitian, eigenvalues spanning ~spread."""
    rng = np.random.default_rng(seed)
    shape = geo.shape + (geo.n, geo.n)
    b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    v = b @ np.conj(np.swapaxes(b, -1, -2)) + np.eye(geo.n) / spread
    return HermitianField(geo, (v + np.conj(np.swapaxes(v, -1, -2))) / 2.0)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**31 - 1),
       spread=st.floats(1.0, 1e3))
def test_pointwise_closed_forms_match_linalg(n, seed, spread):
    geo = TorusGeometry(n=n, N=4)
    g = random_positive_field(geo, seed, spread)
    h = random_positive_field(geo, seed + 1, spread)
    a, b = g.values, h.values
    scale = np.abs(a).max() ** n
    assert np.allclose(det_field(g), np.linalg.det(a).real, rtol=1e-10, atol=1e-12 * scale)
    assert np.allclose(inverse_field(g), np.linalg.inv(a), rtol=1e-8, atol=1e-12)
    eig = np.linalg.eigvalsh(a)
    for got, want in zip(_eigenvalues(a), np.moveaxis(eig, -1, 0)):
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10 * eig.max())
    assert eigenvalue_range(g) == pytest.approx((eig.min(), eig.max()), rel=1e-8)
    tr = np.trace(np.linalg.inv(a) @ b, axis1=-2, axis2=-1).real
    assert np.allclose(trace_wrt(g, h).values, tr, rtol=1e-8)
    assert np.allclose(_pairing(a, b), np.linalg.det(a).real * tr, rtol=1e-8)
    # pencil det(h - lam g) = 0: the eigenvalues of g^{-1} h
    rel = np.sort(np.linalg.eigvals(np.linalg.inv(a) @ b).real, axis=-1)
    for got, want in zip(_eigenvalues(b, a), np.moveaxis(rel, -1, 0)):
        assert np.allclose(got, want, rtol=1e-7)


# ---------------------------------------------------------------------------
# assembly and eigenvalues


def test_assemble_single_mode(geo1):
    g = assemble(bump_metric(geo1))
    x = geo1.coordinate(0)
    expected = 1.0 - B * np.cos(2 * np.pi * x)
    assert np.abs(g.values[..., 0, 0] - expected).max() < 1e-12
    assert np.abs(g.values[..., 0, 0].imag).max() < 1e-13


def test_eigenvalue_range_closed_form(geo1):
    lo, hi = eigenvalue_range(assemble(bump_metric(geo1)))
    assert lo == pytest.approx(1.0 - B, abs=1e-12)
    assert hi == pytest.approx(1.0 + B, abs=1e-12)
    assert min_eigenvalue(bump_metric(geo1)) == pytest.approx(MIN_EIG, abs=1e-12)


def test_min_eigenvalue_two_dim(geo2):
    # phi depends on x1 only: g = diag(1 - b cos, 1)
    m = KahlerMetric(np.eye(2), 0.05 * cos_field(geo2, 0))
    lo, hi = eigenvalue_range(m)
    assert lo == pytest.approx(1.0 - B, abs=1e-12)
    assert hi == pytest.approx(1.0 + B, abs=1e-12)


def test_assemble_positivity_gate(geo1):
    # amplitude far past the positivity wall
    with pytest.raises(PositivityError):
        assemble(bump_metric(geo1, a=0.2), check_positivity=True)


# ---------------------------------------------------------------------------
# volume


def test_volume_values(geo1, geo2):
    assert volume(bump_metric(geo1)) == pytest.approx(2.0, abs=1e-12)
    assert volume(FlatMetric(np.eye(2))) == pytest.approx(8.0, abs=1e-12)
    assert volume(FlatMetric(2.0 * np.eye(1))) == pytest.approx(4.0, abs=1e-12)
    # volume is mean det, so the oscillating part drops out at n=1
    assert volume(bump_metric(geo1, a=0.01)) == pytest.approx(2.0, abs=1e-12)


def test_volume_rejects_nonpositive():
    with pytest.raises(PositivityError):
        volume(FlatMetric(-np.eye(1)))


# ---------------------------------------------------------------------------
# curvature


def test_scalar_curvature_closed_form(geo1):
    r = scalar_curvature(bump_metric(geo1))
    assert r.values[0, 0] == pytest.approx(R_AT_ZERO, rel=1e-9)
    # the minimum sits at the metric dip x = 0
    assert r.min() == pytest.approx(R_AT_ZERO, rel=1e-9)


def test_scalar_curvature_matches_fd_oracle(geo1):
    """Spectral curvature at N=64 vs order-4 stencils at N=256."""
    r = scalar_curvature(bump_metric(geo1)).values
    nf = 256
    xf = (np.arange(nf) / nf)[:, None] * np.ones((1, nf))
    gf = 1.0 - B * np.cos(2.0 * np.pi * xf)
    r_fd = scalar_curvature_1d(gf, 1.0 / nf)
    assert np.abs(r - r_fd[::4, ::4]).max() < 5e-5


def test_riemann_norm_matches_fd_oracle(geo1):
    rm = riemann_norm(bump_metric(geo1)).values
    nf = 256
    xf = (np.arange(nf) / nf)[:, None] * np.ones((1, nf))
    gf = 1.0 - B * np.cos(2.0 * np.pi * xf)
    rm_fd = riemann_norm_1d(gf, 1.0 / nf)
    assert np.abs(rm - rm_fd[::4, ::4]).max() < 2e-6


def test_riemann_norm_scaling(geo1):
    """|Rm| scales like 1/lambda under g -> lambda g."""
    m = bump_metric(geo1)
    scaled = KahlerMetric(2.0 * m.H, 2.0 * m.phi)
    a = riemann_norm(m).values
    b = riemann_norm(scaled).values
    assert np.abs(2.0 * b - a).max() < 1e-10 * np.abs(a).max()


def test_flat_curvature_is_zero(geo1):
    flat = FlatMetric(1.7 * np.eye(1), geometry=geo1)
    assert np.abs(ricci(flat).values).max() == 0.0
    assert np.abs(scalar_curvature(flat).values).max() == 0.0


def test_flat_curvature_needs_grid():
    with pytest.raises(FieldError):
        ricci(FlatMetric(np.eye(1)))


def test_trace_of_ricci_is_scalar_curvature(geo1, geo2):
    for geo, amp in ((geo1, 0.05), (geo2, 0.03)):
        m = KahlerMetric(np.eye(geo.n), amp * cos_field(geo, 0))
        g = assemble(m)
        lhs = trace_wrt(g, ricci(m)).values
        rhs = scalar_curvature(m).values
        assert np.abs(lhs - rhs).max() < 1e-10


def test_curvature_integral_vanishes(geo1, geo2):
    """int R det(g) dLeb = 0: the Ricci form is exact on the torus."""
    for geo, amp in ((geo1, 0.05), (geo2, 0.02)):
        m = KahlerMetric(np.eye(geo.n), amp * cos_field(geo, 1))
        g = assemble(m)
        weighted = ScalarField(geo, scalar_curvature(m).values * det_field(g))
        assert abs(integrate(weighted)) < 1e-8


# ---------------------------------------------------------------------------
# traces


def test_trace_identity(geo1, geo2):
    for geo in (geo1, geo2):
        g = assemble(KahlerMetric(np.eye(geo.n), 0.04 * cos_field(geo, 0)))
        assert np.abs(trace_wrt(g, g).values - geo.n).max() < 1e-12


def test_trace_am_gm(geo2):
    # n (det b / det a)^{1/n} <= tr_a b pointwise for positive pairs
    a = assemble(KahlerMetric(np.eye(2) + 0.1, 0.03 * cos_field(geo2, 0)))
    b = assemble(KahlerMetric(2.0 * np.eye(2), 0.05 * cos_field(geo2, 3)))
    lhs = 2.0 * np.sqrt(det_field(b) / det_field(a))
    rhs = trace_wrt(a, b).values
    assert np.all(lhs <= rhs + 1e-12)


def test_trace_rejects_nonpositive_base(geo1):
    g = assemble(bump_metric(geo1))
    with pytest.raises(PositivityError):
        trace_wrt(FlatMetric(-np.eye(1), geometry=geo1), g)


def test_trace_rejects_grid_mismatch(geo1):
    other = TorusGeometry(1, 32)
    g1 = assemble(bump_metric(geo1))
    g2 = assemble(KahlerMetric(np.eye(1), 0.05 * cos_field(other, 0)))
    with pytest.raises(FieldError):
        trace_wrt(g1, g2)

    with pytest.raises(FieldError):
        trace_wrt(FlatMetric(np.eye(1)), FlatMetric(np.eye(1)))


# ---------------------------------------------------------------------------
# harmonic projection


def test_projection_reference_values(geo1):
    """H=1 with a 0.05 cosine potential: flat part 1, u = -phi shifted."""
    flat, u = harmonic_projection(bump_metric(geo1))
    x = geo1.coordinate(0)
    assert np.abs(flat.H - 1.0).max() < 1e-10
    expected = -0.05 * np.cos(2.0 * np.pi * x) - 0.05
    assert np.abs(u.values - expected).max() < 1e-8
    assert np.abs(ricci(flat).values).max() <= 1e-8
    assert abs(volume(flat) - volume(bump_metric(geo1))) < 1e-10


def test_projection_gauge(geo1):
    _, u = harmonic_projection(bump_metric(geo1, a=0.03))
    assert u.max() <= 1e-12
    assert abs(u.max()) < 1e-12


def test_projection_two_dim_recovery(geo2):
    offset = np.array([[0.1, 0.02 + 0.01j], [0.02 - 0.01j, -0.05]])
    background = np.eye(2) + offset
    phi = ScalarField(
        geo2,
        0.02 * np.cos(2 * np.pi * geo2.coordinate(0)) * np.cos(2 * np.pi * geo2.coordinate(3)),
    )
    flat, u = harmonic_projection(KahlerMetric(background, phi))
    assert np.abs(flat.H - background).max() < 1e-10
    assert np.abs(u.values - (phi.values.min() - phi.values)).max() < 1e-8
    assert abs(volume(flat) - volume(KahlerMetric(background, phi))) < 1e-10


def test_projection_idempotent(geo1):
    flat0 = FlatMetric(1.3 * np.eye(1), geometry=geo1)
    flat, u = harmonic_projection(flat0.as_metric(geo1))
    assert np.abs(flat.H - flat0.H).max() < 1e-14
    assert np.abs(u.values).max() < 1e-14


def test_projection_preserves_hessian_identity(geo2):
    m = KahlerMetric(np.eye(2), 0.02 * cos_field(geo2, 1))
    flat, u = harmonic_projection(m)
    target = np.broadcast_to(flat.H, geo2.shape + (2, 2)) - assemble(m).values
    assert np.abs(complex_hessian(u).values - target).max() < 1e-10


# ---------------------------------------------------------------------------
# pairings


def test_pairing_constant_form(geo1):
    m = bump_metric(geo1)
    form = TestForm(ScalarField(geo1, np.ones(geo1.shape)), 1.5)
    # n=1: the pairing is 2 beta int g = beta * volume
    assert pair_test_form(m, form) == pytest.approx(1.5 * volume(m), rel=1e-12)


def test_pairing_ibp(geo1):
    """Pairing gap against d dbar psi equals int psi * pairing_density."""
    m0 = bump_metric(geo1, a=0.02)
    psi = 0.3 * random_band_limited(7, geo1.dealias_cutoff // 2, geo1)
    m1 = KahlerMetric(m0.H, m0.phi + psi)
    f = random_band_limited(11, 4, geo1)
    form = TestForm(f, 0.8)
    gap = pair_test_form(m1, form) - pair_test_form(m0, form)
    direct = integrate(ScalarField(geo1, psi.values * pairing_density(form).values))
    assert gap == pytest.approx(direct, abs=1e-11 * max(1.0, abs(gap)))


def test_pairing_ibp_two_dim(geo2):
    beta = np.array([[1.0, 0.2 - 0.1j], [0.2 + 0.1j, 0.7]])
    m0 = KahlerMetric(np.eye(2), 0.01 * cos_field(geo2, 0))
    psi = 0.1 * random_band_limited(3, geo2.dealias_cutoff // 2, geo2)
    m1 = KahlerMetric(m0.H, m0.phi + psi)
    form = TestForm(random_band_limited(5, 2, geo2), beta)
    gap = pair_test_form(m1, form) - pair_test_form(m0, form)
    direct = integrate(ScalarField(geo2, psi.values * pairing_density(form).values))
    assert gap == pytest.approx(direct, abs=1e-11 * max(1.0, abs(gap)))


def test_test_form_validation(geo1, geo2):
    ones1 = ScalarField(geo1, np.ones(geo1.shape))
    with pytest.raises(FieldError):
        TestForm(ones1, 1.0 + 0.5j)  # complex weight at n=1
    ones2 = ScalarField(geo2, np.ones(geo2.shape))
    with pytest.raises(FieldError):
        TestForm(ones2, np.array([[1.0, 0.5], [0.2, 1.0]]))  # not Hermitian
    # factor with energy above N/3 is rejected
    hot = cos_field(geo1, 0, mode=geo1.dealias_cutoff + 1)
    with pytest.raises(FieldError):
        TestForm(hot, 1.0)


# ---------------------------------------------------------------------------
# volume density and the potential-vs-laplacian ratio


def test_volume_density_identity(geo1):
    flat = FlatMetric(1.4 * np.eye(1))
    v = volume_density(flat.as_metric(geo1), FlatMetric(1.4 * np.eye(1)))
    assert np.abs(v.values - 1.0).max() < 1e-14


def test_volume_density_single_mode(geo1):
    v = volume_density(bump_metric(geo1), FlatMetric(np.eye(1)))
    x = geo1.coordinate(0)
    assert np.abs(v.values - (1.0 - B * np.cos(2 * np.pi * x))).max() < 1e-12
    # equal volumes in one class: the mean of v - 1 vanishes
    assert abs(integrate(v) - 1.0) < 1e-12


def test_volume_density_rejects_degenerate(geo1):
    with pytest.raises(PositivityError):
        volume_density(bump_metric(geo1), FlatMetric(np.zeros((1, 1))))


def test_linfty_ratio_cosine(geo1):
    u = cos_field(geo1, 0)
    assert linfty_vs_lp_laplacian(u, 2.0) == pytest.approx(COS_RATIO, abs=1e-12)


def test_linfty_ratio_scale_invariant(geo1):
    u = cos_field(geo1, 0)
    r1 = linfty_vs_lp_laplacian(u, 3.0)
    r2 = linfty_vs_lp_laplacian(17.0 * u, 3.0)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_linfty_ratio_rejections(geo1):
    with pytest.raises(ValueError):
        linfty_vs_lp_laplacian(cos_field(geo1, 0), 1.0)  # p <= n
    with pytest.raises(ValueError):
        linfty_vs_lp_laplacian(ScalarField(geo1, np.ones(geo1.shape)), 2.0)


def test_linfty_ratio_random_samples(geo1):
    """The ratio stays finite and uniformly small over random fields."""
    worst = 0.0
    for seed in range(100):
        u = random_band_limited(seed, geo1.dealias_cutoff, geo1)
        r = linfty_vs_lp_laplacian(u, 2.0)
        assert np.isfinite(r) and r > 0.0
        worst = max(worst, r)
    assert worst < 1.0
