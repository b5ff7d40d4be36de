"""Curvature, projection, pairing and trace identities.

Closed-form oracles come from the single-mode family g = 1 - b cos(2 pi x)
with b = 0.05 pi^2; the finite-difference oracles in fd_oracles confirm the
same quantities through an unrelated discretization on a finer grid.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cos_field
from fd_oracles import riemann_norm_1d, scalar_curvature_1d

from torusflow import (
    FieldError,
    FlatMetric,
    FlowConfig,
    HermitianField,
    KahlerMetric,
    MetricGraph,
    PositivityError,
    ProjectionError,
    ScalarField,
    TestForm,
    TorusGeometry,
    assemble,
    complex_hessian,
    constant_field,
    default_test_forms,
    harmonic_projection,
    integrate,
    min_eigenvalue,
    pair_test_form,
    pairing_density,
    random_band_limited,
    random_queries,
    riemann_norm,
    run_flow,
    scalar_curvature,
    trace_wrt,
    volume,
    volume_density,
)
from torusflow import geometry as geometry_module
from torusflow import harness
from torusflow.distances import check_distance_estimate
from torusflow.io import load_trace, save_trace
from torusflow.geometry import (
    _eigenvalues,
    _matrices,
    _pack,
    _det,
    _pairing,
    _quadratic_form,
    inverse_field,
)

B = 0.05 * np.pi**2  # metric dip of the reference scenario
R_AT_ZERO = -18.9835170227596  # -pi^2 b / (1-b)^2
MIN_EIG = 0.5065197799455321  # 1 - b


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
    return HermitianField(geo, _pack(v))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**31 - 1),
       spread=st.floats(1.0, 1e3))
def test_pointwise_closed_forms_match_linalg(n, seed, spread):
    geo = TorusGeometry(n=n, N=4)
    g = random_positive_field(geo, seed, spread)
    h = random_positive_field(geo, seed + 1, spread)
    a, b = _matrices(g.values), _matrices(h.values)
    assert np.array_equal(_pack(a), g.values)
    assert np.array_equal(a, np.conj(np.swapaxes(a, -1, -2)))
    scale = np.abs(a).max() ** n
    assert np.allclose(_det(g.values), np.linalg.det(a).real, rtol=1e-10, atol=1e-12 * scale)
    assert np.allclose(_matrices(inverse_field(g)), np.linalg.inv(a), rtol=1e-8, atol=1e-12)
    eig = np.linalg.eigvalsh(a)
    for got, want in zip(_eigenvalues(g.values), np.moveaxis(eig, -1, 0)):
        assert np.allclose(got, want, rtol=1e-8, atol=1e-10 * eig.max())
    assert min_eigenvalue(g) == pytest.approx(eig.min(), rel=1e-8)
    tr = np.trace(np.linalg.inv(a) @ b, axis1=-2, axis2=-1).real
    assert np.allclose(trace_wrt(g, h).values, tr, rtol=1e-8)
    assert np.allclose(_pairing(g.values, h.values), np.linalg.det(a).real * tr, rtol=1e-8)
    # pencil det(h - lam g) = 0: the eigenvalues of g^{-1} h
    rel = np.sort(np.linalg.eigvals(np.linalg.inv(a) @ b).real, axis=-1)
    for got, want in zip(_eigenvalues(h.values, g.values), np.moveaxis(rel, -1, 0)):
        assert np.allclose(got, want, rtol=1e-7)
    # the line element of MetricGraph: sum_jk a_jk w^j conj(w^k)
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    quad = np.einsum("...jk,j,k->...", a, w, np.conj(w))
    assert np.allclose(_quadratic_form(g.values, w), quad.real, rtol=1e-10)


# ---------------------------------------------------------------------------
# assembly and eigenvalues


def test_assemble_single_mode(geo1):
    g = assemble(bump_metric(geo1))
    x = geo1.coordinate(0)
    expected = 1.0 - B * np.cos(2 * np.pi * x)
    assert g.values.dtype == np.float64 and g.values.shape == (1,) + geo1.shape
    assert np.abs(g.values[0] - expected).max() < 1e-12


def test_eigenvalue_extremes_closed_form(geo1):
    eig = _eigenvalues(assemble(bump_metric(geo1)).values)
    assert eig[0].min() == pytest.approx(1.0 - B, abs=1e-12)
    assert eig[-1].max() == pytest.approx(1.0 + B, abs=1e-12)
    assert min_eigenvalue(bump_metric(geo1)) == pytest.approx(MIN_EIG, abs=1e-12)


def test_min_eigenvalue_two_dim(geo2):
    # phi depends on x1 only: g = diag(1 - b cos, 1)
    m = KahlerMetric(np.eye(2), 0.05 * cos_field(geo2, 0))
    assert min_eigenvalue(m) == pytest.approx(1.0 - B, abs=1e-12)
    assert _eigenvalues(assemble(m).values)[-1].max() == pytest.approx(1.0 + B, abs=1e-12)


def trace_of_unit(m):
    return trace_wrt(m, FlatMetric(np.eye(m.geometry.n), geometry=m.geometry))


SHORT_FLOW = FlowConfig(t_end=0.1, snapshot_times=(0.05, 0.1))


def short_flow(metric):
    return run_flow(metric, SHORT_FLOW)


def distance_estimate(trace, times=SHORT_FLOW.snapshot_times):
    queries = random_queries(trace.initial.geometry, 3, seed=0)
    return check_distance_estimate(trace, queries, times=times)


# HermitianField validations per operation on a potential-form metric,
# counted after the optional input step (third entry) has run: one
# assembly, plus the residual Hessian for harmonic_projection; none on an
# assembled field or for loading a trace; a flow assembles its initial
# metric once and checks the projection residual once; the distance
# estimate assembles the initial metric and the snapshot at each distance
# time once, and no other snapshot
ASSEMBLY_BUDGET = {
    "assemble": (assemble, 1),
    "volume": (volume, 1),
    "trace_wrt": (trace_of_unit, 1),
    "MetricGraph": (MetricGraph, 1),
    "scalar_curvature": (scalar_curvature, 1),
    "min_eigenvalue": (min_eigenvalue, 1),
    "harmonic_projection": (harmonic_projection, 2),
    "riemann_norm": (riemann_norm, 1),
    "riemann_norm_of_field": (riemann_norm, 0, lambda m, _dir: assemble(m)),
    "run_flow": (short_flow, 2),
    "load_trace": (load_trace, 0, lambda m, d: save_trace(short_flow(m), d)),
    "check_distance_estimate": (distance_estimate, 1 + len(SHORT_FLOW.snapshot_times),
                                lambda m, _dir: short_flow(m)),
    "check_distance_estimate_one_time": (lambda tr: distance_estimate(tr, times=(0.1,)), 2,
                                         lambda m, _dir: short_flow(m)),
}


@pytest.mark.parametrize("name", sorted(ASSEMBLY_BUDGET))
def test_assembly_budget(validations, geo1, tmp_path, name):
    op, budget, *prepare = ASSEMBLY_BUDGET[name]
    arg = bump_metric(geo1)
    if prepare:
        arg = prepare[0](arg, tmp_path / "trace")
        validations.clear()
    op(arg)
    assert len(validations) == budget


def background_at_floor(m):
    """The constant matrix lambda_min(m) I."""
    return min_eigenvalue(m) * np.eye(m.geometry.n)


# operations that require positivity, and the two constructors that take
# a background, all held to the one floor EPS_POS = 1e-8
POSITIVITY_GATES = {
    "volume": volume,
    "trace_wrt": trace_of_unit,
    "MetricGraph": MetricGraph,
    "scalar_curvature": scalar_curvature,
    "riemann_norm": riemann_norm,
    # the log det of the rate d phi/dt that measure reads off each snapshot
    "snapshot_readings": lambda m: harness._snapshot_readings(
        assemble(m), 1.0, FlatMetric(np.eye(m.geometry.n), m.geometry)),
    "FlatMetric_background": lambda m: FlatMetric(background_at_floor(m), m.geometry),
    "KahlerMetric_background": lambda m: KahlerMetric(background_at_floor(m), 0.0 * m.phi),
}


@pytest.mark.parametrize("name", sorted(POSITIVITY_GATES))
def test_operations_reject_nonpositive_metric(geo1, name):
    """On bump metrics 1 - a pi^2 cos(2 pi x) whose minimum eigenvalue lies
    past the wall (1 - 0.2 pi^2 < 0) or in (0, EPS_POS)."""
    for a, lam in ((0.2, 1.0 - 0.2 * np.pi**2), ((1.0 - 1e-10) / np.pi**2, 1e-10)):
        m = bump_metric(geo1, a=a)
        assert min_eigenvalue(m) == pytest.approx(lam, abs=1e-12)
        with pytest.raises(PositivityError, match="eigenvalue below 1e-08"):
            POSITIVITY_GATES[name](m)


def test_assemble_two_dim_adds_the_background():
    geo = TorusGeometry(2, 8)
    x1, y2 = geo.coordinate(0), geo.coordinate(3)
    H = np.array([[1.0, 0.2 + 0.1j], [0.2 - 0.1j, 1.5]])
    psi = ScalarField(geo, 0.01 * np.cos(2 * np.pi * (x1 + y2)) + 0.02 * np.sin(2 * np.pi * y2))
    v = assemble(KahlerMetric(H, psi)).values
    assert v.dtype == np.float64 and v.shape == (4,) + geo.shape
    assert np.array_equal(_matrices(v), _matrices(complex_hessian(psi).values) + H)


def test_assembly_peak_memory():
    """One n = 2, N = 16 assembly: a 2 MiB packed result, traced peak
    below 6 MB (one slot-sized transform temporary at a time)."""
    geo = TorusGeometry(2, 16)
    m = KahlerMetric(np.eye(2), 0.01 * random_band_limited(3, 2, geo))
    assemble(m)  # fills the geometry's cached symbols
    tracemalloc.start()
    try:
        g = assemble(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.values.nbytes == 2 * 2**20
    assert peak < 6e6


def test_packed_field_rejects_other_shapes_and_nonfinite(geo1):
    full = np.ones(geo1.shape + (1, 1))  # a point-major (n, n) stack
    with pytest.raises(FieldError):
        HermitianField(geo1, full)
    bad = np.ones((1,) + geo1.shape)
    bad[0, 3, 5] = np.nan
    with pytest.raises(FieldError):
        HermitianField(geo1, bad)


def test_packed_field_rejects_complex_values(geo1):
    with pytest.raises(FieldError, match="complex"):
        HermitianField(geo1, np.ones((1,) + geo1.shape, dtype=np.complex128))


# ---------------------------------------------------------------------------
# volume


def test_volume_values(geo1, geo2):
    assert volume(bump_metric(geo1)) == pytest.approx(2.0, abs=1e-12)
    assert volume(FlatMetric(np.eye(2), geometry=geo2)) == pytest.approx(8.0, abs=1e-12)
    assert volume(FlatMetric(2.0 * np.eye(1), geometry=geo1)) == pytest.approx(4.0, abs=1e-12)
    # volume is mean det, so the oscillating part drops out at n=1
    assert volume(bump_metric(geo1, a=0.01)) == pytest.approx(2.0, abs=1e-12)


def test_volume_rejects_nonpositive(geo1):
    with pytest.raises(PositivityError):
        volume(FlatMetric(-np.eye(1), geometry=geo1))


def test_one_det_per_curvature_and_volume(monkeypatch):
    """At n = 2 the positivity gate and the closed form share one det g:
    one grid _det per scalar_curvature_of and one per volume."""
    dets = []
    original = geometry_module._det

    def counted(v):
        if np.ndim(v) > 1:
            dets.append(v.shape)
        return original(v)

    geo = TorusGeometry(2, 8)
    g = assemble(KahlerMetric(np.eye(2), 0.01 * cos_field(geo, 0) + 0.005 * cos_field(geo, 3)))
    expected = (geometry_module.scalar_curvature_of(g).values, volume(g))
    monkeypatch.setattr(geometry_module, "_det", counted)
    assert np.array_equal(geometry_module.scalar_curvature_of(g).values, expected[0])
    assert len(dets) == 1
    assert volume(g) == expected[1]
    assert len(dets) == 2


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


def _product_factors(x, y):
    f = 0.02 * np.cos(2 * np.pi * x) + 0.01 * np.sin(2 * np.pi * (x + 2 * y))
    h = 0.015 * np.sin(2 * np.pi * y) + 0.01 * np.cos(2 * np.pi * (2 * x - y))
    return f, h


def test_riemann_norm_of_a_product_metric(geo2):
    """phi = f(z^1) + h(z^2) on the identity background is a product
    metric, so |Rm|^2 = |Rm_f|^2 + |Rm_h|^2 with the n = 1 factors."""
    one = TorusGeometry(1, geo2.N)
    f1, h1 = _product_factors(*one.coordinates())
    rm_f = riemann_norm(KahlerMetric(np.eye(1), ScalarField(one, f1))).values
    rm_h = riemann_norm(KahlerMetric(np.eye(1), ScalarField(one, h1))).values
    x1, y1, x2, y2 = geo2.coordinates()
    f2 = _product_factors(x1, y1)[0]
    h2 = _product_factors(x2, y2)[1]
    rm = riemann_norm(KahlerMetric(np.eye(2), ScalarField(geo2, f2 + h2))).values
    want = np.sqrt(rm_f[:, :, None, None] ** 2 + rm_h[None, None] ** 2)
    assert rm_f.max() > 0.1 and rm_h.max() > 0.1
    np.testing.assert_allclose(rm, want, rtol=1e-10)


def riemann_norm_reference(metric):
    """|Rm| through complex transforms of phi: d_a has the multiplier
    i pi conj(w_a) and d_abar has i pi w_a, with w_a = k_{x^a} + i k_{y^a};
    the third and fourth derivatives of phi fill their symmetric slots."""
    geo = metric.geometry
    n = geo.n
    g = assemble(metric)
    hat = np.fft.fftn(metric.phi.values)
    modes = geo.mode_arrays
    w = [modes[2 * j] + 1j * modes[2 * j + 1] for j in range(n)]
    d3 = np.zeros(geo.shape + (n, n, n), dtype=np.complex128)  # d_j d_l d_mbar phi
    for j in range(n):
        for l in range(j, n):
            for m in range(n):
                sym = (1j * math.pi) ** 3 * np.conj(w[j] * w[l]) * w[m]
                d3[..., j, l, m] = d3[..., l, j, m] = np.fft.ifftn(sym * hat)
    d4 = np.zeros(geo.shape + (n,) * 4, dtype=np.complex128)  # d_j d_kbar d_l d_mbar phi
    for j in range(n):
        for l in range(j, n):
            for k in range(n):
                for m in range(n):
                    sym = math.pi**4 * np.conj(w[j] * w[l]) * w[k] * w[m]
                    d4[..., j, k, l, m] = d4[..., l, k, j, m] = np.fft.ifftn(sym * hat)
    ginv = _matrices(inverse_field(g))
    rm = -d4 + np.einsum("...qp,...jlq,...kmp->...jklm", ginv, d3, np.conj(d3))
    t = np.einsum("...pj,...kq,...rl,...ms,...jklm->...pqrs", ginv, ginv, ginv, ginv, rm,
                  optimize=True)
    sq = np.einsum("...pqrs,...pqrs->...", t, np.conj(rm)).real
    return np.sqrt(np.maximum(sq, 0.0))


def mixed_two_dim_metric(geo):
    x1, y1, x2, y2 = geo.coordinates()
    psi = (0.01 * np.cos(2 * np.pi * (x1 + y2)) + 0.008 * np.sin(2 * np.pi * (y1 - 2 * x2))
           + 0.006 * np.cos(2 * np.pi * (x1 + x2 + y1)))
    return KahlerMetric(np.array([[1.2, 0.3 - 0.2j], [0.3 + 0.2j, 0.9]]), ScalarField(geo, psi))


def test_riemann_norm_matches_complex_transform_reference(geo2):
    m = mixed_two_dim_metric(geo2)
    got = riemann_norm(m).values
    want = riemann_norm_reference(m)
    assert want.max() > 0.1
    assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_riemann_norm_reads_the_assembled_field(geo1, geo2):
    for m in (bump_metric(geo1), mixed_two_dim_metric(geo2)):
        assert np.array_equal(riemann_norm(assemble(m)).values, riemann_norm(m).values)
    with pytest.raises(TypeError):
        riemann_norm(FlatMetric(np.eye(1), geometry=geo1))
    with pytest.raises(PositivityError):
        riemann_norm(assemble(bump_metric(geo1, a=0.2)))


def test_riemann_norm_is_the_scalar_curvature_in_one_dimension(geo1):
    """At n = 1, |Rm| = (g^{1 1bar})^2 |R_{1 1bar 1 1bar}| = |R|."""
    m = KahlerMetric(1.3 * np.eye(1), 5e-4 * random_band_limited(5, 3, geo1))
    rm = riemann_norm(m).values
    r = np.abs(scalar_curvature(m).values)
    assert np.abs(rm - r).max() <= 1e-10 * r.max()


def test_flat_metric_requires_its_grid(geo1):
    with pytest.raises(TypeError):
        FlatMetric(np.eye(1))
    with pytest.raises(FieldError, match="shape"):
        FlatMetric(np.eye(2), geometry=geo1)


def test_flat_curvature_is_zero(geo1):
    flat = FlatMetric(1.7 * np.eye(1), geometry=geo1)
    assert np.abs(scalar_curvature(flat).values).max() == 0.0
    # and through the spectral path, as a flat family's metric
    assert np.abs(scalar_curvature(KahlerMetric(flat.H, constant_field(geo1, 0.0))).values).max() == 0.0


def test_trace_of_ricci_is_scalar_curvature(geo1, geo2):
    """R = tr_g Ric, with the Ricci form -d dbar log det g taken here from
    numpy's determinants of the assembled matrices."""
    for geo, amp in ((geo1, 0.05), (geo2, 0.03)):
        m = KahlerMetric(np.eye(geo.n), amp * cos_field(geo, 0))
        g = assemble(m)
        log_det = np.log(np.linalg.det(_matrices(g.values)).real)
        lhs = trace_wrt(g, complex_hessian(ScalarField(geo, -log_det))).values
        rhs = scalar_curvature(m).values
        assert np.abs(lhs - rhs).max() < 1e-10


def test_curvature_integral_vanishes(geo1, geo2):
    """int R det(g) dLeb = 0: the Ricci form is exact on the torus."""
    for geo, amp in ((geo1, 0.05), (geo2, 0.02)):
        m = KahlerMetric(np.eye(geo.n), amp * cos_field(geo, 1))
        g = assemble(m)
        weighted = ScalarField(geo, scalar_curvature(m).values * _det(g.values))
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
    lhs = 2.0 * np.sqrt(_det(b.values) / _det(a.values))
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


# ---------------------------------------------------------------------------
# harmonic projection


def test_projection_reference_values(geo1):
    """H=1 with a 0.05 cosine potential: flat part 1, u = -phi shifted."""
    flat, u = harmonic_projection(bump_metric(geo1))
    x = geo1.coordinate(0)
    assert np.abs(flat.H - 1.0).max() < 1e-10
    expected = -0.05 * np.cos(2.0 * np.pi * x) - 0.05
    assert np.abs(u.values - expected).max() < 1e-8
    assert np.abs(scalar_curvature(KahlerMetric(flat.H, constant_field(geo1, 0.0))).values).max() <= 1e-8
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
    flat, u = harmonic_projection(KahlerMetric(flat0.H, constant_field(geo1, 0.0)))
    assert np.abs(flat.H - flat0.H).max() < 1e-14
    assert np.abs(u.values).max() < 1e-14


def test_projection_takes_a_potential_form_metric(geo1):
    with pytest.raises(TypeError):
        harmonic_projection(FlatMetric(np.eye(1), geometry=geo1))


def test_projection_preserves_hessian_identity(geo2):
    m = KahlerMetric(np.eye(2), 0.02 * cos_field(geo2, 1))
    flat, u = harmonic_projection(m)
    target = flat.H - _matrices(assemble(m).values)
    assert np.abs(_matrices(complex_hessian(u).values) - target).max() < 1e-10


def _field_not_of_potential_form(geo, case):
    """(field, tol, residual) for harmonic_projection.  At n = 1 every field
    is its mean plus a potential's Hessian, so only the rounding residual is
    left, and tol = 0 is below it.  At n = 2, g_{1 1bar} varying along z2
    alone leaves a on both diagonal entries, and an off-diagonal entry
    (1 + i) b cos(2 pi x) with a constant diagonal leaves sqrt(2) b."""
    if case == "n1":
        rng = np.random.default_rng(3)
        return HermitianField(geo, 2.0 + 0.1 * rng.standard_normal((1,) + geo.shape)), 0.0, None
    v = np.zeros((4,) + geo.shape)
    v[0] = v[3] = 1.0
    wave = np.cos(2.0 * np.pi * geo.coordinate(2 if case == "n2_diagonal" else 0))
    if case == "n2_diagonal":
        v[0] += 0.1 * wave
        return HermitianField(geo, v), 1e-6, 0.1
    v[1] = v[2] = 0.1 * wave
    return HermitianField(geo, v), 1e-6, 0.1 * math.sqrt(2.0)


@pytest.mark.parametrize("case", ["n1", "n2_diagonal", "n2_off_diagonal"])
def test_projection_rejects_a_field_not_of_potential_form(case):
    """The Hessian-identity residual can fail, and it is the largest modulus
    of an entry of d dbar u - (flat.H - g): at n = 2, |d0|, |d3| or
    |d1 + i d2|."""
    geo = TorusGeometry(1 if case == "n1" else 2, 8)
    g, tol, residual = _field_not_of_potential_form(geo, case)
    with pytest.raises(ProjectionError, match="not of potential form") as err:
        harmonic_projection(g, tol=tol)
    if residual is None:
        harmonic_projection(g)  # the rounding residual passes the default tol
    else:
        assert f"residual {residual:.3e} exceeds" in str(err.value)


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


def test_constant_form_density_is_zero_without_a_hessian(geo1, geo2, monkeypatch):
    def no_hessian(phi):
        raise AssertionError("complex_hessian called")

    monkeypatch.setattr(geometry_module, "complex_hessian", no_hessian)
    for geo in (geo1, geo2):
        constant_forms = [form for label, form in default_test_forms(geo)
                          if label.startswith("const")]
        assert len(constant_forms) == (1 if geo.n == 1 else 5)
        for form in constant_forms:
            assert pairing_density(form).values.tobytes() == np.zeros(geo.shape).tobytes()


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_test_form_rejects_nonfinite_coefficients(geo1, geo2, bad):
    """A coefficient the pairing would turn into nan or inf is refused, at
    n=1 and n=2 alike, as FlatMetric refuses the same matrix."""
    with pytest.raises(FieldError, match="non-finite"):
        TestForm(ScalarField(geo1, np.ones(geo1.shape)), bad)
    with pytest.raises(FieldError, match="non-finite"):
        TestForm(ScalarField(geo2, np.ones(geo2.shape)), np.array([[bad, 0.0], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# volume density


def test_volume_density_identity(geo1):
    flat = FlatMetric(1.4 * np.eye(1), geometry=geo1)
    v = volume_density(KahlerMetric(flat.H, constant_field(geo1, 0.0)), flat)
    assert np.abs(v.values - 1.0).max() < 1e-14


def test_volume_density_single_mode(geo1):
    v = volume_density(bump_metric(geo1), FlatMetric(np.eye(1), geometry=geo1))
    x = geo1.coordinate(0)
    assert np.abs(v.values - (1.0 - B * np.cos(2 * np.pi * x))).max() < 1e-12
    # equal volumes in one class: the mean of v - 1 vanishes
    assert abs(integrate(v) - 1.0) < 1e-12


def test_volume_density_rejects_degenerate(geo1):
    with pytest.raises(PositivityError):
        volume_density(bump_metric(geo1), FlatMetric(np.zeros((1, 1)), geometry=geo1))
