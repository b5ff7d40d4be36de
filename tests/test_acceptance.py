"""Acceptance suite: ten numbered criteria, one PASS/FAIL line each.

Every criterion prints a single verdict line; run with

    pytest tests/test_acceptance.py -s

to see them as they complete. Criteria 5-9 share one calibrated n=1
family at N=64 (fixed seed), criterion 10 a small n=2 family at N=16.
"""

import math
import time
from itertools import product

import numpy as np
import pytest

from torusflow import (
    FlatMetric,
    FlowConfig,
    KahlerMetric,
    ScalarField,
    ScenarioSpec,
    TorusGeometry,
    build_reports,
    check_distance_estimate,
    complex_hessian,
    constant_field,
    default_test_forms,
    fit_rate,
    flat_accuracy_battery,
    flat_laplacian,
    harmonic_projection,
    make_sequence,
    measure,
    pairing_density,
    random_queries,
    run_flow,
    scalar_curvature,
    volume,
    volume_density,
)
from torusflow.distances import FLAT_TOL
from torusflow.geometry import _matrices

GEO64 = TorusGeometry(1, 64)
FAMILY_SEED = 90
TWO_PI = 2.0 * math.pi
PI_SQ = math.pi**2


def _verdict(num: int, failures: list) -> None:
    print(f"\ncriterion {num:2d}: {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _mode_coefficient(values: np.ndarray, k: tuple) -> float:
    """Real cosine amplitude of one Fourier mode."""
    hat = np.fft.fftn(values)
    return 2.0 * float(hat[k].real) / values.size


def _drift(series: np.ndarray) -> float:
    """Largest drop below the running maximum; 0 for a monotone series."""
    return float((np.maximum.accumulate(series) - series).max())


# ---------------------------------------------------------------------------
# shared calibrated families


@pytest.fixture(scope="module")
def family64():
    spec = ScenarioSpec(
        geometry=GEO64, seed=FAMILY_SEED, indices=(1, 4, 16, 64), p=math.inf
    )
    scenarios = make_sequence(spec)
    traces = {}
    flow_seconds = {}
    for sc in scenarios:
        t0 = time.perf_counter()
        traces[sc.index] = run_flow(sc.metric, FlowConfig())
        flow_seconds[sc.index] = time.perf_counter() - t0
    forms = default_test_forms(GEO64)
    densities = [pairing_density(form) for _, form in forms]
    ms = [
        measure(traces[sc.index], sc.index, sc.amplitude, forms, densities, [1.0, 1.5])
        for sc in scenarios
    ]
    results, fam = build_reports(ms)
    return {
        "scenarios": {sc.index: sc for sc in scenarios},
        "traces": traces,
        "flow_seconds": flow_seconds,
        "results": results,
        "fam": fam,
        "ms": ms,
        "forms": forms,
    }


@pytest.fixture(scope="module")
def family_n2():
    t0 = time.perf_counter()
    geo = TorusGeometry(2, 16)
    spec = ScenarioSpec(geometry=geo, seed=7, indices=(1, 16), max_mode=2)
    scenarios = make_sequence(spec)
    traces = {sc.index: run_flow(sc.metric, FlowConfig()) for sc in scenarios}
    return {
        "geo": geo,
        "scenarios": {sc.index: sc for sc in scenarios},
        "traces": traces,
        "elapsed": time.perf_counter() - t0,
    }


# ---------------------------------------------------------------------------
# criteria


def test_criterion_1_spectral_calculus():
    t0 = time.perf_counter()
    failures = []
    cases = (
        (TorusGeometry(1, 64), [(1, 0), (0, 1), (3, -2), (7, 5), (21, 13), (-21, 21)]),
        (
            TorusGeometry(2, 16),
            [(1, 0, 0, 0), (0, 1, -2, 1), (2, -1, 3, 1), (5, 4, -3, 5), (0, 5, 5, -5)],
        ),
    )
    for geo, modes in cases:
        coords = [geo.coordinate(a) for a in range(geo.axes)]
        for k in modes:
            theta = sum(ki * c for ki, c in zip(k, coords))
            base = 0.7 * np.cos(TWO_PI * theta) - 0.4 * np.sin(TWO_PI * theta)
            phi = ScalarField(geo, base)
            w = [k[2 * j] + 1j * k[2 * j + 1] for j in range(geo.n)]
            hess = _matrices(complex_hessian(phi).values)
            for j, l in product(range(geo.n), repeat=2):
                expected = -PI_SQ * np.conj(w[j]) * w[l] * base
                scale = float(np.abs(expected).max())
                err = float(np.abs(hess[..., j, l] - expected).max())
                if scale == 0.0:
                    ok = err <= 1e-12
                else:
                    ok = err <= 1e-10 * scale
                if not ok:
                    failures.append(
                        f"n={geo.n} mode {k} entry ({j},{l}): error {err:.3g} vs scale {scale:.3g}"
                    )
            lap = flat_laplacian(phi).values
            expected = -PI_SQ * sum(ki**2 for ki in k) * base
            err = float(np.abs(lap - expected).max())
            scale = float(np.abs(expected).max())
            if err > 1e-10 * max(scale, 1.0):
                failures.append(f"n={geo.n} mode {k} laplacian: error {err:.3g}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(1, failures)


def test_criterion_2_flat_stationarity():
    t0 = time.perf_counter()
    failures = []
    metric = KahlerMetric(np.eye(1), constant_field(GEO64, 0.0))
    trace = run_flow(metric, FlowConfig(t_end=1.0))
    state = trace.snapshot_at(1.0)
    sup_phi = float(np.abs(state.phi.values).max())
    if sup_phi > 1e-10:
        failures.append(f"sup|phi(1)| = {sup_phi:.3g} > 1e-10")
    min_r = float(scalar_curvature(state.metric()).values.min())
    if abs(min_r) > 1e-10:
        failures.append(f"min R(1) = {min_r:.3g} not 0 within 1e-10")
    worst_diag = max(abs(d.min_scalar_curvature) for d in trace.diagnostics)
    if worst_diag > 1e-10:
        failures.append(f"min R drifted to {worst_diag:.3g} along the flow")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s >= 5s")
    _verdict(2, failures)


def test_criterion_3_harmonic_projection():
    failures = []
    x = GEO64.coordinate(0)
    cos = np.cos(TWO_PI * x)
    metric = KahlerMetric(np.eye(1), ScalarField(GEO64, 0.05 * cos))
    flat, u = harmonic_projection(metric)
    h_err = abs(complex(flat.H[0, 0]) - 1.0)
    if h_err > 1e-10:
        failures.append(f"|H_flat - 1| = {h_err:.3g} > 1e-10")
    u_err = float(np.abs(u.values - (-0.05 * cos - 0.05)).max())
    if u_err > 1e-8:
        failures.append(f"sup|u - (-0.05cos(2pix) - 0.05)| = {u_err:.3g} > 1e-8")
    curvature = float(np.abs(scalar_curvature(flat.as_metric()).values).max())
    if curvature > 1e-8:  # at n = 1 the Ricci form is R times the metric
        failures.append(f"max|R(flat)| = {curvature:.3g} > 1e-8")
    v_err = abs(volume(metric) - volume(flat))
    if v_err > 1e-10:
        failures.append(f"volume changed by {v_err:.3g} > 1e-10")
    _verdict(3, failures)


def test_criterion_4_linear_regime_accuracy():
    failures = []
    a = 1e-4
    x = GEO64.coordinate(0)
    phi0 = ScalarField(GEO64, a * np.cos(TWO_PI * x))
    metric = KahlerMetric(np.eye(1), phi0)
    trace = run_flow(metric, FlowConfig(sigma=0.001, t_end=0.1, snapshot_times=(0.1,)))
    state = trace.snapshot_at(0.1)
    # the state's potential is the increment on top of the initial one
    total = metric.phi.values + state.phi.values
    c0 = _mode_coefficient(metric.phi.values, (1, 0))
    c1 = _mode_coefficient(total, (1, 0))
    ratio = c1 / c0
    target = math.exp(-PI_SQ * 0.1)
    rel = abs(ratio - target) / target
    if rel > 1e-3:
        failures.append(f"amplitude ratio {ratio:.8f} vs e^(-pi^2/10) {target:.8f}: rel {rel:.3g} > 1e-3")
    _verdict(4, failures)


def test_criterion_5_maximum_principles(family64):
    failures = []
    trace = family64["traces"][1]
    min_r = np.array([d.min_scalar_curvature for d in trace.diagnostics])
    min_dot = np.array([d.min_dot_phi for d in trace.diagnostics])
    vols = np.array([d.volume for d in trace.diagnostics])

    r_tol = 1e-3 * (1.0 + abs(min_r[0]))
    if _drift(min_r) > r_tol:
        failures.append(f"min R drift {_drift(min_r):.3g} > {r_tol:.3g}")
    if _drift(min_dot) > 1e-4:
        failures.append(f"min dphi/dt drift {_drift(min_dot):.3g} > 1e-4")
    v_rel = float(np.abs(vols - vols[0]).max() / vols[0])
    if v_rel > 1e-7:
        failures.append(f"volume wandered by {v_rel:.3g} relative > 1e-7")
    seconds = family64["flow_seconds"][1]
    if seconds >= 60.0:
        failures.append(f"runtime {seconds:.1f}s >= 60s")
    _verdict(5, failures)


def test_criterion_6_scalar_floor(family64):
    failures = []
    for i, trace in family64["traces"].items():
        worst = min(d.min_scalar_curvature for d in trace.diagnostics)
        floor = -1.0 / i - 1e-3 * (1.0 + 1.0 / i)
        if worst < floor:
            failures.append(f"i={i}: min R {worst:.6f} < {floor:.6f}")
    _verdict(6, failures)


def test_criterion_7_rate_fits(family64):
    failures = []
    ms = family64["ms"]
    indices = [m.index for m in ms]

    fit = fit_rate(indices, [-m.inf_dot_phi for m in ms])
    if fit.slope > -0.35:
        failures.append(f"inf dphi/dt slope {fit.slope:.3f} > -0.35")

    labels = [row[0] for row in ms[0].forms if row[0] != "const"]
    passing = 0
    slopes = {}
    for j, label in enumerate(r[0] for r in ms[0].forms):
        if label == "const":
            continue
        gaps = [abs(m.forms[j][3]) for m in ms]
        slope = fit_rate(indices, gaps).slope
        slopes[label] = slope
        if slope <= -0.4:
            passing += 1
    if passing < min(4, len(labels)):
        failures.append(
            f"only {passing}/{len(labels)} pairing slopes <= -0.4 (need 4): "
            + ", ".join(f"{k}={v:.3f}" for k, v in slopes.items())
        )

    fit = fit_rate(indices, [-m.volume_log_floor for m in ms])
    if fit.slope > -0.35:
        failures.append(f"volume log floor slope {fit.slope:.3f} > -0.35")
    _verdict(7, failures)


def _density_failures(scenarios, traces) -> list:
    failures = []
    l1_to_one = []
    for i in sorted(traces):
        trace = traces[i]
        f = volume_density(scenarios[i].metric, trace.alpha).values
        v = volume_density(trace.snapshot_at(1.0).metric(), trace.alpha).values
        shrink = math.exp(-1.0 / i)

        margin = float((v * (1.0 + 1e-6) - shrink * f).min())
        if margin < 0.0:
            failures.append(f"i={i}: pointwise e^(-1/i) f <= v fails by {-margin:.3g}")

        l1 = float(np.abs(v - f).mean())
        budget = 2.0 * (1.0 - shrink) * float(f.mean()) * (1.0 + 1e-6)
        if l1 > budget:
            failures.append(f"i={i}: |v - f|_L1 = {l1:.3g} > {budget:.3g}")

        l1_to_one.append(float(np.abs(v - 1.0).mean()))
    for a, b in zip(l1_to_one, l1_to_one[1:]):
        if not b < a:
            failures.append(f"|v-1|_L1 not strictly decreasing: {l1_to_one}")
            break
    return failures


def test_criterion_8_volume_density(family64):
    failures = _density_failures(family64["scenarios"], family64["traces"])
    _verdict(8, failures)


def test_criterion_9_distance_suite(family64):
    failures = []
    radius = 3

    battery = flat_accuracy_battery(
        FlatMetric(np.eye(1), geometry=GEO64), count=100, seed=2024, radius=radius
    )
    if battery["max_rel_error"] > FLAT_TOL:
        failures.append(f"flat battery max rel error {battery['max_rel_error']:.4f} > {FLAT_TOL:.0%}")

    queries = random_queries(GEO64, 10, 2024)
    frag = check_distance_estimate(
        family64["traces"][4], queries, times=(0.05, 0.25, 1.0), radius=radius
    )
    if not frag["pass"]:
        failures.append(f"i=4 estimate: min slack {frag['min_slack']:.3g} < 0 with C={frag['fitted_C']:.3g}")
    if not frag["fitted_C"] > 0.0:
        failures.append("i=4 estimate: no distance shrank, so the fit read no row")
    if len(frag["rows"]) != 30:
        failures.append(f"i=4 estimate: expected 30 rows, got {len(frag['rows'])}")

    frag64 = check_distance_estimate(
        family64["traces"][64], queries, times=(0.05, 0.25, 1.0), radius=radius
    )
    gap = frag64["max_flat_relative_gap"]
    if gap > 0.03:
        failures.append(f"i=64: |d0 - d_flat| = {gap:.4f} relative > 3%")
    _verdict(9, failures)


def test_criterion_10_two_dimensional_smoke(family_n2):
    failures = []
    scenarios, traces = family_n2["scenarios"], family_n2["traces"]

    for i, trace in traces.items():
        min_r = np.array([d.min_scalar_curvature for d in trace.diagnostics])
        min_dot = np.array([d.min_dot_phi for d in trace.diagnostics])
        vols = np.array([d.volume for d in trace.diagnostics])
        r_tol = 1e-3 * (1.0 + abs(min_r[0]))
        if _drift(min_r) > r_tol:
            failures.append(f"i={i}: min R drift {_drift(min_r):.3g} > {r_tol:.3g}")
        if _drift(min_dot) > 1e-4:
            failures.append(f"i={i}: min dphi/dt drift {_drift(min_dot):.3g} > 1e-4")
        v_rel = float(np.abs(vols - vols[0]).max() / vols[0])
        if v_rel > 1e-7:
            failures.append(f"i={i}: volume wandered by {v_rel:.3g} relative")
        worst = float(min_r.min())
        floor = -1.0 / i - 1e-3 * (1.0 + 1.0 / i)
        if worst < floor:
            failures.append(f"i={i}: min R {worst:.6f} < floor {floor:.6f}")

    failures.extend(_density_failures(scenarios, traces))

    if family_n2["elapsed"] >= 600.0:
        failures.append(f"runtime {family_n2['elapsed']:.0f}s >= 600s")
    _verdict(10, failures)
