"""Estimate harness: rate fits, fitted constants, check plumbing."""

import dataclasses
import math
import weakref

import numpy as np
import pytest

from conftest import cos_field

from torusflow import (
    FlowConfig,
    KahlerMetric,
    Scenario,
    ScenarioSpec,
    TorusGeometry,
    assemble,
    build_reports,
    check_scalar_floor,
    constant_field,
    default_test_forms,
    family_summary,
    fit_rate,
    load_trace,
    make_sequence,
    measure,
    pair_test_form,
    pairing_density,
    run_flow,
    save_trace,
)
from torusflow import geometry, harness
from torusflow.distances import DistanceResult
from torusflow.harness import FIT_TOL, FITTED_BOUNDS

CHECK_NAMES = {
    "flat_representative",
    "potential_bound",
    "rate_lower",
    "rate_upper",
    "trace_bound",
    "uniform_equivalence",
    "scalar_floor",
    "weak_convergence",
    "volume_density",
}


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_power_law():
    idx = [1, 4, 16, 64]
    f = fit_rate(idx, [3.0 * i ** -0.5 for i in idx])
    assert f.slope == pytest.approx(-0.5, abs=1e-12)
    assert f.intercept == pytest.approx(math.log(3.0), abs=1e-12)
    assert f.max_residual < 1e-12


def test_fit_rate_constant_series():
    f = fit_rate([1, 4, 16], [2.0, 2.0, 2.0])
    assert f.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_with_noise():
    rng = np.random.default_rng(5)
    idx = [1, 2, 4, 8, 16, 32, 64]
    vals = [i ** -0.5 * math.exp(rng.uniform(-0.02, 0.02)) for i in idx]
    f = fit_rate(idx, vals)
    assert abs(f.slope + 0.5) < 0.05


def test_fit_rate_rejections():
    with pytest.raises(ValueError):
        fit_rate([1, 4], [1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([1, 4, 16], [1.0, 0.0, 0.5])


# ---------------------------------------------------------------------------
# test-form battery


def test_default_forms_one_dim(geo1):
    forms = default_test_forms(geo1)
    labels = [lab for lab, _ in forms]
    assert labels == ["const", "rand0", "rand1", "rand2", "rand3", "rand4"]
    for lab, form in forms[1:]:
        assert abs(form.f.values.mean()) < 1e-13  # mean-zero factors


def test_default_forms_two_dim(geo2):
    labels = [lab for lab, _ in default_test_forms(geo2)]
    assert labels[:2] == ["const", "rand0"]
    assert {"const_diag0", "const_diag1", "const_mix_re", "const_mix_im"} <= set(labels)


# ---------------------------------------------------------------------------
# full harness over a calibrated family


def measure_family(scenarios, traces):
    """`measure` on each scenario with the default forms and q list."""
    geo = scenarios[0].metric.geometry
    forms = default_test_forms(geo)
    densities = [pairing_density(form) for _, form in forms]
    q_list = [float(geo.n), 1.5 * geo.n]
    return [
        measure(tr, sc.index, sc.amplitude, forms, densities, q_list)
        for sc, tr in zip(scenarios, traces)
    ]


@pytest.fixture(scope="module")
def reported_family():
    geo = TorusGeometry(1, 32)
    spec = ScenarioSpec(geometry=geo, seed=90, indices=(1, 4, 16, 64), p=math.inf)
    scenarios = make_sequence(spec)
    cfg = FlowConfig(t_end=1.0)
    traces = [run_flow(sc.metric, cfg) for sc in scenarios]
    ms = measure_family(scenarios, traces)
    reports, fam = build_reports(ms)
    return scenarios, traces, reports, fam, ms


def test_failed_distance_result_fails_the_report():
    """A report's verdict takes in its distance result: a battery that fails
    while every harness row passes fails the report, which keeps its checks
    and lists the distance rows after its own sorted ones."""
    rows = [harness._result(name, {}, 0.5, 0.0) for name in ("volume_density", "rate_lower")]
    distance_rows = [harness._result("distance[q0,t=0.25]", {}, 0.0, FIT_TOL)]
    failed = DistanceResult(report={"pass": True, "flat_battery": {"max_rel_error": 0.5}},
                            checks=distance_rows, rows=[], family_cells={}, passed=False)
    checks = {res.name: res for res in rows}
    plain = harness.EstimateReport(4, 0.1, dict(checks))
    with_distance = harness.EstimateReport(4, 0.1, dict(checks), failed)
    assert plain.all_passed and plain.as_dict()["pass"] is True
    assert "distance" not in plain.as_dict()
    assert with_distance.all_passed is False
    report = with_distance.as_dict()
    assert report["pass"] is False
    assert report["checks"] == plain.as_dict()["checks"]
    assert report["distance"] is failed.report
    assert with_distance.check_rows == [rows[1], rows[0], *distance_rows]


def test_reports_have_every_check(reported_family):
    _, _, reports, _, _ = reported_family
    for rep in reports:
        assert set(rep.checks) == CHECK_NAMES


def test_reports_all_pass(reported_family):
    _, _, reports, _, _ = reported_family
    for rep in reports:
        for name, check in rep.checks.items():
            assert check.passed, f"i={rep.index} {name}: slack={check.slack}"
            assert check.slack >= -check.tolerance


# each fitted check's bound, written out apart from the harness table:
# value(m) <= C / sqrt(i) when it decays, value(m) <= C otherwise
FITTED_VALUES = {
    "flat_representative": (lambda m: -m.volume_log_floor, True),
    "potential_bound": (lambda m: m.sup_abs_phi, False),
    "rate_lower": (lambda m: -m.inf_dot_phi, True),
    "rate_upper": (lambda m: m.dot_phi_upper, False),
    "trace_bound": (lambda m: m.trace_bound, False),
    "uniform_equivalence": (lambda m: m.equivalence, False),
}


def test_fitted_constants_cover_family(reported_family):
    """Each family constant is the family maximum of its scaled value, so
    every slack is >= 0 and the scenario that sets the constant is tight."""
    _, _, reports, fam, ms = reported_family
    assert {b.check for b in FITTED_BOUNDS} == set(FITTED_VALUES)
    for b in FITTED_BOUNDS:
        value, decays = FITTED_VALUES[b.check]
        scale = [math.sqrt(m.index) if decays else 1.0 for m in ms]
        constant = max(max(0.0, value(m)) * s for m, s in zip(ms, scale))
        assert fam[b.key] == pytest.approx(constant, rel=1e-12, abs=0.0), b.check
        slacks = []
        for rep, m, s in zip(reports, ms, scale):
            check = rep.checks[b.check]
            assert check.constants[b.constant_label] == fam[b.key]
            assert check.slack == pytest.approx(constant / s - value(m), rel=1e-12, abs=1e-15)
            slacks.append(check.slack)
        assert min(slacks) >= -FIT_TOL, b.check
        assert abs(min(slacks)) <= FIT_TOL, b.check


def test_fit_family_is_the_fitted_bounds_table(reported_family):
    """The six FITTED_BOUNDS rows are the one fit rule: no other constant
    is fitted over the family."""
    _, _, _, fam, ms = reported_family
    assert set(harness._fit_family(ms)) == set(fam) == {b.key for b in FITTED_BOUNDS}


def test_weak_convergence_is_the_pairing_identity(reported_family):
    """weak_convergence checks only what can fail: each form's gap,
    computed two ways, agrees within IDENTITY_TOL."""
    _, _, reports, _, ms = reported_family
    for rep, m in zip(reports, ms):
        check = rep.checks["weak_convergence"]
        worst = max(row[4] for row in m.forms)
        assert check.constants["max_identity_residual"] == worst
        assert check.slack == harness.IDENTITY_TOL - worst, f"i={m.index}"
        assert check.tolerance == 0.0


def test_rate_sections(reported_family):
    _, _, _, fam, ms = reported_family
    summary = family_summary(ms, fam)
    r = summary["rates"]["inf_dot_phi"]
    assert r["applicable"] and r["pass"], r
    r = summary["rates"]["volume_log_floor"]
    assert r["applicable"] and r["pass"], r
    pg = summary["rates"]["pairing_gaps"]
    assert pg["applicable"]
    assert pg["passing"] >= pg["required"], pg["per_form"]


@pytest.mark.parametrize("forms, required", [(1, 1), (2, 1), (3, 2)])
def test_pairing_gap_fit_can_fail(reported_family, monkeypatch, forms, required):
    """With every form missing the rate, the section fails: one form must
    reach it itself, and of two or more all but one must."""
    _, _, _, fam, ms = reported_family
    labels = [r[0] for r in ms[0].forms if r[0].startswith("rand")][:forms]
    assert len(labels) == forms
    kept = [dataclasses.replace(m, forms=[r for r in m.forms if r[0] in labels]) for m in ms]
    monkeypatch.setattr(harness, "RATE_TOL_PAIRING", -10.0)
    summary = family_summary(kept, fam)
    pg = summary["rates"]["pairing_gaps"]
    assert pg["applicable"] and pg["passing"] == 0
    assert pg["required"] == required
    assert not pg["pass"] and not harness.family_passed(summary)


def test_l1_monotone_section(reported_family):
    _, _, _, fam, ms = reported_family
    summary = family_summary(ms, fam)
    sec = summary["monotonic"]["v_minus_one_l1"]
    assert sec["applicable"]
    assert sec["strictly_decreasing"], sec["values"]


def test_scalar_floor_single_check(reported_family):
    scenarios, traces, reports, _, ms = reported_family
    for sc, tr, rep, m in zip(scenarios, traces, reports, ms):
        res = check_scalar_floor(tr, sc.index)
        assert res.name == "scalar_floor"
        assert res.passed
        assert m.checks["scalar_floor"] == res == rep.checks["scalar_floor"]
        assert m.min_scalar_vs_t == sorted((d.t, d.min_scalar_curvature) for d in tr.diagnostics)


def _measure_assemblies(trace, sc, monkeypatch):
    """`measure` of one trace, and the number of assemblies it ran."""
    calls = []
    monkeypatch.setattr(harness, "assemble", lambda m: calls.append(1) or assemble(m))
    (m,) = measure_family([sc], [trace])
    return m, len(calls)


def test_measure_makes_one_eigenvalue_pass_per_snapshot(reported_family, monkeypatch):
    """A snapshot's rate and eigenvalue range read one grid pass; the one
    more is the initial volume's."""
    scenarios, traces, _, _, ms = reported_family
    passes = []
    original = geometry._eigenvalues

    def counted(v, *args):
        if np.ndim(v) > 1:
            passes.append(v.shape)
        return original(v, *args)

    monkeypatch.setattr(geometry, "_eigenvalues", counted)
    (m,) = measure_family(scenarios[:1], traces[:1])
    assert len(passes) == 1 + len(traces[0].snapshots)
    assert m == ms[0]


def _assert_final_pairings(m, trace):
    """The pairings at the final state are those of its own assembly."""
    g1 = assemble(trace.final.metric())
    for (label, form), row in zip(default_test_forms(trace.initial.geometry), m.forms):
        assert row[0] == label
        assert row[2] == pair_test_form(g1, form)


def test_measure_reuses_last_snapshot_assembly(reported_family, monkeypatch, tmp_path):
    """The last snapshot is the final state, in process and after a save
    and load, and `measure` assembles it once: t = 0, then each snapshot."""
    scenarios, traces, _, _, ms = reported_family
    sc, tr = scenarios[0], traces[0]
    assert tr.final is tr.snapshots[-1]
    loaded = load_trace(save_trace(tr, tmp_path / "trace"))
    assert loaded.final is loaded.snapshots[-1]
    for trace in (tr, loaded):
        m, count = _measure_assemblies(trace, sc, monkeypatch)
        assert count == 1 + len(trace.snapshots) == 7
        _assert_final_pairings(m, trace)
    assert m == ms[0]


def test_measure_assembles_off_grid_final_state(monkeypatch):
    """A final time missing from the configured snapshot times becomes the
    last snapshot, and is assembled once with the others."""
    geo = TorusGeometry(1, 16)
    (sc,) = make_sequence(ScenarioSpec(geometry=geo, seed=90, indices=(4,)))
    tr = run_flow(sc.metric, FlowConfig(t_end=0.3, snapshot_times=(0.05, 0.25)))
    assert tr.config.snapshot_times == (0.05, 0.25, 0.3)
    assert tr.final is tr.snapshots[-1] and tr.final.t == pytest.approx(0.3)
    m, count = _measure_assemblies(tr, sc, monkeypatch)
    assert count == 1 + len(tr.snapshots) == 4
    _assert_final_pairings(m, tr)


def test_measure_holds_one_assembly_at_a_time(monkeypatch):
    """At n = 2, `measure` reads g0 before it assembles the snapshots: no
    field that `assemble` returned is alive when the next one is made."""
    geo = TorusGeometry(2, 8)
    psi = 0.01 * cos_field(geo, 0) + 0.005 * cos_field(geo, 3)
    trace = run_flow(KahlerMetric(np.eye(2), psi),
                     FlowConfig(t_end=0.05, snapshot_times=(0.01, 0.02)))
    assembled = []
    live_at_assembly = []

    def tracked(metric):
        live_at_assembly.append(sum(ref() is not None for ref in assembled))
        g = assemble(metric)
        assembled.append(weakref.ref(g))
        return g

    monkeypatch.setattr(harness, "assemble", tracked)
    forms = default_test_forms(geo, max_mode=2)
    measure(trace, 4, 0.0, forms, [pairing_density(form) for _, form in forms], [2.0, 3.0])
    assert len(assembled) == 1 + len(trace.snapshots) == 4
    assert live_at_assembly == [0, 0, 0, 0]


def test_check_result_serialization(reported_family):
    _, _, reports, _, _ = reported_family
    d = reports[0].as_dict()
    assert d["index"] == 1
    for name, entry in d["checks"].items():
        assert name in CHECK_NAMES
        assert set(entry) == {"constants", "slack", "tolerance", "pass"}
        assert isinstance(entry["pass"], bool)


# ---------------------------------------------------------------------------
# degenerate (flat) family: nothing to regress, everything passes


def flat_scenarios(geo, indices):
    flat = KahlerMetric(np.eye(geo.n), constant_field(geo, 0.0))
    n = geo.n
    return [
        Scenario(
            index=i,
            amplitude=0.0,
            metric=flat,
            curvature_floor=0.0,
            volume=float(2.0**n * math.factorial(n)),
            trace_norm=float(n),
            positive_part_budget=0.0,
        )
        for i in indices
    ]


def test_flat_family_all_pass_no_rates():
    geo = TorusGeometry(1, 16)
    scenarios = flat_scenarios(geo, (1, 4, 16))
    cfg = FlowConfig(t_end=0.25, snapshot_times=(0.05, 0.25))
    traces = [run_flow(sc.metric, cfg) for sc in scenarios]
    ms = measure_family(scenarios, traces)
    reports, fam = build_reports(ms)
    for rep in reports:
        assert rep.all_passed
    summary = family_summary(ms, fam)
    assert not summary["rates"]["inf_dot_phi"]["applicable"]
    assert not summary["rates"]["volume_log_floor"]["applicable"]
    assert not summary["monotonic"]["v_minus_one_l1"]["applicable"]
