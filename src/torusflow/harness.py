"""Measurement harness: turns flow traces into checked inequalities.

Every check produces a named entry with the measured constant(s), a
signed slack, a tolerance, and a pass flag; pass means slack >= -tol.
Per-scenario raw measurements are taken first, family-level constants
are fitted over the index sweep (as the smallest constant making each
bound hold family-wide), and the per-scenario entries then record the
slack against the fitted constant.  The interesting content is in the
decay-rate fits: measured quantities regressed against the index i on
log-log axes.

Check names, fixed for the JSON report schema:

  flat_representative   sup |u|, background equivalence, volume-ratio floor
  potential_bound       sup_t sup_x |phi(t)|
  rate_lower            inf dot-phi  >= -C / sqrt(i)
  rate_upper            dot-phi <= C / t + n
  trace_bound           t^{n-1} e^{-dot phi} tr_alpha(omega) bounded
  uniform_equivalence   e^{-C/t} <= g vs the unit background <= e^{C/t}
  scalar_floor          min_x R(t) >= -1/i (up to drift tolerance)
  weak_convergence      pairing gaps against constant-coefficient forms
  volume_density        pointwise and L^1 comparisons at the final time
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import constant_field, integrate, random_band_limited
from .geometry import (
    FlatMetric,
    TestForm,
    assemble,
    eigenvalue_range,
    pair_test_form,
    pairing_density,
    trace_wrt,
    volume,
    volume_density,
)
from .flow import FlowTrace

__all__ = [
    "CheckResult",
    "EstimateReport",
    "ScenarioResult",
    "RateFit",
    "default_test_forms",
    "check_scalar_floor",
    "fit_rate",
    "build_reports",
    "family_summary",
]

IDENTITY_TOL = 1e-8
RELATIVE_PAD = 1e-6
FIT_TOL = 1e-9  # fitted constants make their own bounds tight


@dataclass(frozen=True)
class CheckResult:
    name: str
    constants: dict
    slack: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "constants": dict(self.constants),
            "slack": self.slack,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _result(name: str, constants: dict, slack: float, tol: float) -> CheckResult:
    return CheckResult(name, constants, float(slack), float(tol), bool(slack >= -tol))


@dataclass
class EstimateReport:
    index: int
    amplitude: float
    checks: dict = field(default_factory=dict)

    def add(self, res: CheckResult) -> None:
        self.checks[res.name] = res

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "amplitude": self.amplitude,
            "checks": {k: v.as_dict() for k, v in sorted(self.checks.items())},
            "pass": self.all_passed,
        }


@dataclass
class ScenarioResult:
    index: int
    amplitude: float
    report: EstimateReport
    trace: FlowTrace


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    max_residual: float


def fit_rate(indices, values) -> RateFit:
    """Least-squares slope of log(value) against log(index)."""
    idx = np.asarray(indices, dtype=float)
    val = np.asarray(values, dtype=float)
    if idx.size < 3:
        raise ValueError("rate fit needs at least three points")
    if np.any(val <= 0):
        raise ValueError("rate fit needs positive values")
    x, y = np.log(idx), np.log(val)
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.abs(y - (slope * x + intercept)).max())
    return RateFit(float(slope), float(intercept), resid)


def default_test_forms(geometry, count: int = 5, max_mode: int = 3, seed: int = 101):
    """Constant form plus `count` band-limited factors (unit matrix part)."""
    beta = 1.0 if geometry.n == 1 else np.eye(2, dtype=np.complex128)
    forms = [("const", TestForm(constant_field(geometry, 1.0), beta))]
    for k in range(count):
        f = random_band_limited(seed + k, max_mode, geometry)
        forms.append((f"rand{k}", TestForm(f, beta)))
    if geometry.n == 2:
        # constant factors against each Hermitian coefficient direction
        basis = {
            "diag0": np.diag([1.0, 0.0]).astype(np.complex128),
            "diag1": np.diag([0.0, 1.0]).astype(np.complex128),
            "mix_re": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128),
            "mix_im": np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=np.complex128),
        }
        for label, b in basis.items():
            forms.append((f"const_{label}", TestForm(constant_field(geometry, 1.0), b)))
    return forms


# ---------------------------------------------------------------------------
# raw per-scenario measurements


@dataclass
class ScenarioMeasurement:
    index: int
    amplitude: float
    sup_u: float
    trace_flat_vs_unit: float
    trace_unit_vs_flat: float
    volume_log_floor: float  # min_x log(det g0 / det H_alpha)
    volume_initial: float
    volume_flat: float
    sup_abs_phi: float
    inf_dot_phi: float
    dot_phi_upper: float  # sup_t t * (max dot-phi - n)
    trace_bound: float  # sup_t sup_x t^{n-1} e^{-dot phi} tr_alpha omega
    equivalence: float  # sup_t t * max(log lam_max, -log lam_min) vs unit background
    forms: list  # (label, pairing0, pairing1, gap, residual)
    pointwise_slack: float
    l1_gap: float
    l1_budget: float
    lq_norms: dict
    v_minus_one_l1: float


def _measure(trace: FlowTrace, index: int, amplitude: float, forms, densities,
             q_list) -> ScenarioMeasurement:
    geo = trace.initial.geometry
    n = geo.n
    alpha = trace.alpha
    u = trace.flat_potential
    g0 = assemble(trace.initial)

    sup_u = float(np.abs(u.values).max())
    unit = FlatMetric(np.eye(n))
    trace_flat_vs_unit = float(trace_wrt(unit, alpha).values.max())
    trace_unit_vs_flat = float(trace_wrt(alpha, unit).values.max())
    v0 = volume_density(g0, alpha)
    volume_log_floor = float(np.log(v0.values).min())

    sup_abs_phi = 0.0
    trace_bound = 0.0
    equivalence = 0.0
    for s in trace.snapshots:
        sup_abs_phi = max(sup_abs_phi, float(np.abs(s.phi.values).max()))
        g_t = assemble(s.metric())
        tr_field = trace_wrt(alpha, g_t)
        weight = s.t ** (n - 1) * np.exp(-s.dot_phi.values)
        trace_bound = max(trace_bound, float((weight * tr_field.values).max()))
        lo, hi = eigenvalue_range(g_t)
        del g_t  # before the next assembly: two live n = 2 fields set the peak memory
        m = max(math.log(hi), -math.log(lo))
        equivalence = max(equivalence, s.t * m)

    inf_dot = min(d.min_dot_phi for d in trace.diagnostics)
    dot_upper = max(d.t * (d.max_dot_phi - n) for d in trace.diagnostics)

    final = trace.final
    phi_final = final.phi
    g1 = assemble(final.metric())
    form_rows = []
    for (label, form), density in zip(forms, densities):
        p0 = pair_test_form(g0, form)
        p1 = pair_test_form(g1, form)
        gap = integrate(phi_final * density)
        residual = abs(p1 - p0 - gap)
        form_rows.append((label, p0, p1, gap, residual))

    v_init = v0
    f_fin = volume_density(g1, alpha)
    shrink = math.exp(-1.0 / index)
    pointwise_slack = float(
        (v_init.values * (1.0 + RELATIVE_PAD) - shrink * f_fin.values).min()
    )
    measure = volume(alpha)  # L^1 norms below are against omega_alpha^n
    l1_gap = float(np.abs(v_init.values - f_fin.values).mean() * measure)
    vol_final = float(f_fin.values.mean() * measure)
    l1_budget = 2.0 * (1.0 - shrink) * vol_final * (1.0 + RELATIVE_PAD)
    lq = {}
    for q in q_list:
        expo = q / n
        lq[f"{q:g}"] = float((np.abs(v_init.values - 1.0) ** expo).mean() ** (1.0 / expo))
    v_minus_one_l1 = float(np.abs(v_init.values - 1.0).mean() * measure)

    return ScenarioMeasurement(
        index=index,
        amplitude=amplitude,
        sup_u=sup_u,
        trace_flat_vs_unit=trace_flat_vs_unit,
        trace_unit_vs_flat=trace_unit_vs_flat,
        volume_log_floor=volume_log_floor,
        volume_initial=volume(g0),
        volume_flat=measure,
        sup_abs_phi=sup_abs_phi,
        inf_dot_phi=inf_dot,
        dot_phi_upper=dot_upper,
        trace_bound=trace_bound,
        equivalence=equivalence,
        forms=form_rows,
        pointwise_slack=pointwise_slack,
        l1_gap=l1_gap,
        l1_budget=l1_budget,
        lq_norms=lq,
        v_minus_one_l1=v_minus_one_l1,
    )


# ---------------------------------------------------------------------------
# public per-scenario checks


def check_scalar_floor(trace: FlowTrace, index: int) -> CheckResult:
    m_margin = min(d.min_scalar_curvature + 1.0 / index for d in trace.diagnostics)
    tol = 1e-3 * (1.0 + 1.0 / index)
    return _result("scalar_floor", {"margin": m_margin, "index": index}, m_margin, tol)


# ---------------------------------------------------------------------------
# family-level assembly


def _fit_family(ms) -> dict:
    sqrt_i = lambda m: math.sqrt(m.index)  # noqa: E731
    return {
        "flat_floor_constant": max(max(0.0, -m.volume_log_floor) * sqrt_i(m) for m in ms),
        "potential_bound": max(m.sup_abs_phi for m in ms),
        "rate_lower_constant": max(max(0.0, -m.inf_dot_phi) * sqrt_i(m) for m in ms),
        "rate_upper_constant": max(max(0.0, m.dot_phi_upper) for m in ms),
        "trace_bound_constant": max(m.trace_bound for m in ms),
        "equivalence_constant": max(m.equivalence for m in ms),
        "pairing_constant": max(
            (abs(r[3]) * sqrt_i(m) for m in ms for r in m.forms if r[0] != "const"),
            default=0.0,
        ),
    }


def _flow_bound_results(m: ScenarioMeasurement, fam: dict) -> dict:
    out = {}
    out["potential_bound"] = _result(
        "potential_bound",
        {"sup_abs_phi": m.sup_abs_phi, "bound": fam["potential_bound"]},
        fam["potential_bound"] - m.sup_abs_phi,
        FIT_TOL,
    )
    lower = fam["rate_lower_constant"]
    out["rate_lower"] = _result(
        "rate_lower",
        {"inf_dot_phi": m.inf_dot_phi, "constant": lower},
        m.inf_dot_phi + lower / math.sqrt(m.index),
        FIT_TOL,
    )
    upper = fam["rate_upper_constant"]
    out["rate_upper"] = _result(
        "rate_upper",
        {"sup_t_excess": m.dot_phi_upper, "constant": upper},
        upper - m.dot_phi_upper,
        FIT_TOL,
    )
    out["trace_bound"] = _result(
        "trace_bound",
        {"sup_weighted_trace": m.trace_bound, "constant": fam["trace_bound_constant"]},
        fam["trace_bound_constant"] - m.trace_bound,
        FIT_TOL,
    )
    out["uniform_equivalence"] = _result(
        "uniform_equivalence",
        {"sup_t_log_ratio": m.equivalence, "constant": fam["equivalence_constant"]},
        fam["equivalence_constant"] - m.equivalence,
        FIT_TOL,
    )
    return out


def _weak_convergence_result(m: ScenarioMeasurement, pairing_constant: float) -> CheckResult:
    rows = [
        {"label": lab, "pairing_initial": p0, "pairing_final": p1,
         "gap": gap, "identity_residual": res}
        for lab, p0, p1, gap, res in m.forms
    ]
    worst = max((r["identity_residual"] for r in rows), default=0.0)
    # family bound |gap| <= C / sqrt(i); fitted C makes this >= 0
    budget = pairing_constant / math.sqrt(m.index)
    bound_slack = min(
        (budget - abs(r[3]) for r in m.forms if r[0] != "const"),
        default=0.0,
    )
    constants = {
        "forms": rows,
        "max_identity_residual": worst,
        "pairing_constant": pairing_constant,
        "min_bound_slack": bound_slack,
    }
    slack = min(IDENTITY_TOL - worst, bound_slack + FIT_TOL)
    return _result("weak_convergence", constants, slack, 0.0)


def _volume_density_result(m: ScenarioMeasurement) -> CheckResult:
    slack = min(m.pointwise_slack, m.l1_budget - m.l1_gap)
    constants = {
        "pointwise_slack": m.pointwise_slack,
        "l1_gap": m.l1_gap,
        "l1_budget": m.l1_budget,
        "lq_norms": dict(m.lq_norms),
        "v_minus_one_l1": m.v_minus_one_l1,
    }
    return _result("volume_density", constants, slack, 0.0)


def build_reports(scenarios, traces, forms=None, q_list=None):
    """Per-scenario reports with family-fitted constants.

    scenarios: list of Scenario (from make_sequence); traces: matching
    FlowTrace list.  Returns (list of ScenarioResult, family constants).
    """
    if len(scenarios) != len(traces):
        raise ValueError("scenario and trace lists differ in length")
    geo = scenarios[0].metric.geometry
    if forms is None:
        forms = default_test_forms(geo)
    if q_list is None:
        q_list = [float(geo.n), 1.5 * geo.n]
    densities = [pairing_density(form) for _, form in forms]
    ms = [
        _measure(tr, sc.index, sc.amplitude, forms, densities, q_list)
        for sc, tr in zip(scenarios, traces)
    ]
    fam = _fit_family(ms)
    results = []
    for sc, tr, m in zip(scenarios, traces, ms):
        rep = EstimateReport(index=sc.index, amplitude=sc.amplitude)
        floor_fit = fam["flat_floor_constant"]
        rep.add(
            _result(
                "flat_representative",
                {
                    "sup_u": m.sup_u,
                    "trace_flat_vs_unit": m.trace_flat_vs_unit,
                    "trace_unit_vs_flat": m.trace_unit_vs_flat,
                    "volume_log_floor": m.volume_log_floor,
                    "floor_constant": floor_fit,
                    "volume_input": m.volume_initial,
                    "volume_flat": m.volume_flat,
                },
                m.volume_log_floor + floor_fit / math.sqrt(m.index),
                FIT_TOL,
            )
        )
        for res in _flow_bound_results(m, fam).values():
            rep.add(res)
        rep.add(check_scalar_floor(tr, sc.index))
        rep.add(_weak_convergence_result(m, fam["pairing_constant"]))
        rep.add(_volume_density_result(m))
        results.append(ScenarioResult(sc.index, sc.amplitude, rep, tr))
    return results, fam, ms


DEGENERATE = 1e-12  # below this a measured family is flat, not decaying


def family_summary(ms, fam, rate_tol_primary: float = -0.35,
                   rate_tol_pairing: float = -0.4) -> dict:
    """Rate fits and monotonicity over the index sweep.

    Sections carry an `applicable` flag: a flat family has nothing to
    regress (all values at rounding level), and fewer than three indices
    cannot support a slope at all.
    """
    idx = [m.index for m in ms]
    out = {"constants": dict(fam), "rates": {}, "monotonic": {}, "flags": {}}
    if len(ms) >= 3:
        for key, values in (
            ("inf_dot_phi", [-m.inf_dot_phi for m in ms]),
            ("volume_log_floor", [-m.volume_log_floor for m in ms]),
        ):
            if min(values) <= DEGENERATE:
                out["rates"][key] = {"applicable": False, "reason": "values at rounding level"}
                continue
            f = fit_rate(idx, values)
            out["rates"][key] = {
                "applicable": True,
                "slope": f.slope,
                "threshold": rate_tol_primary,
                "pass": f.slope <= rate_tol_primary,
            }
        # decay of pairing gaps, random (oscillatory) forms only: constant
        # test factors pair to exactly zero and carry no rate
        labels = [r[0] for r in ms[0].forms if r[0].startswith("rand")]
        per_form = {}
        passing = 0
        fitted = 0
        for lab in labels:
            vals = [next(abs(r[3]) for r in m.forms if r[0] == lab) for m in ms]
            if min(vals) <= DEGENERATE:
                per_form[lab] = {"slope": None, "pass": False, "reason": "gap at rounding level"}
                continue
            f = fit_rate(idx, vals)
            good = f.slope <= rate_tol_pairing
            per_form[lab] = {"slope": f.slope, "threshold": rate_tol_pairing, "pass": good}
            fitted += 1
            passing += int(good)
        need = max(len(labels) - 1, 0)
        out["rates"]["pairing_gaps"] = {
            "applicable": bool(labels) and fitted > 0,
            "per_form": per_form,
            "passing": passing,
            "required": need,
            "pass": passing >= need,
        }
        # uniformity flags: fitted per-index constants should not grow with i
        for key, series in {
            "flat_floor_constant": [-m.volume_log_floor * math.sqrt(m.index) for m in ms],
            "rate_lower_constant": [-m.inf_dot_phi * math.sqrt(m.index) for m in ms],
        }.items():
            if min(series) <= DEGENERATE:
                continue
            f = fit_rate(idx, series)
            out["flags"][key + "_growth"] = {"slope": f.slope, "grows": f.slope > 0.1}
    l1 = [m.v_minus_one_l1 for m in ms]
    drops = [l1[k] - l1[k + 1] for k in range(len(l1) - 1)]
    out["monotonic"]["v_minus_one_l1"] = {
        "applicable": max(l1, default=0.0) > DEGENERATE and len(l1) >= 2,
        "values": l1,
        "strictly_decreasing": bool(all(d > 0 for d in drops)) if drops else True,
    }
    return out
