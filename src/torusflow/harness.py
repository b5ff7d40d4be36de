"""Measurement harness: turns flow traces into checked inequalities.

Every check produces a named entry with the measured constant(s), a
signed slack, a tolerance, and a pass flag; pass means slack >= -tol.
Per-scenario measurements are taken first, one trace at a time
(`measure`), and they already hold the rows one scenario decides alone:
`scalar_floor`, `weak_convergence` and `volume_density`.  `build_reports`
then fits the six FITTED_BOUNDS constants over the index sweep (as the
smallest constant making each bound hold family-wide), adds their rows
with each scenario's slack against the fitted constant, and puts the
flat representative's own readings beside its fitted row.  The
interesting content is in the decay-rate fits: measured quantities
regressed against the index i on log-log axes.  `family_columns` is the
schema of family.csv: one scenario's cells, by column name.

A measurement's `distance`, its `distances.DistanceResult` when the battery
ran, goes to its report: `EstimateReport.all_passed`, report.json's "pass",
is the scenario's whole verdict, and `family_columns` ends with its cells.

Check names, fixed for the JSON report schema:

  flat_representative   sup |u|, background equivalence, volume-ratio floor
  potential_bound       sup_t sup_x |phi(t)|
  rate_lower            inf dot-phi  >= -C / sqrt(i)
  rate_upper            dot-phi <= C / t + n
  trace_bound           t^{n-1} e^{-dot phi} tr_alpha(omega) bounded
  uniform_equivalence   e^{-C/t} <= g vs the unit background <= e^{C/t}
  scalar_floor          min_x R(t) >= -1/i (up to drift tolerance)
  weak_convergence      pairing identity per test form: |P1 - P0 - gap| <= IDENTITY_TOL
  volume_density        pointwise and L^1 comparisons at the final time
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .fields import HermitianField, constant_field, integrate, random_band_limited
from .geometry import (
    FlatMetric,
    TestForm,
    _log_det,
    _positive_eigenvalues,
    assemble,
    pair_test_form,
    trace_wrt,
    volume,
    volume_density,
)
from .flow import FlowTrace, _rhs_field
from .scenarios import ScenarioSpec

__all__ = [
    "HarnessConfig",
    "CheckResult",
    "EstimateReport",
    "RateFit",
    "default_test_forms",
    "check_scalar_floor",
    "fit_rate",
    "measure",
    "build_reports",
    "family_columns",
    "family_summary",
    "family_passed",
]

IDENTITY_TOL = 1e-8
RELATIVE_PAD = 1e-6
FIT_TOL = 1e-9  # fitted constants make their own bounds tight


@dataclass(frozen=True)
class HarnessConfig:
    """Test forms for the pairing checks and the L^q exponents of the
    density; an empty q_list leaves them to the experiment, which uses
    (n, 1.5 n)."""

    test_forms: int = 5
    form_seed: int = 101
    q_list: tuple = ()


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
    distance: object = None  # the scenario's distances.DistanceResult, if the battery ran

    @property
    def check_rows(self) -> list:
        """checks.csv's rows: the checks by name, then the distance rows."""
        rows = [chk for _, chk in sorted(self.checks.items())]
        return rows if self.distance is None else rows + self.distance.checks

    @property
    def all_passed(self) -> bool:
        """The scenario's verdict: every check, and the distance battery."""
        return (all(c.passed for c in self.checks.values())
                and (self.distance is None or self.distance.passed))

    def as_dict(self) -> dict:
        distance = {} if self.distance is None else {"distance": self.distance.report}
        return {
            "index": self.index,
            "amplitude": self.amplitude,
            "checks": {k: v.as_dict() for k, v in sorted(self.checks.items())},
            "pass": self.all_passed,
            **distance,
        }


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


def default_test_forms(geometry, count: int = HarnessConfig.test_forms,
                       max_mode: int = ScenarioSpec.max_mode, seed: int = HarnessConfig.form_seed):
    """Constant form plus `count` band-limited factors (unit matrix part).
    The constant forms share one all-ones factor."""
    beta = 1.0 if geometry.n == 1 else np.eye(2, dtype=np.complex128)
    ones = constant_field(geometry, 1.0)
    forms = [("const", TestForm(ones, beta))]
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
            forms.append((f"const_{label}", TestForm(ones, b)))
    return forms


# ---------------------------------------------------------------------------
# raw per-scenario measurements


class Pairing(NamedTuple):
    """A test form's pairings with g0 and the final metric, their gap from the
    flow potential and |final - initial - gap|, named as in report.json."""

    label: str
    pairing_initial: float
    pairing_final: float
    gap: float
    identity_residual: float


@dataclass
class ScenarioMeasurement:
    index: int
    amplitude: float
    flat_readings: dict  # flat_representative's own constants, by report key
    volume_log_floor: float  # min_x log(det g0 / det H_alpha)
    sup_abs_phi: float
    inf_dot_phi: float
    dot_phi_upper: float  # sup_t t * (max dot-phi - n)
    trace_bound: float  # sup_t sup_x t^{n-1} e^{-dot phi} tr_alpha omega
    equivalence: float  # sup_t t * max(log lam_max, -log lam_min) vs unit background
    forms: list  # a Pairing per test form
    lq_norms: dict
    v_minus_one_l1: float
    checks: dict  # check name -> CheckResult of the rows this scenario decides alone
    min_scalar_vs_t: list  # (t, min_x R) per diagnostics row, sorted by t
    distance: object = None  # distances.DistanceResult when the battery ran


def _snapshot_readings(g: HermitianField, t: float, alpha: FlatMetric) -> tuple:
    """(sup_x t^{n-1} e^{-dot phi} tr_alpha omega, lambda_min, lambda_max) of one
    snapshot's assembled metric, from one eigenvalue pass.  None of its grid
    temporaries outlives the call into the next assembly."""
    geo = g.geometry
    eig = _positive_eigenvalues(g.values)
    lo, hi = float(eig[0].min()), float(eig[-1].max())
    log_det = _log_det(eig)
    del eig  # before the transforms of the rate
    weight = t ** (geo.n - 1) * np.exp(-_rhs_field(geo, log_det, alpha).values)
    return float((weight * trace_wrt(alpha, g).values).max()), lo, hi


def measure(trace: FlowTrace, index: int, amplitude: float, forms, densities,
            q_list) -> ScenarioMeasurement:
    """Everything the reports read off one scenario's trace, which it does
    not keep.  densities: `pairing_density` of each (label, form) in forms.

    Every reading of g0, the initial metric's assembly, is taken before the
    snapshots are assembled, and no two assemblies are alive at once: at
    n = 2 the live assembled fields set the peak memory."""
    geo = trace.initial.geometry
    n = geo.n
    alpha = trace.alpha
    g0 = assemble(trace.initial)

    unit = FlatMetric(np.eye(n), geo)
    vol_flat = volume(alpha)  # L^1 norms below are against omega_alpha^n
    flat_readings = {
        "sup_u": float(np.abs(trace.flat_potential.values).max()),
        "trace_flat_vs_unit": float(trace_wrt(unit, alpha).values.max()),
        "trace_unit_vs_flat": float(trace_wrt(alpha, unit).values.max()),
        "volume_input": volume(g0),
        "volume_flat": vol_flat,
    }
    v0 = volume_density(g0, alpha)
    volume_log_floor = float(np.log(v0.values).min())
    pairings_initial = [pair_test_form(g0, form) for _, form in forms]
    del g0

    final = trace.final
    sup_abs_phi = 0.0
    trace_bound = 0.0
    equivalence = 0.0
    for s in trace.snapshots:
        sup_abs_phi = max(sup_abs_phi, float(np.abs(s.phi.values).max()))
        g_t = assemble(s.metric())
        bound, lo, hi = _snapshot_readings(g_t, s.t, alpha)
        trace_bound = max(trace_bound, bound)
        if s is not final:
            del g_t  # before the next assembly, which would otherwise be a second live field
        m = max(math.log(hi), -math.log(lo))
        equivalence = max(equivalence, s.t * m)
    g1 = g_t  # the final state's assembly

    inf_dot = min(d.min_dot_phi for d in trace.diagnostics)
    dot_upper = max(d.t * (d.max_dot_phi - n) for d in trace.diagnostics)

    phi_final = final.phi
    pairings = []
    for (label, form), density, p0 in zip(forms, densities, pairings_initial):
        p1 = pair_test_form(g1, form)
        gap = integrate(phi_final * density)
        pairings.append(Pairing(label, p0, p1, gap, abs(p1 - p0 - gap)))

    f_fin = volume_density(g1, alpha)
    shrink = math.exp(-1.0 / index)
    pointwise_slack = float((v0.values * (1.0 + RELATIVE_PAD) - shrink * f_fin.values).min())
    l1_gap = float(np.abs(v0.values - f_fin.values).mean() * vol_flat)
    vol_final = float(f_fin.values.mean() * vol_flat)
    l1_budget = 2.0 * (1.0 - shrink) * vol_final * (1.0 + RELATIVE_PAD)
    lq = {}
    for q in q_list:
        expo = q / n
        lq[f"{q:g}"] = float((np.abs(v0.values - 1.0) ** expo).mean() ** (1.0 / expo))
    v_minus_one_l1 = float(np.abs(v0.values - 1.0).mean() * vol_flat)
    volume_check = _result("volume_density", {
        "pointwise_slack": pointwise_slack, "l1_gap": l1_gap, "l1_budget": l1_budget,
        "lq_norms": dict(lq), "v_minus_one_l1": v_minus_one_l1,
    }, min(pointwise_slack, l1_budget - l1_gap), 0.0)

    return ScenarioMeasurement(
        index=index,
        amplitude=amplitude,
        flat_readings=flat_readings,
        volume_log_floor=volume_log_floor,
        sup_abs_phi=sup_abs_phi,
        inf_dot_phi=inf_dot,
        dot_phi_upper=dot_upper,
        trace_bound=trace_bound,
        equivalence=equivalence,
        forms=pairings,
        lq_norms=lq,
        v_minus_one_l1=v_minus_one_l1,
        checks={res.name: res for res in (check_scalar_floor(trace, index),
                                          _weak_convergence_result(pairings), volume_check)},
        min_scalar_vs_t=sorted((d.t, d.min_scalar_curvature) for d in trace.diagnostics),
    )


# ---------------------------------------------------------------------------
# public per-scenario checks


def check_scalar_floor(trace: FlowTrace, index: int) -> CheckResult:
    m_margin = min(d.min_scalar_curvature + 1.0 / index for d in trace.diagnostics)
    tol = 1e-3 * (1.0 + 1.0 / index)
    return _result("scalar_floor", {"margin": m_margin, "index": index}, m_margin, tol)


# ---------------------------------------------------------------------------
# family-level assembly


@dataclass(frozen=True)
class FittedBound:
    """A family-fitted bound sign * value <= C (or C / sqrt(i) if it decays).

    C is the family maximum of max(0, sign * value), times sqrt(i) for a
    decaying bound; each scenario's slack is its bound minus sign * value.
    """

    check: str
    key: str  # family-constant key
    attr: str  # ScenarioMeasurement attribute
    sign: float
    decays: bool
    value_label: str
    constant_label: str


FITTED_BOUNDS = (
    FittedBound("flat_representative", "flat_floor_constant", "volume_log_floor", -1.0, True,
                "volume_log_floor", "floor_constant"),
    FittedBound("potential_bound", "potential_bound", "sup_abs_phi", 1.0, False,
                "sup_abs_phi", "bound"),
    FittedBound("rate_lower", "rate_lower_constant", "inf_dot_phi", -1.0, True,
                "inf_dot_phi", "constant"),
    FittedBound("rate_upper", "rate_upper_constant", "dot_phi_upper", 1.0, False,
                "sup_t_excess", "constant"),
    FittedBound("trace_bound", "trace_bound_constant", "trace_bound", 1.0, False,
                "sup_weighted_trace", "constant"),
    FittedBound("uniform_equivalence", "equivalence_constant", "equivalence", 1.0, False,
                "sup_t_log_ratio", "constant"),
)


def _scale(b: FittedBound, m: ScenarioMeasurement) -> float:
    return math.sqrt(m.index) if b.decays else 1.0


def _fit_family(ms) -> dict:
    return {
        b.key: max(max(0.0, b.sign * getattr(m, b.attr)) * _scale(b, m) for m in ms)
        for b in FITTED_BOUNDS
    }


def _fitted_results(m: ScenarioMeasurement, fam: dict):
    for b in FITTED_BOUNDS:
        value, constant = getattr(m, b.attr), fam[b.key]
        yield _result(
            b.check,
            {b.value_label: value, b.constant_label: constant},
            constant / _scale(b, m) - b.sign * value,
            FIT_TOL,
        )


def _weak_convergence_result(pairings) -> CheckResult:
    """The pairing identity: each form's gap, computed two ways, agrees
    within IDENTITY_TOL; the gaps' decay is family_summary's rate fit."""
    worst = max((p.identity_residual for p in pairings), default=0.0)
    constants = {"forms": [p._asdict() for p in pairings], "max_identity_residual": worst}
    return _result("weak_convergence", constants, IDENTITY_TOL - worst, 0.0)


def build_reports(ms):
    """Per-scenario reports with family-fitted constants.

    ms: the ScenarioMeasurement of every scenario in the family, from
    `measure`, each with its distance result if the battery ran.  Returns
    (list of EstimateReport in the order of ms, family constants).
    """
    fam = _fit_family(ms)
    reports = []
    for m in ms:
        checks = {res.name: res for res in _fitted_results(m, fam)}
        checks["flat_representative"].constants.update(m.flat_readings)
        reports.append(EstimateReport(m.index, m.amplitude, {**checks, **m.checks}, m.distance))
    return reports, fam


def family_columns(m: ScenarioMeasurement) -> dict:
    """One scenario's family.csv cells, column name -> value, in column order."""
    return {
        "index": m.index,
        "amplitude": m.amplitude,
        "volume_log_floor": m.volume_log_floor,
        "sup_u": m.flat_readings["sup_u"],
        "sup_abs_phi": m.sup_abs_phi,
        "inf_dot_phi": m.inf_dot_phi,
        "t_excess_sup": m.dot_phi_upper,
        "trace_bound": m.trace_bound,
        "equivalence": m.equivalence,
        **{f"E_{p.label}": p.gap for p in m.forms},
        "v_minus_one_L1": m.v_minus_one_l1,
        **{f"Lq_{q}": m.lq_norms[q] for q in sorted(m.lq_norms)},
        **(m.distance.family_cells if m.distance is not None else {}),
    }


DEGENERATE = 1e-12  # below this a measured family is flat, not decaying
RATE_TOL_PRIMARY = -0.35  # slope a decaying fitted bound's value must reach
RATE_TOL_PAIRING = -0.4  # slope a random form's pairing gap must reach


def family_summary(ms, fam) -> dict:
    """Rate fits and monotonicity over the index sweep.

    Sections carry an `applicable` flag: a flat family has nothing to
    regress (all values at rounding level), and fewer than three indices
    cannot support a slope at all.
    """
    idx = [m.index for m in ms]
    out = {"constants": dict(fam), "rates": {}, "monotonic": {}, "flags": {}}
    decaying = [b for b in FITTED_BOUNDS if b.decays]
    if len(ms) >= 3:
        # values of the C / sqrt(i) bounds
        for b in decaying:
            values = [b.sign * getattr(m, b.attr) for m in ms]
            if min(values) <= DEGENERATE:
                out["rates"][b.attr] = {"applicable": False, "reason": "values at rounding level"}
                continue
            f = fit_rate(idx, values)
            out["rates"][b.attr] = {
                "applicable": True,
                "slope": f.slope,
                "threshold": RATE_TOL_PRIMARY,
                "pass": f.slope <= RATE_TOL_PRIMARY,
            }
        # decay of pairing gaps, random (oscillatory) forms only: constant
        # test factors pair to exactly zero and carry no rate
        labels = [p.label for p in ms[0].forms if p.label.startswith("rand")]
        per_form = {}
        passing = 0
        fitted = 0
        for lab in labels:
            vals = [next(abs(p.gap) for p in m.forms if p.label == lab) for m in ms]
            if min(vals) <= DEGENERATE:
                per_form[lab] = {"slope": None, "pass": False, "reason": "gap at rounding level"}
                continue
            f = fit_rate(idx, vals)
            good = f.slope <= RATE_TOL_PAIRING
            per_form[lab] = {"slope": f.slope, "threshold": RATE_TOL_PAIRING, "pass": good}
            fitted += 1
            passing += int(good)
        # all but one form may miss the rate; a single form must reach it
        need = len(labels) - 1 if len(labels) > 1 else len(labels)
        out["rates"]["pairing_gaps"] = {
            "applicable": bool(labels) and fitted > 0,
            "per_form": per_form,
            "passing": passing,
            "required": need,
            "pass": passing >= need,
        }
        # uniformity flags: fitted per-index constants should not grow with i
        for b in decaying:
            series = [b.sign * getattr(m, b.attr) * _scale(b, m) for m in ms]
            if min(series) <= DEGENERATE:
                continue
            f = fit_rate(idx, series)
            out["flags"][b.key + "_growth"] = {"slope": f.slope, "grows": f.slope > 0.1}
    l1 = [m.v_minus_one_l1 for m in ms]
    drops = [l1[k] - l1[k + 1] for k in range(len(l1) - 1)]
    out["monotonic"]["v_minus_one_l1"] = {
        "applicable": max(l1, default=0.0) > DEGENERATE and len(l1) >= 2,
        "values": l1,
        "strictly_decreasing": bool(all(d > 0 for d in drops)) if drops else True,
    }
    return out


def family_passed(summary: dict) -> bool:
    """The family verdict of a family_summary: every applicable rate fit
    passes, and v_minus_one_l1, where applicable, strictly decreases."""
    mono = summary["monotonic"]["v_minus_one_l1"]
    return (all(sec["pass"] for sec in summary["rates"].values() if sec["applicable"])
            and (mono["strictly_decreasing"] or not mono["applicable"]))
