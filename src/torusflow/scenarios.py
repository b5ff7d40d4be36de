"""Calibrated initial-data families with curvature floors near -1/i.

A family shares one band-limited random shape psi; for each index i the
amplitude a_i is tuned so that the scalar-curvature minimum of
H0 + a_i * d dbar psi lands in the band [-1/i, -1/(2i)].  Larger indices
therefore mean flatter data, and measured quantities can be regressed
against i.

Calibration brackets geometrically from a = 1e-4 (the flat limit a -> 0
always sits above the band) and then bisects into the band; the whole
search is capped at 60 steps.  Every index starts from the same
amplitude and doubles or halves it, so the indices of one family visit
many of the same amplitudes: make_sequence shares one table of readings
(min R, or the min eigenvalue where positivity fails) by amplitude
across them, and a table hit skips the probe but still counts as a
step, so each index takes the same path and lands on the same amplitude
as a calibration of its own.

A flat family (ScenarioSpec.flat) is the background itself at every
index, with amplitude 0: no shape is drawn and no curvature probed.
Calibrated or flat, every index passes the same admission gates.

A family a completed run recorded (its SCENARIO_FIELDS per index) is
rebuilt by rebuild_sequence without a probe: the shape is drawn again and
scaled by each recorded amplitude, which gives the same metric bits as
the calibration that recorded it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import FieldError, ScalarField, TorusGeometry, constant_field, lp_norm, random_band_limited
from .geometry import (
    FlatMetric,
    KahlerMetric,
    PositivityError,
    _check_background,
    _det,
    assemble,
    min_eigenvalue,
    scalar_curvature,
    trace_wrt,
    volume,
)

__all__ = [
    "ScenarioError",
    "BracketFailure",
    "ZeroShape",
    "GateViolation",
    "ScenarioSpec",
    "Scenario",
    "calibrate_amplitude",
    "make_sequence",
    "rebuild_sequence",
    "SCENARIO_FIELDS",
]

MAX_EVALS = 60
START_AMPLITUDE = 1e-4


class ScenarioError(RuntimeError):
    """Scenario construction failed."""


class BracketFailure(ScenarioError):
    """Could not land the curvature floor in the target band."""


class ZeroShape(ScenarioError):
    """The shape potential is constant; nothing to calibrate."""


class GateViolation(ScenarioError):
    """A generated metric failed one of the admission gates."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Family description: shared shape, backgrounds, target indices."""

    geometry: TorusGeometry
    seed: int
    indices: tuple
    max_mode: int = 3
    background: np.ndarray | None = None
    lambda_gate: float = 10.0
    p: float | None = None  # trace-norm exponent in [1, inf]; None means 2n
    flat: bool = False  # the background itself at every index, uncalibrated

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if not idx or any(i <= 0 for i in idx):
            raise ScenarioError(f"indices must be positive integers, got {self.indices}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ScenarioError(f"indices must increase strictly, got {idx}")
        object.__setattr__(self, "indices", idx)
        n = self.geometry.n
        try:
            H = _check_background(np.eye(n) if self.background is None else self.background, n)
        except (FieldError, PositivityError) as exc:
            raise ScenarioError(str(exc)) from exc
        object.__setattr__(self, "background", H)
        if self.p is not None and not 1 <= self.p <= math.inf:
            raise ScenarioError(f"trace exponent must be in [1, inf], got {self.p}")

    @property
    def trace_exponent(self) -> float:
        return 2.0 * self.geometry.n if self.p is None else float(self.p)

    def trace_norm(self, metric) -> float:
        """The trace gate's reading: the L^trace_exponent norm of tr g
        against the unit background and its volume form."""
        unit = FlatMetric(np.eye(self.geometry.n), self.geometry)
        p = self.trace_exponent
        weight = None if math.isinf(p) else constant_field(self.geometry, volume(unit))
        return lp_norm(trace_wrt(unit, metric), p, weight)


@dataclass(frozen=True, eq=False)
class Scenario:
    """One calibrated family member, with its admission-gate readings."""

    index: int
    amplitude: float
    metric: KahlerMetric
    curvature_floor: float
    volume: float
    trace_norm: float
    positive_part_budget: float  # int max(R,0) det g / int det g


# the readings a Scenario carries beside its index and metric: the fields of
# a manifest's scenario row, and all rebuild_sequence needs to restore one
SCENARIO_FIELDS = ("amplitude", "curvature_floor", "volume", "trace_norm", "positive_part_budget")


def _floor_of(shape: ScalarField, H0: np.ndarray, amplitude: float):
    """(coefficients, scalar curvature, None) at one candidate amplitude,
    or (coefficients, None, min eigenvalue) where positivity fails."""
    coeffs = assemble(KahlerMetric(H0, shape * amplitude))
    try:
        return coeffs, scalar_curvature(coeffs), None
    except PositivityError:
        return coeffs, None, min_eigenvalue(coeffs)


def calibrate_amplitude(
    shape: ScalarField,
    H0: np.ndarray,
    floor_target: float,
    max_evals: int = MAX_EVALS,
    table: dict | None = None,
) -> tuple:
    """Amplitude a with min R(H0 + a d dbar shape) in [floor_target, floor_target/2].

    Returns (a, coefficients, scalar curvature) of the probe that landed
    in the band.  floor_target must be negative.  Raises ZeroShape for
    constant shapes and BracketFailure when positivity breaks before the
    floor is reached or the evaluation budget runs out.

    table maps an amplitude to its reading (min R, or None where
    positivity failed; the min eigenvalue there, else None) for this
    shape and background.
    Readings found there are not probed again, and new ones are added,
    so calls that share it share their probes.  A table hit still takes
    one of the max_evals steps; a hit in the band is probed once more
    for the coefficients and curvature it returns.
    """
    if floor_target >= 0:
        raise ValueError(f"floor target must be negative, got {floor_target}")
    if float(np.ptp(shape.values)) == 0.0:
        raise ZeroShape("shape potential is constant")
    band_lo, band_hi = floor_target, floor_target / 2.0
    # lo stays above the band (the flat limit, min R -> 0, to start) and hi
    # below it or past positivity; amplitudes double until hi is found,
    # then bisect
    table = {} if table is None else table
    lo, hi, a = 0.0, math.inf, START_AMPLITUDE
    for _ in range(max_evals):
        probe = None  # holds no field of an earlier step while the next one is probed
        if a not in table:
            probe = _floor_of(shape, H0, a)
            table[a] = (None if probe[1] is None else probe[1].min(), probe[2])
        val, lam = table[a]
        if val is None:
            if math.isinf(hi):
                raise BracketFailure(
                    f"positivity failed (min eigenvalue {lam:.3e}) at amplitude {a:g} "
                    "before the curvature floor was reached; shape too rough"
                )
            hi = a  # positivity margin shrinks with amplitude
        elif band_lo <= val <= band_hi:
            coeffs, curv, _ = probe or _floor_of(shape, H0, a)
            return a, coeffs, curv
        elif val > band_hi:
            lo = a
        else:
            hi = a
        a = 2.0 * a if math.isinf(hi) else 0.5 * (lo + hi)
    raise BracketFailure(
        f"exceeded {max_evals} curvature evaluations before landing in "
        f"[{band_lo:g}, {band_hi:g}]"
    )


def _members(spec: ScenarioSpec):
    """(index, amplitude, metric, coefficients, scalar curvature) of each
    index.  A flat family is its background at every index: no shape is
    drawn and no curvature probed."""
    geo, H0 = spec.geometry, spec.background
    if spec.flat:
        metric = FlatMetric(H0, geo).as_metric()
        coeffs, curv = assemble(metric), constant_field(geo, 0.0)
        for i in spec.indices:
            yield i, 0.0, metric, coeffs, curv
        return
    shape = random_band_limited(spec.seed, spec.max_mode, geo)
    table: dict = {}  # one family, one shape: the indices share their probes
    for i in spec.indices:
        a, coeffs, curv = calibrate_amplitude(shape, H0, -1.0 / i, table=table)
        yield i, a, KahlerMetric(H0, shape * a), coeffs, curv


def make_sequence(spec: ScenarioSpec) -> list:
    """Every index of the family, calibrated (or flat), each through the
    admission gates; deterministic in the seed.  A grid whose fields do
    not fit in memory is a ScenarioError."""
    out = []
    try:
        for i, a, metric, coeffs, curv in _members(spec):
            vol = volume(coeffs)
            if vol < 1.0 / spec.lambda_gate:
                raise GateViolation(
                    f"index {i}: volume {vol:.6g} below the non-collapsing gate "
                    f"1/{spec.lambda_gate:g}"
                )
            tr_norm = spec.trace_norm(coeffs)
            if tr_norm > spec.lambda_gate:
                raise GateViolation(
                    f"index {i}: trace norm {tr_norm:.6g} exceeds the gate {spec.lambda_gate:g}"
                )
            det = _det(coeffs.values)
            budget = float((np.maximum(curv.values, 0.0) * det).mean() / det.mean())
            out.append(
                Scenario(
                    index=i,
                    amplitude=a,
                    metric=metric,
                    curvature_floor=curv.min(),
                    volume=vol,
                    trace_norm=tr_norm,
                    positive_part_budget=budget,
                )
            )
    except MemoryError as exc:
        geo = spec.geometry
        raise ScenarioError(
            f"n={geo.n}, N={geo.N}: the grid is too large to allocate: {exc}") from exc
    return out


def _finite(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def rebuild_sequence(spec: ScenarioSpec, rows) -> list | None:
    """The family a completed run of spec recorded, or None.

    rows are that run's manifest scenario rows: exactly one per index of
    spec, in order, each with every SCENARIO_FIELDS value a finite number;
    anything else is None.  Each metric is H0 + a d dbar psi on the
    family's one shape at the recorded amplitude a (the background for a
    flat family), the metric make_sequence built, so no curvature is
    probed and no gate read again."""
    if not (isinstance(rows, list) and len(rows) == len(spec.indices)):
        return None
    for row, i in zip(rows, spec.indices):
        if not (isinstance(row, dict) and type(row.get("index")) is int and row["index"] == i
                and all(_finite(row.get(name)) for name in SCENARIO_FIELDS)):
            return None
    geo, H0 = spec.geometry, spec.background
    flat = FlatMetric(H0, geo).as_metric() if spec.flat else None
    shape = None if spec.flat else random_band_limited(spec.seed, spec.max_mode, geo)
    out = []
    for row in rows:
        values = {name: float(row[name]) for name in SCENARIO_FIELDS}
        metric = flat if spec.flat else KahlerMetric(H0, shape * values["amplitude"])
        out.append(Scenario(index=row["index"], metric=metric, **values))
    return out
