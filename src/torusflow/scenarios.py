"""Calibrated initial-data families with curvature floors near -1/i.

A family shares one band-limited random shape psi; for each index i the
amplitude a_i is tuned so that the scalar-curvature minimum of
H0 + a_i * d dbar psi lands in the band [-1/i, -1/(2i)].  Larger indices
therefore mean flatter data, and measured quantities can be regressed
against i.

Calibration brackets geometrically from a = 1e-4 (the flat limit a -> 0
always sits above the band) and then bisects into the band; the whole
search is capped at 60 curvature evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, TorusGeometry, constant_field, lp_norm, random_band_limited
from .geometry import (
    EPS_POS,
    FlatMetric,
    KahlerMetric,
    assemble,
    det_field,
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
    p: float | None = None  # trace-norm exponent; None means 2n, math.inf allowed

    def __post_init__(self) -> None:
        idx = tuple(int(i) for i in self.indices)
        if not idx or any(i <= 0 for i in idx):
            raise ScenarioError(f"indices must be positive integers, got {self.indices}")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ScenarioError(f"indices must increase strictly, got {idx}")
        object.__setattr__(self, "indices", idx)
        H = self.background
        if H is None:
            H = np.eye(self.geometry.n, dtype=np.complex128)
        object.__setattr__(self, "background", np.asarray(H, dtype=np.complex128))
        H = self.background
        if H.shape != (self.geometry.n, self.geometry.n):
            raise ScenarioError(
                f"background must be {self.geometry.n}x{self.geometry.n}, got {H.shape}"
            )
        if not np.allclose(H, H.conj().T, rtol=0.0, atol=1e-12):
            raise ScenarioError("background must be Hermitian")
        if float(np.linalg.eigvalsh(H).min()) <= 0.0:
            raise ScenarioError("background must be positive definite")
        if self.p is not None and not math.isinf(self.p) and self.p <= 0:
            raise ScenarioError(f"trace exponent must be positive, got {self.p}")

    @property
    def trace_exponent(self) -> float:
        return 2.0 * self.geometry.n if self.p is None else float(self.p)

    def trace_norm(self, metric) -> float:
        """The trace gate's reading: the L^trace_exponent norm of tr g
        against the unit background and its volume form."""
        unit = FlatMetric(np.eye(self.geometry.n))
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


def _floor_of(shape: ScalarField, H0: np.ndarray, amplitude: float):
    """(min scalar curvature, min eigenvalue) at one candidate amplitude."""
    coeffs = assemble(KahlerMetric(H0, shape * amplitude))
    lam = min_eigenvalue(coeffs)
    if lam < EPS_POS:
        return None, lam
    return scalar_curvature(coeffs).min(), lam


def calibrate_amplitude(
    shape: ScalarField,
    H0: np.ndarray,
    floor_target: float,
    max_evals: int = MAX_EVALS,
) -> float:
    """Amplitude a with min R(H0 + a d dbar shape) in [floor_target, floor_target/2].

    floor_target must be negative.  Raises ZeroShape for constant shapes
    and BracketFailure when positivity breaks before the floor is
    reached or the evaluation budget runs out.
    """
    if floor_target >= 0:
        raise ValueError(f"floor target must be negative, got {floor_target}")
    if float(np.ptp(shape.values)) == 0.0:
        raise ZeroShape("shape potential is constant")
    band_lo, band_hi = floor_target, floor_target / 2.0
    evals = 0

    def probe(a: float):
        nonlocal evals
        evals += 1
        if evals > max_evals:
            raise BracketFailure(
                f"exceeded {max_evals} curvature evaluations before landing in "
                f"[{band_lo:g}, {band_hi:g}]"
            )
        return _floor_of(shape, H0, a)

    lo, lo_val = 0.0, 0.0  # flat limit: min R -> 0 from above the band
    hi = START_AMPLITUDE
    while True:
        val, lam = probe(hi)
        if val is None:
            raise BracketFailure(
                f"positivity failed (min eigenvalue {lam:.3e}) at amplitude {hi:g} "
                "before the curvature floor was reached; shape too rough"
            )
        if band_lo <= val <= band_hi:
            return hi
        if val < band_lo:
            break  # crossed below the band: bisect [lo, hi]
        lo, lo_val = hi, val
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        val, lam = probe(mid)
        if val is None:
            hi = mid  # positivity margin shrinks with amplitude
            continue
        if band_lo <= val <= band_hi:
            return mid
        if val > band_hi:
            lo = mid
        else:
            hi = mid


def make_sequence(spec: ScenarioSpec) -> list:
    """Calibrate every index of the family; deterministic in the seed."""
    shape = random_band_limited(spec.seed, spec.max_mode, spec.geometry)
    H0 = spec.background
    out = []
    for i in spec.indices:
        target = -1.0 / i
        a = calibrate_amplitude(shape, H0, target)
        metric = KahlerMetric(H0, shape * a)
        coeffs = assemble(metric)
        lam = min_eigenvalue(coeffs)
        if lam < EPS_POS:
            raise GateViolation(f"index {i}: calibrated metric lost positivity ({lam:.3e})")
        curv = scalar_curvature(coeffs)
        floor = curv.min()
        if not (target - 1e-12 <= floor <= target / 2.0 + 1e-12):
            raise BracketFailure(
                f"index {i}: floor {floor:.6g} outside band [{target:g}, {target / 2:g}]"
            )
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
        det = det_field(coeffs)
        budget = float((np.maximum(curv.values, 0.0) * det).mean() / det.mean())
        out.append(
            Scenario(
                index=i,
                amplitude=a,
                metric=metric,
                curvature_floor=floor,
                volume=vol,
                trace_norm=tr_norm,
                positive_part_budget=budget,
            )
        )
    return out
