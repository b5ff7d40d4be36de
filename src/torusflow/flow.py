"""Potential-form metric flow on torus grids.

The ansatz g(t) = H0 + d dbar(psi0 + phi(t)) keeps the cohomology class
fixed, so the whole evolution lives in one scalar potential driven by

    d phi / dt = log det g(t) - log det(H_alpha),

where H_alpha is the grid average of the initial coefficients (the
constant representative of the class).  Stationary states are exactly
the constant-coefficient metrics, and the grid integral of det g is a
conserved quantity.

One time stepper, semi-implicit: the constant-coefficient operator
c * tr_{H0}(d dbar) is solved implicitly (a diagonal division in Fourier
space) with c = max_x lambda_max of g^{-1} relative to H0, and the
remainder advances explicitly.  Because the implicit operator dominates
the parabolic part, every resolved mode contracts monotonically, and dt
may ride the elapsed-time scale sigma * max(t, t_ramp).  The rhs keeps
the 2/3-dealiased band of log det g.

Spectral state: the flow potential is carried from step to step as the
band array of its real half spectrum (fields: the 2/3-rule band alone,
7,986 coefficients against 36,864 at n = 2, N = 16), so the step never
transforms the potential or the rhs forward.  The potential stays inside
the band because the step only scales and adds band arrays: the rhs is
2/3-truncated, and the implicit symbol and the Hessian symbols are kept
as band arrays too.  The coefficients use the packed layout of
HermitianField (see the fields module), held as plain arrays on the hot
path.  One accepted step runs these real transforms, with the lines each
runs at n = 2, N = 16 (a full inverse runs 3 x 2,304 complex lines and
4,096 real ones, a band inverse 726 + 1,056 + 1,536 and 4,096):

  Hessian of phi from its band        n^2 band inverses, in one call
  log det g                           1 forward; its band is the rhs, and
                                      it feeds the implicit solve and the
                                      Ricci term of the curvature floor
  Ricci term -d dbar log det g        n^2 full inverses, one per slot
  rhs on the grid                     1 band inverse

which is 4 at n = 1 and 10 at n = 2, with no complex transform; fields
runs them on numpy.fft at n = 1 and on scipy's pocketfft kernel at
n = 2.  Each evaluation of a candidate computes the grid's closed forms
once:

  det g                  1; read by the eigenvalues, the pencil, the
                         curvature floor and the volume
  eigenvalues of g       1 pass, the positivity gate's; it gives log det g
                         and, when H0 = I, the stiffness
  pencil det(g - lam H0) 1 pass more, only when H0 is not the identity

Every candidate that passes the evaluation is accepted, so the evaluation
also takes the step's diagnostics readings while its grid arrays live.
It keeps the band arrays of phi and of the rhs, the stiffness and those
readings; no grid array outlives it.

The stepper carries (t, dt, evaluation), and phi goes back to the grid
(1 band inverse more) only for a FlowState that is kept: a snapshot, or the
last state of a FlowFailure.  A FlowState is its time and its full
potential, mean included; run_flow is the only stepper.

Any candidate with non-finite values or an eigenvalue floor below
EPS_POS (or NaN), the package's one positivity gate, is rejected and
retried at dt/2; more than MAX_REJECTS consecutive rejections abort the
flow with the last good state attached.
Diagnostics (curvature floor, potential rate extremes, eigenvalue floor,
volume) are recorded at every accepted step.  Full states are kept at
the configured snapshot times, whose last entry is always t_end: the
stepper lands on each in turn, and the state at t_end, the trace's
final state, is its last snapshot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, TorusGeometry, _band_of, _irfft_band, _rfft
# complex_hessian is not called here, but perfbench/test_perfbench.py
# checks that its tracer also patches this module's binding of it
from .fields import complex_hessian
from .geometry import (
    FlatMetric,
    KahlerMetric,
    PositivityError,
    _det,
    _eigenvalues,
    _log_det,
    _pack,
    _pairing,
    _positive_eigenvalues,
    _scalar_curvature,
    _volume,
    assemble,
    harmonic_projection,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "StepDiagnostics",
    "FlowFailure",
    "run_flow",
]

DEFAULT_SNAPSHOTS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)
MAX_REJECTS = 20  # consecutive halvings of one step before the flow aborts


class FlowFailure(RuntimeError):
    """Integration aborted; carries the last accepted state."""

    def __init__(self, message: str, last_state: "FlowState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class FlowConfig:
    sigma: float = 0.2
    t_end: float = 1.0
    snapshot_times: tuple = DEFAULT_SNAPSHOTS
    t_ramp: float = 1e-3

    def __post_init__(self) -> None:
        if not (0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")
        if not (0 < self.t_end <= 2.0):
            raise ValueError(f"t_end must lie in (0, 2], got {self.t_end}")
        # sorted, one entry per distinct time, and t_end always the last one
        t_end = float(self.t_end)
        snaps = []
        for s in sorted(float(s) for s in self.snapshot_times):
            if _same_time(s, t_end):
                s = t_end
            elif not (0.0 < s < t_end):
                raise ValueError(f"snapshot time {s} outside (0, t_end={self.t_end}]")
            if not (snaps and _same_time(snaps[-1], s)):
                snaps.append(s)
        if not (snaps and snaps[-1] == t_end):
            snaps.append(t_end)
        object.__setattr__(self, "snapshot_times", tuple(snaps))
        if not (0 < self.t_ramp < math.inf):
            raise ValueError(f"t_ramp must be positive and finite, got {self.t_ramp}")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Flow potential phi at time t, on top of a fixed initial metric.

    phi is the full potential with its mean kept: the metric ignores an
    additive constant, but the potential bound sup|phi| and the pairing
    gaps do not.  metric() hands it to KahlerMetric, the one place that
    removes a mean.  The rate d phi/dt is not stored; the step
    diagnostics keep its extremes.
    """

    base: KahlerMetric
    t: float
    phi: ScalarField

    def metric(self) -> KahlerMetric:
        return KahlerMetric(self.base.H, self.base.phi + self.phi)


@dataclass(frozen=True)
class StepDiagnostics:
    t: float
    dt: float
    min_scalar_curvature: float
    min_dot_phi: float
    max_dot_phi: float
    min_eigenvalue: float
    volume: float


@dataclass(frozen=True, eq=False)
class FlowTrace:
    initial: KahlerMetric
    alpha: FlatMetric
    flat_potential: ScalarField  # gauge max = 0; d dbar of it closes the class
    config: FlowConfig
    snapshots: tuple  # one state per config.snapshot_times entry
    diagnostics: tuple

    @property
    def final(self) -> FlowState:
        """The state at t_end, which is always the last snapshot."""
        return self.snapshots[-1]

    @property
    def times(self) -> tuple:
        return tuple(s.t for s in self.snapshots)

    def snapshot_at(self, t: float) -> FlowState:
        for s in self.snapshots:
            if _same_time(s.t, t):
                return s
        raise KeyError(f"no snapshot at t={t}; stored times {self.times}")


def _same_time(stored: float, t: float) -> bool:
    """Whether a stored snapshot time answers a request for time t."""
    return abs(stored - t) <= 1e-9 * max(1.0, t)


class _Evaluation:
    """A candidate potential that passed evaluate: the band arrays the step
    reads, its stiffness, and the diagnostics readings, taken while its grid
    arrays lived."""

    __slots__ = ("phi_hat", "rhs_hat", "stiffness", "readings")

    def __init__(self, phi_hat, rhs_hat, stiffness, readings):
        self.phi_hat = phi_hat      # band array of the flow potential
        self.rhs_hat = rhs_hat      # band array of d phi/dt
        self.stiffness = stiffness  # max eigenvalue of g^{-1} wrt H0
        self.readings = readings    # the StepDiagnostics fields after t and dt


def _rhs(geo: TorusGeometry, log_det_hat: np.ndarray, alpha: FlatMetric) -> np.ndarray:
    """Band array of d phi/dt = log det g - log det H_alpha, 2/3-truncated,
    from the half spectrum of log det g."""
    out = _band_of(geo, log_det_hat)
    out[(0,) * geo.axes] -= geo.npoints * math.log(_det(_pack(alpha.H)))
    return out


def _rhs_field(geo: TorusGeometry, log_det: np.ndarray, alpha: FlatMetric) -> ScalarField:
    """_rhs on the grid, from log det g on the grid."""
    return ScalarField(geo, _irfft_band(geo, _rhs(geo, _rfft(geo, log_det), alpha)))


class _Kernel:
    """Per-flow constants and the spectral step (transform budget in the
    module docstring)."""

    def __init__(self, base: KahlerMetric, config: FlowConfig):
        self.base = base
        self.config = config
        self.geometry = geo = base.geometry
        g0 = assemble(base)  # H0 + d dbar psi0, the one assembly of the flow
        self.alpha, self.flat_potential = harmonic_projection(g0)
        self.H0 = _pack(base.H)
        # with H0 = I the pencil det(g - lam H0) performs the gate's own
        # eigenvalue arithmetic, so its floor is the gate's, bit for bit
        self.identity_background = np.array_equal(self.H0, _pack(np.eye(geo.n)))
        self.fixed = g0.values
        # band arrays of the d_j d_kbar multipliers, one per packed slot,
        # and of the symbol of tr_{H0}(d dbar)
        full = [np.broadcast_to(sym, geo.half_shape) for sym in geo.hessian_symbols]
        self.hessian_symbols = _band_of(geo, np.stack(full))
        self.stab_symbol = _pairing(self.H0, self.hessian_symbols) / _det(self.H0)

    def evaluate(self, phi_hat: np.ndarray) -> _Evaluation | None:
        """None rejects the candidate: non-finite, or failing the positivity
        gate.  A candidate that passes is accepted, so its diagnostics
        readings are taken here and its grid arrays die with the call."""
        if not np.all(np.isfinite(phi_hat)):
            return None
        geo = self.geometry
        coeffs = _irfft_band(geo, self.hessian_symbols * phi_hat)
        coeffs += self.fixed
        det = _det(coeffs)
        try:
            eig = _positive_eigenvalues(coeffs, det=det)
        except PositivityError:
            return None
        min_eig = float(eig[0].min())
        log_det_hat = _rfft(geo, _log_det(eig))
        del eig
        rhs_hat = _rhs(geo, log_det_hat, self.alpha)
        # c = 1 / smallest root of det(g - lam H0): the top eigenvalue of g^{-1} wrt H0
        if self.identity_background:
            stiffness = 1.0 / min_eig
        else:
            stiffness = 1.0 / float(_eigenvalues(coeffs, self.H0, det)[0].min())
        min_curv = float(_scalar_curvature(geo, coeffs, det, log_det_hat).min())
        rhs = _irfft_band(geo, rhs_hat)
        readings = (min_curv, float(rhs.min()), float(rhs.max()), min_eig, _volume(coeffs, det))
        return _Evaluation(phi_hat, rhs_hat, stiffness, readings)

    def advance(self, ev: _Evaluation, dt: float) -> np.ndarray:
        """Band array of the candidate potential after dt."""
        phi_hat, rhs_hat = ev.phi_hat, ev.rhs_hat
        c = ev.stiffness
        s = self.stab_symbol
        # (phi_hat + dt * (rhs_hat - c * s * phi_hat)) / (1.0 - dt * c * s),
        # the same operations in place
        out = (c * s) * phi_hat
        np.subtract(rhs_hat, out, out=out)
        out *= dt
        out += phi_hat
        den = (dt * c) * s
        np.subtract(1.0, den, out=den)
        out /= den
        return out

    def diagnostics(self, t: float, dt: float, ev: _Evaluation) -> StepDiagnostics:
        return StepDiagnostics(t, dt, *ev.readings)

    def state(self, t: float, ev: _Evaluation) -> FlowState:
        geo = self.geometry
        return FlowState(self.base, t, ScalarField(geo, _irfft_band(geo, ev.phi_hat)))


def _step(kernel: _Kernel, t: float, ev: _Evaluation, t_next: float):
    """One accepted step from time t, whose state has the evaluation ev,
    ending at t_next at the latest; returns (new_t, dt, new_evaluation)."""
    config = kernel.config
    dt = min(config.sigma * max(t, config.t_ramp), t_next - t)
    rejects = 0
    while True:
        ev_new = kernel.evaluate(kernel.advance(ev, dt))
        if ev_new is not None:
            return t + dt, dt, ev_new
        rejects += 1
        if rejects > MAX_REJECTS:
            raise FlowFailure(
                f"step at t={t:.6g} rejected {rejects} times (dt={dt:.3e})",
                kernel.state(t, ev),
            )
        dt /= 2.0
        if dt < 1e-15:
            raise FlowFailure(f"time step underflow at t={t:.6g}", kernel.state(t, ev))


def run_flow(metric0: KahlerMetric, config: FlowConfig) -> FlowTrace:
    """Integrate from metric0 to t_end, collecting snapshots and diagnostics."""
    kernel = _Kernel(metric0, config)
    geo = metric0.geometry
    ev = kernel.evaluate(np.zeros(geo.band_shape, dtype=np.complex128))
    if ev is None:
        zero = ScalarField(geo, np.zeros(geo.shape))
        raise FlowFailure("initial metric is not positive", FlowState(metric0, 0.0, zero))
    t, dt = 0.0, 0.0
    diagnostics = [kernel.diagnostics(t, dt, ev)]
    snapshots = []
    for t_snap in config.snapshot_times:  # the last one is t_end
        while t_snap > t + 1e-14:
            t, dt, ev = _step(kernel, t, ev, t_snap)
            diagnostics.append(kernel.diagnostics(t, dt, ev))
        snapshots.append(kernel.state(t, ev))
    return FlowTrace(
        initial=metric0,
        alpha=kernel.alpha,
        flat_potential=kernel.flat_potential,
        config=config,
        snapshots=tuple(snapshots),
        diagnostics=tuple(diagnostics),
    )
