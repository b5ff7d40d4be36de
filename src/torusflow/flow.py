"""Potential-form metric flow on torus grids.

The ansatz g(t) = H0 + d dbar(psi0 + phi(t)) keeps the cohomology class
fixed, so the whole evolution lives in one scalar potential driven by

    d phi / dt = log det g(t) - log det(H_alpha),

where H_alpha is the grid average of the initial coefficients (the
constant representative of the class).  Stationary states are exactly
the constant-coefficient metrics, and the grid integral of det g is a
conserved quantity.

Two time steppers:

  explicit        forward Euler with dt = sigma * h^2 / lambda_max(g^{-1});
  semi_implicit   the constant-coefficient operator c * tr_{H0}(d dbar)
                  is solved implicitly (a diagonal division in Fourier
                  space) with c = max_x lambda_max of g^{-1} relative to
                  H0, the remainder advances explicitly.  Because the
                  implicit operator dominates the parabolic part, every
                  resolved mode contracts monotonically, and dt may ride
                  the elapsed-time scale sigma * max(t, t_ramp).

Spectral state: the flow potential is carried from step to step as its
real half spectrum (np.fft.rfftn), so the implicit solve and the explicit
update never transform the potential or the rhs forward.  The
coefficients use the packed layout of HermitianField (see the fields
module), held as plain arrays on the hot path.  One accepted step runs
these real transforms:

  Hessian of phi from its spectrum    n^2 inverse, one per packed slot
  log det g                           1 forward; feeds the dealiased rhs,
                                      the implicit solve and the Ricci
                                      term of the curvature floor
  Ricci term -d dbar log det g        as many as the Hessian of phi
  rhs and phi on the grid             1 inverse each

which is 5 at n = 1 and 11 at n = 2, with no complex transform.

Any candidate with non-finite values or an eigenvalue floor below
eps_pos (or NaN) is rejected and retried at dt/2; too many consecutive
rejections abort the flow with the last good state attached.
Diagnostics (curvature floor, potential rate extremes, eigenvalue floor,
volume) are recorded at every accepted step, and full states are kept at
the configured snapshot times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# complex_hessian is not called here, but perfbench/test_perfbench.py
# checks that its tracer also patches this module's binding of it
from .fields import ScalarField, TorusGeometry, _hessian, _irfft, _rfft, complex_hessian
from .geometry import (
    EPS_POS,
    FlatMetric,
    KahlerMetric,
    _det,
    _eigenvalues,
    _log_det,
    _pack,
    _pairing,
    _scalar_curvature,
    _volume,
    assemble,
    harmonic_projection,
    log_det_field,
)

__all__ = [
    "FlowConfig",
    "FlowState",
    "FlowTrace",
    "StepDiagnostics",
    "FlowFailure",
    "dot_phi",
    "step",
    "run_flow",
]

DEFAULT_SNAPSHOTS = (0.01, 0.05, 0.1, 0.25, 0.5, 1.0)


class FlowFailure(RuntimeError):
    """Integration aborted; carries the last accepted state."""

    def __init__(self, message: str, last_state: "FlowState"):
        super().__init__(message)
        self.last_state = last_state


@dataclass(frozen=True)
class FlowConfig:
    scheme: str = "semi_implicit"
    sigma: float = 0.2
    t_end: float = 1.0
    snapshot_times: tuple = DEFAULT_SNAPSHOTS
    eps_pos: float = EPS_POS
    dealias: bool = True
    max_rejects: int = 20
    t_ramp: float = 1e-3

    def __post_init__(self) -> None:
        if self.scheme not in ("semi_implicit", "explicit"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not (0 < self.sigma <= 1.0):
            raise ValueError(f"sigma must lie in (0, 1], got {self.sigma}")
        if not (0 < self.t_end <= 2.0):
            raise ValueError(f"t_end must lie in (0, 2], got {self.t_end}")
        snaps = tuple(sorted(float(s) for s in self.snapshot_times))
        for s in snaps:
            if not (0.0 < s <= self.t_end + 1e-12):
                raise ValueError(f"snapshot time {s} outside (0, t_end={self.t_end}]")
        object.__setattr__(self, "snapshot_times", snaps)
        if self.max_rejects < 1:
            raise ValueError("max_rejects must be at least 1")
        if self.t_ramp <= 0:
            raise ValueError("t_ramp must be positive")


@dataclass(frozen=True, eq=False)
class FlowState:
    """Flow potential at one instant, on top of a fixed initial metric.

    phi_osc is the mean-zero part and phi_mean the tracked additive
    constant: the metric ignores the mean but the potential bounds and
    pairing gaps do not, so it is carried explicitly.
    """

    base: KahlerMetric
    t: float
    phi_osc: ScalarField
    phi_mean: float
    dot_phi: ScalarField
    last_dt: float

    @property
    def phi(self) -> ScalarField:
        return self.phi_osc + self.phi_mean

    def metric(self) -> KahlerMetric:
        return KahlerMetric(self.base.H, self.base.phi + self.phi_osc)


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
    snapshots: tuple
    diagnostics: tuple
    final: FlowState

    @property
    def times(self) -> tuple:
        return tuple(s.t for s in self.snapshots)

    def snapshot_at(self, t: float) -> FlowState:
        for s in self.snapshots:
            if abs(s.t - t) <= 1e-9 * max(1.0, t):
                return s
        raise KeyError(f"no snapshot at t={t}; stored times {self.times}")


class _Evaluation:
    """A candidate potential that passed evaluate, with everything the step
    and its diagnostics read."""

    __slots__ = ("phi_hat", "coeffs", "min_eig", "log_det_hat", "rhs_hat", "rhs", "stiffness")

    def __init__(self, phi_hat, coeffs, min_eig, log_det_hat, rhs_hat, rhs, stiffness):
        self.phi_hat = phi_hat          # half spectrum of the flow potential
        self.coeffs = coeffs            # packed metric coefficients
        self.min_eig = min_eig          # absolute eigenvalue floor
        self.log_det_hat = log_det_hat  # half spectrum of log det g
        self.rhs_hat = rhs_hat          # half spectrum of d phi/dt
        self.rhs = rhs                  # d phi/dt on the grid
        self.stiffness = stiffness      # max eigenvalue of g^{-1} wrt H0


def _rhs(geo: TorusGeometry, log_det_hat: np.ndarray, alpha: FlatMetric,
         config: FlowConfig) -> np.ndarray:
    """Half spectrum of d phi/dt = log det g - log det H_alpha,
    2/3-truncated when config.dealias."""
    out = log_det_hat * geo.dealias_keep if config.dealias else log_det_hat.copy()
    out[(0,) * geo.axes] -= geo.npoints * math.log(_det(_pack(alpha.H)))
    return out


def _rhs_field(metric: KahlerMetric, alpha: FlatMetric, config: FlowConfig) -> ScalarField:
    """_rhs on the grid for a potential-form metric."""
    g = assemble(metric)
    geo = g.geometry
    log_det_hat = _rfft(geo, log_det_field(g, config.eps_pos).values)
    return ScalarField(geo, _irfft(geo, _rhs(geo, log_det_hat, alpha, config)))


class _Kernel:
    """Per-flow constants and the spectral step (transform budget in the
    module docstring)."""

    def __init__(self, base: KahlerMetric, config: FlowConfig, alpha: FlatMetric):
        self.base = base
        self.config = config
        self.alpha = alpha
        self.geometry = geo = base.geometry
        self.H0 = _pack(base.H)
        self.fixed = assemble(base).values  # H0 + d dbar psi0
        # tr_{H0}(d dbar): the pairing of H0 with the Hessian symbol over det H0
        self.stab_symbol = _pairing(self.H0, geo.hessian_symbols) / _det(self.H0)

    def evaluate(self, phi_hat: np.ndarray) -> _Evaluation | None:
        """None rejects the candidate: non-finite, or its eigenvalue floor
        below eps_pos or NaN."""
        if not np.all(np.isfinite(phi_hat)):
            return None
        geo = self.geometry
        coeffs = _hessian(geo, phi_hat)
        coeffs += self.fixed
        eig = _eigenvalues(coeffs)
        lo = float(eig[0].min())
        if not lo >= self.config.eps_pos:
            return None
        log_det_hat = _rfft(geo, _log_det(eig))
        rhs_hat = _rhs(geo, log_det_hat, self.alpha, self.config)
        # c = 1 / smallest root of det(g - lam H0): the top eigenvalue of g^{-1} wrt H0
        stiffness = 1.0 / float(_eigenvalues(coeffs, self.H0)[0].min())
        return _Evaluation(phi_hat, coeffs, lo, log_det_hat, rhs_hat,
                           _irfft(geo, rhs_hat), stiffness)

    def target_dt(self, t: float, ev: _Evaluation) -> float:
        cfg = self.config
        if cfg.scheme == "explicit":
            h2 = self.geometry.spacing**2
            return cfg.sigma * h2 / ev.stiffness
        return cfg.sigma * max(t, cfg.t_ramp)

    def advance(self, ev: _Evaluation, dt: float) -> np.ndarray:
        """Half spectrum of the candidate potential after dt."""
        phi_hat, rhs_hat = ev.phi_hat, ev.rhs_hat
        if self.config.scheme == "explicit":
            return phi_hat + dt * rhs_hat
        c = ev.stiffness
        s = self.stab_symbol
        return (phi_hat + dt * (rhs_hat - c * s * phi_hat)) / (1.0 - dt * c * s)

    def diagnostics(self, t: float, dt: float, ev: _Evaluation) -> StepDiagnostics:
        curv = _scalar_curvature(self.geometry, ev.coeffs, ev.log_det_hat)
        return StepDiagnostics(
            t=t,
            dt=dt,
            min_scalar_curvature=float(curv.min()),
            min_dot_phi=float(ev.rhs.min()),
            max_dot_phi=float(ev.rhs.max()),
            min_eigenvalue=ev.min_eig,
            volume=_volume(ev.coeffs),
        )

    def state(self, t: float, dt: float, ev: _Evaluation) -> FlowState:
        geo = self.geometry
        phi_full = _irfft(geo, ev.phi_hat)
        mean = float(phi_full.mean())
        return FlowState(
            base=self.base,
            t=t,
            phi_osc=ScalarField(geo, phi_full - mean),
            phi_mean=mean,
            dot_phi=ScalarField(geo, ev.rhs),
            last_dt=dt,
        )


def dot_phi(state: FlowState, alpha: FlatMetric | None = None, dealias: bool = False) -> ScalarField:
    """log(det g(t) / det H_alpha) for the state's current metric.

    With alpha omitted the constant representative of the state's own
    class is used, which is the flow's stationary normalization.  Raises
    PositivityError where the metric is not positive.
    """
    if alpha is None:
        alpha, _ = harmonic_projection(state.base)
    return _rhs_field(state.metric(), alpha, FlowConfig(dealias=dealias))


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One accepted adaptive step from state."""
    alpha, _ = harmonic_projection(state.base)
    kernel = _Kernel(state.base, config, alpha)
    ev = kernel.evaluate(_rfft(state.base.geometry, state.phi.values))
    if ev is None:
        raise FlowFailure("current state is not positive", state)
    new_state, _ = _step(kernel, state, ev, ())
    return new_state


def _step(kernel: _Kernel, state: FlowState, ev: _Evaluation, boundaries: tuple):
    """One accepted step from state and its evaluation; returns
    (new_state, new_evaluation)."""
    config = kernel.config
    dt = kernel.target_dt(state.t, ev)
    remaining = [b for b in (*boundaries, config.t_end) if b > state.t + 1e-14]
    if remaining:
        dt = min(dt, min(remaining) - state.t)
    rejects = 0
    while True:
        ev_new = kernel.evaluate(kernel.advance(ev, dt))
        if ev_new is not None:
            return kernel.state(state.t + dt, dt, ev_new), ev_new
        rejects += 1
        if rejects > config.max_rejects:
            raise FlowFailure(
                f"step at t={state.t:.6g} rejected {rejects} times (dt={dt:.3e})",
                state,
            )
        dt /= 2.0
        if dt < 1e-15:
            raise FlowFailure(f"time step underflow at t={state.t:.6g}", state)


def run_flow(metric0: KahlerMetric, config: FlowConfig) -> FlowTrace:
    """Integrate from metric0 to t_end, collecting snapshots and diagnostics."""
    alpha, u = harmonic_projection(metric0)
    kernel = _Kernel(metric0, config, alpha)
    geo = metric0.geometry
    ev = kernel.evaluate(np.zeros(geo.dealias_keep.shape, dtype=np.complex128))
    if ev is None:
        zero = ScalarField(geo, np.zeros(geo.shape))
        raise FlowFailure(
            "initial metric is not positive",
            FlowState(metric0, 0.0, zero, 0.0, zero, 0.0),
        )
    state = kernel.state(0.0, 0.0, ev)
    diagnostics = [kernel.diagnostics(0.0, 0.0, ev)]
    snapshots = []
    boundaries = config.snapshot_times
    snap_iter = set(boundaries)
    while state.t < config.t_end - 1e-12:
        state, ev = _step(kernel, state, ev, boundaries)
        diagnostics.append(kernel.diagnostics(state.t, state.last_dt, ev))
        for s in sorted(snap_iter):
            if abs(state.t - s) <= 1e-12 * max(1.0, s):
                snapshots.append(state)
                snap_iter.discard(s)
                break
    return FlowTrace(
        initial=metric0,
        alpha=alpha,
        flat_potential=u,
        config=config,
        snapshots=tuple(snapshots),
        diagnostics=tuple(diagnostics),
        final=state,
    )
